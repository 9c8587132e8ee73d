"""Unconditionally secure message authentication from shared secret bits.

A message is encoded as a vector c of d elements of GF(p) whose first
element is the constant 1; the key is a uniform vector r of the same
length; the tag is the inner product r . c mod p.  For any two distinct
messages and any observed tag, exactly p**(d - 1) keys remain
consistent, so a substitution forgery succeeds with probability exactly
1/p regardless of the forger's computing power.

The field is fixed to the Mersenne prime p = 2**61 - 1: one key word is
w = 61 bits, a 739-word key is 45,079 bits, and messages up to 45,017
bits are accepted.  Only tag_message takes p, so that the orthogonal-
array property can be enumerated over small fields.

Bit-exact message encoding
--------------------------
The message bits are split big-endian into w-bit groups, the last group
zero-padded.  Group values below p - 1 map to one word each.  The two
group values that cannot travel as-is - all ones (congruent to 0 mod p,
hence ambiguous) and p - 1 itself, which is reserved as the escape
marker ESC - are emitted as the two-word escape sequence
(ESC, value - (p - 1)).  The word vector is the constant 1, then the
groups, then zero words up to d.  An empty message is therefore
(1, 0, 0, ...).  Zero padding makes the map injective per message
length, not globally; decode_message takes the length as context, and
protocol messages have kind-fixed lengths.

Key drawing
-----------
Key words are drawn from the shared bits as consecutive w-bit groups;
a group whose value is p or more is rejected and the next one taken, so
every word is exactly uniform on [0, p).  The groups are read in
batches: as many as there are words still missing, then again only for
the words rejection discarded.  The bits consumed are therefore exactly
those of drawing one group at a time, and both parties, holding the same
bits, consume the same count.  A supply that cannot finish the key
raises PoolExhausted and is not advanced at all.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import BitString, PoolExhausted, QidentError, SecretPool, pack_uints, unpack_uints

__all__ = [
    "M61",
    "WORD_BITS",
    "PRODUCTION_WORDS",
    "PRODUCTION_KEY_BITS",
    "MessageTooLong",
    "DecodeError",
    "BadKey",
    "words_needed",
    "max_message_bits",
    "encode_message",
    "decode_message",
    "key_from_pool",
    "key_from_bits",
    "tag_message",
    "authenticate",
    "verify",
    "format_vector_line",
    "parse_vector_line",
]

M61 = (1 << 61) - 1
WORD_BITS = 61
PRODUCTION_WORDS = 739
PRODUCTION_KEY_BITS = PRODUCTION_WORDS * WORD_BITS  # 45_079
_ESC = M61 - 1


class MessageTooLong(QidentError):
    """Message (after escaping) does not fit in the word budget."""


class DecodeError(QidentError):
    """Word vector is not a valid encoding of any message of this length."""


class BadKey(QidentError):
    """Key vector has the wrong length or an out-of-range word."""


def _check_words(n_words: int) -> None:
    if n_words < 2:
        raise ValueError("need at least two words (sentinel + payload)")


def words_needed(n_bits: int) -> int:
    """Smallest word count whose cap admits an n_bits message:
    one sentinel word plus ceil((n_bits + 1) / w) groups, at least two.

    Escapes can enlarge a specific message beyond this (probability
    about d * 2**(1-w) for uniform data); encode_message raises
    MessageTooLong in that case rather than overrunning the key.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return max(2, 1 + math.ceil((n_bits + 1) / WORD_BITS))


def max_message_bits(n_words: int) -> int:
    """Longest accepted message: w * (n_words - 1) - 1 bits.

    45,017 bits at the production parameterization.
    """
    _check_words(n_words)
    return WORD_BITS * (n_words - 1) - 1


def encode_message(bits: BitString, n_words: int) -> tuple[int, ...]:
    """Encode a message as exactly n_words field elements; see module
    docstring for the bit-exact layout."""
    if len(bits) > max_message_bits(n_words):
        raise MessageTooLong(
            f"{len(bits)} bits exceed the {max_message_bits(n_words)}-bit cap"
        )
    out = [1]
    padded = np.pad(bits.bits, (0, -len(bits) % WORD_BITS))
    for v in unpack_uints(padded, WORD_BITS).tolist():
        out += (_ESC, v - _ESC) if v >= _ESC else (v,)
    if len(out) > n_words:
        raise MessageTooLong(
            f"{len(bits)} bits need {len(out)} words after escaping, "
            f"only {n_words} available"
        )
    out.extend([0] * (n_words - len(out)))
    return tuple(out)


def decode_message(words, msg_len: int) -> BitString:
    """Invert encode_message for a message of known length msg_len.

    Message lengths are fixed per protocol message kind, so the length
    is context, not payload.  Every structural property of the encoding
    is checked; violations raise DecodeError.
    """
    if msg_len < 0:
        raise ValueError("msg_len must be non-negative")
    words = tuple(map(int, words))
    if words and (min(words) < 0 or max(words) >= M61):
        raise DecodeError("word out of field range")
    if not words or words[0] != 1:
        raise DecodeError("missing sentinel word")
    n_groups = math.ceil(msg_len / WORD_BITS)
    values = []
    i = 1
    while len(values) < n_groups:
        if i >= len(words):
            raise DecodeError("word vector too short for this message length")
        v = words[i]
        if v == _ESC:
            if i + 1 >= len(words):
                raise DecodeError("dangling escape marker")
            v = _ESC + words[i + 1]
            if v > (1 << WORD_BITS) - 1:
                raise DecodeError("escaped value out of group range")
            i += 2
        else:
            i += 1
        values.append(v)
    if any(words[i:]):
        raise DecodeError("nonzero padding words")
    bits = pack_uints(values, WORD_BITS).bits
    if bits[msg_len:].any():
        raise DecodeError("nonzero padding bits")
    return BitString(bits[:msg_len])


def _draw_words(supply: np.ndarray, n_words: int) -> tuple[tuple[int, ...], int]:
    # each batch reads exactly the words still missing, so the last group
    # read completes the key, as in a one-at-a-time draw
    key: list[int] = []
    used = 0
    while len(key) < n_words:
        need = (n_words - len(key)) * WORD_BITS
        if used + need > supply.size:
            raise PoolExhausted(
                f"{supply.size} bits exhausted before {n_words} words drawn"
            )
        values = unpack_uints(supply[used : used + need], WORD_BITS)
        key += values[values < M61].tolist()
        used += need
    return tuple(key), used


def key_from_pool(pool: SecretPool, n_words: int) -> tuple[tuple[int, ...], int]:
    """Draw n_words key words from the shared pool and consume the bits
    read; returns (key, bits consumed).  Both parties run this on
    identical pools, so they reject the same groups and consume the
    same number of bits.  Raises PoolExhausted, leaving the pointer
    where it was, when the pool cannot finish the key."""
    key, used = _draw_words(pool.peek(), n_words)
    pool.consume(used)
    return key, used


def key_from_bits(bits: BitString, n_words: int) -> tuple[tuple[int, ...], int]:
    """key_from_pool against a fixed bit supply; returns (key, bits
    consumed).  Raises PoolExhausted if the supply runs out before
    n_words words survive rejection."""
    return _draw_words(bits.bits, n_words)


def _check_key(key, n_words: int, p: int) -> tuple[int, ...]:
    key = tuple(map(int, key))
    if len(key) != n_words:
        raise BadKey(f"key has {len(key)} words, message vector has {n_words}")
    if key and (min(key) < 0 or max(key) >= p):
        raise BadKey("key word out of field range")
    return key


def tag_message(key, msg_words, p: int = M61) -> int:
    """Inner product of key and message vectors over GF(p); exact
    big-integer arithmetic, no overflow at any word size."""
    msg_words = tuple(map(int, msg_words))
    key = _check_key(key, len(msg_words), p)
    return sum(map(operator.mul, key, msg_words)) % p


def authenticate(bits: BitString, key) -> int:
    """Tag for a message given a key vector (its length sets the word
    budget)."""
    return tag_message(key, encode_message(bits, len(tuple(key))))


def verify(bits: BitString, tag: int, key) -> bool:
    """True iff tag matches the message under this key."""
    try:
        return authenticate(bits, key) == int(tag)
    except MessageTooLong:
        return False


# -- test-vector file format -------------------------------------------
#
# One vector per line, whitespace-separated:
#   p  d  key_digits_hex  msg  tag_hex
# p is 2**61 - 1 and d at least 2; key_digits_hex concatenates all d key
# words as 16 hex digits each; msg is BitString text ("<bits>:<hex>");
# tag_hex is the tag value in the same width.


def format_vector_line(key, msg: BitString, tag: int) -> str:
    key = tuple(map(int, key))
    _check_words(len(key))
    _check_key(key, len(key), M61)
    key_hex = "".join(f"{x:016x}" for x in key)
    return f"{M61} {len(key)} {key_hex} {msg.to_text()} {tag:016x}"


def parse_vector_line(line: str) -> tuple[tuple[int, ...], BitString, int]:
    """(key, msg, tag) from one vector line; raises ValueError on a
    modulus other than 2**61 - 1, fewer than two words, or any line that
    format_vector_line would not write field for field."""
    fields = line.split()
    if len(fields) != 5:
        raise ValueError("expected: p d key_digits_hex msg tag_hex")
    p, d = int(fields[0]), int(fields[1])
    if p != M61:
        raise ValueError(f"modulus {p} is not 2**61 - 1")
    _check_words(d)
    key_hex = fields[2]
    if len(key_hex) != 16 * d:
        raise ValueError(f"key field must be {16 * d} hex digits")
    key = _check_key((int(key_hex[i : i + 16], 16) for i in range(0, 16 * d, 16)), d, M61)
    msg = BitString.from_text(fields[3])
    tag = int(fields[4], 16)
    if not 0 <= tag < M61:
        raise ValueError("tag out of field range")
    if format_vector_line(key, msg, tag) != " ".join(fields):
        raise ValueError("line is not in the canonical vector form")
    return key, msg, tag
