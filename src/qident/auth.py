"""Unconditionally secure message authentication from shared secret bits.

A message is encoded as a vector c of d elements of GF(p) whose first
element is the constant 1; the key is a uniform vector r of the same
length; the tag is the inner product r . c mod p.  For any two distinct
messages and any observed tag, exactly p**(d - 1) keys remain
consistent, so a substitution forgery succeeds with probability exactly
1/p regardless of the forger's computing power.

Production modulus is the Mersenne prime 2**61 - 1: one key word is 61
bits, a 739-word key is 45,079 bits, and messages up to 45,017 bits are
accepted.

Bit-exact message encoding
--------------------------
Let w = p.bit_length() (61 for the production modulus).  The message
bits are split big-endian into w-bit groups, the last group zero-padded.
Group values below p - 1 map to one word each.  The two group values
that cannot travel as-is - all ones (congruent to 0 mod p for the
Mersenne modulus, hence ambiguous) and p - 1 itself, which is reserved
as the escape marker ESC - are emitted as the two-word escape sequence
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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import BitString, PoolExhausted, QidentError, SecretPool

__all__ = [
    "M61",
    "WORD_BITS",
    "PRODUCTION_WORDS",
    "PRODUCTION_KEY_BITS",
    "AuthParams",
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


class MessageTooLong(QidentError):
    """Message (after escaping) does not fit in the word budget."""


class DecodeError(QidentError):
    """Word vector is not a valid encoding of any message of this length."""


class BadKey(QidentError):
    """Key vector has the wrong length or an out-of-range word."""


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for anything this module will ever see
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=64)
def _check_modulus(p: int) -> int:
    if p < 2 or not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p.bit_length()


def _check_encoding_modulus(p: int) -> int:
    # the escape sequence (p-1, v-(p-1)) must itself fit in the field:
    # max group value 2**w - 1 needs 2**w - p <= p - 1.  Among primes
    # only p = 2 fails; tagging still works there, bit encoding does not.
    w = _check_modulus(p)
    if (1 << w) > 2 * p - 1:
        raise ValueError(f"modulus {p} cannot carry the escape encoding")
    return w


@dataclass(frozen=True)
class AuthParams:
    """Field modulus p (prime) and word count d (>= 2) of one key."""

    p: int = M61
    d: int = PRODUCTION_WORDS

    def __post_init__(self):
        _check_modulus(self.p)
        if self.d < 2:
            raise ValueError("need at least two words (sentinel + payload)")

    @property
    def word_bits(self) -> int:
        return self.p.bit_length()

    @property
    def key_bits(self) -> int:
        """Nominal key length; rejection may consume slightly more."""
        return self.d * self.word_bits

    @property
    def max_message_bits(self) -> int:
        return max_message_bits(self.d, self.p)


def words_needed(n_bits: int, p: int = M61) -> int:
    """Smallest word count whose cap admits an n_bits message:
    one sentinel word plus ceil((n_bits + 1) / w) groups, at least two.

    Escapes can enlarge a specific message beyond this (probability
    about d * 2**(1-w) for uniform data); encode_message raises
    MessageTooLong in that case rather than overrunning the key.
    """
    w = _check_encoding_modulus(p)
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    return max(2, 1 + math.ceil((n_bits + 1) / w))


def max_message_bits(n_words: int, p: int = M61) -> int:
    """Longest accepted message: w * (n_words - 1) - 1 bits.

    45,017 bits at the production parameterization.
    """
    w = _check_encoding_modulus(p)
    if n_words < 2:
        raise ValueError("need at least two words (sentinel + payload)")
    return w * (n_words - 1) - 1


def _group_values(bits: np.ndarray, w: int) -> np.ndarray:
    """Big-endian values of the w-bit groups of a 0/1 array, the last
    group zero-padded, as an object array of exact Python ints."""
    limbs = -(-w // 64)
    groups = np.concatenate([bits, np.zeros(-bits.size % w, np.uint8)]).reshape(-1, w)
    grid = np.pad(groups, ((0, 0), (64 * limbs - w, 0)))  # whole 64-bit limbs
    parts = np.packbits(grid, axis=1).view(">u8").astype(object)
    values = parts[:, 0]
    for j in range(1, limbs):
        values = (values << 64) | parts[:, j]
    return values


def _group_bits(values, w: int) -> np.ndarray:
    """Inverse of _group_values: the w big-endian bits of each value."""
    limbs = -(-w // 64)
    values = np.array(values, dtype=object)
    parts = np.empty((values.size, limbs), dtype=">u8")
    for j in range(limbs):
        parts[:, j] = (values >> (64 * (limbs - 1 - j))) & ((1 << 64) - 1)
    return np.unpackbits(parts.view(np.uint8), axis=1)[:, 64 * limbs - w :].ravel()


def encode_message(bits: BitString, n_words: int, p: int = M61) -> tuple[int, ...]:
    """Encode a message as exactly n_words field elements; see module
    docstring for the bit-exact layout."""
    w = _check_encoding_modulus(p)
    if n_words < 2:
        raise ValueError("need at least two words (sentinel + payload)")
    if len(bits) > max_message_bits(n_words, p):
        raise MessageTooLong(
            f"{len(bits)} bits exceed the {max_message_bits(n_words, p)}-bit cap"
        )
    esc = p - 1
    out = [1]
    for v in _group_values(bits.bits, w).tolist():
        out += (esc, v - esc) if v >= esc else (v,)
    if len(out) > n_words:
        raise MessageTooLong(
            f"{len(bits)} bits need {len(out)} words after escaping, "
            f"only {n_words} available"
        )
    out.extend([0] * (n_words - len(out)))
    return tuple(out)


def decode_message(words, msg_len: int, p: int = M61) -> BitString:
    """Invert encode_message for a message of known length msg_len.

    Message lengths are fixed per protocol message kind, so the length
    is context, not payload.  Every structural property of the encoding
    is checked; violations raise DecodeError.
    """
    w = _check_encoding_modulus(p)
    if msg_len < 0:
        raise ValueError("msg_len must be non-negative")
    words = tuple(map(int, words))
    if words and (min(words) < 0 or max(words) >= p):
        raise DecodeError("word out of field range")
    if not words or words[0] != 1:
        raise DecodeError("missing sentinel word")
    esc = p - 1
    n_groups = math.ceil(msg_len / w)
    values = []
    i = 1
    while len(values) < n_groups:
        if i >= len(words):
            raise DecodeError("word vector too short for this message length")
        v = words[i]
        if v == esc:
            if i + 1 >= len(words):
                raise DecodeError("dangling escape marker")
            v = esc + words[i + 1]
            if v > (1 << w) - 1:
                raise DecodeError("escaped value out of group range")
            i += 2
        else:
            i += 1
        values.append(v)
    if any(words[i:]):
        raise DecodeError("nonzero padding words")
    bits = _group_bits(values, w)
    if bits[msg_len:].any():
        raise DecodeError("nonzero padding bits")
    return BitString(bits[:msg_len])


def _draw_words(supply: np.ndarray, n_words: int, p: int) -> tuple[tuple[int, ...], int]:
    # each batch reads exactly the words still missing, so the last group
    # read completes the key, as in a one-at-a-time draw
    w = _check_modulus(p)
    key: list[int] = []
    used = 0
    while len(key) < n_words:
        need = (n_words - len(key)) * w
        if used + need > supply.size:
            raise PoolExhausted(
                f"{supply.size} bits exhausted before {n_words} words drawn"
            )
        values = _group_values(supply[used : used + need], w)
        key += values[values < p].tolist()
        used += need
    return tuple(key), used


def key_from_pool(
    pool: SecretPool, n_words: int, p: int = M61
) -> tuple[tuple[int, ...], int]:
    """Draw n_words key words from the shared pool and consume the bits
    read; returns (key, bits consumed).  Both parties run this on
    identical pools, so they reject the same groups and consume the
    same number of bits.  Raises PoolExhausted, leaving the pointer
    where it was, when the pool cannot finish the key."""
    key, used = _draw_words(pool.peek(), n_words, p)
    pool.consume(used)
    return key, used


def key_from_bits(
    bits: BitString, n_words: int, p: int = M61
) -> tuple[tuple[int, ...], int]:
    """key_from_pool against a fixed bit supply; returns (key, bits
    consumed).  Raises PoolExhausted if the supply runs out before
    n_words words survive rejection."""
    return _draw_words(bits.bits, n_words, p)


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


def authenticate(bits: BitString, key, p: int = M61) -> int:
    """Tag for a message given a key vector (its length sets the word
    budget)."""
    return tag_message(key, encode_message(bits, len(tuple(key)), p), p)


def verify(bits: BitString, tag: int, key, p: int = M61) -> bool:
    """True iff tag matches the message under this key."""
    try:
        return authenticate(bits, key, p) == int(tag)
    except MessageTooLong:
        return False


# -- test-vector file format -------------------------------------------
#
# One vector per line, whitespace-separated:
#   p  d  key_digits_hex  msg  tag_hex
# key_digits_hex concatenates all d key words as fixed-width hex
# (ceil(w/4) digits each); msg is BitString text ("<bits>:<hex>");
# tag_hex is the tag value in the same fixed width.


def _hex_width(p: int) -> int:
    return (p.bit_length() + 3) // 4


def format_vector_line(params: AuthParams, key, msg: BitString, tag: int) -> str:
    key = _check_key(key, params.d, params.p)
    width = _hex_width(params.p)
    key_hex = "".join(f"{x:0{width}x}" for x in key)
    return f"{params.p} {params.d} {key_hex} {msg.to_text()} {tag:0{width}x}"


def parse_vector_line(line: str) -> tuple[AuthParams, tuple[int, ...], BitString, int]:
    fields = line.split()
    if len(fields) != 5:
        raise ValueError("expected: p d key_digits_hex msg tag_hex")
    p, d = int(fields[0]), int(fields[1])
    params = AuthParams(p, d)
    width = _hex_width(p)
    key_hex = fields[2]
    if len(key_hex) != d * width:
        raise ValueError(f"key field must be {d * width} hex digits")
    key = tuple(int(key_hex[i * width : (i + 1) * width], 16) for i in range(d))
    key = _check_key(key, d, p)
    msg = BitString.from_text(fields[3])
    tag = int(fields[4], 16)
    if not 0 <= tag < p:
        raise ValueError("tag out of field range")
    return params, key, msg, tag
