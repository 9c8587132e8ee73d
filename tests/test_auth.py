"""Authentication-layer unit tests.

The full orthogonal-array and substitution-exactness enumerations live
in the acceptance suite; here the focus is the bit-exact message
encoding, key drawing from the shared pool, and tag arithmetic.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident import auth
from qident.auth import (
    M61,
    PRODUCTION_KEY_BITS,
    PRODUCTION_WORDS,
    WORD_BITS,
    BadKey,
    DecodeError,
    MessageTooLong,
    authenticate,
    decode_message,
    encode_message,
    format_vector_line,
    key_from_pool,
    max_message_bits,
    parse_vector_line,
    tag_message,
    verify,
    words_needed,
)
from qident.core import BitString, PoolExhausted, SecretPool, random_bitstring

ESC = M61 - 1


def bs(text01: str) -> BitString:
    return BitString.from01(text01)


def per_word_draw(supply: np.ndarray, n_words: int):
    """Reference drawer: one 61-bit group at a time, rejecting values >= p.
    Returns (key, bits read), or (None, bits read) when the supply runs out."""
    key, used = [], 0
    while len(key) < n_words:
        if used + 61 > supply.size:
            return None, used
        v = int("".join(str(b) for b in supply[used : used + 61]), 2)
        used += 61
        if v < M61:
            key.append(v)
    return tuple(key), used


def biased_bits(n_bits: int, p_one: float, seed: int) -> BitString:
    gen = np.random.default_rng(seed)
    return BitString((gen.random(n_bits) < p_one).astype(np.uint8))


def vector_line(p, d, msg="2:80", tag="0" * 16):
    return f"{p} {d} {'0' * 16 * d} {msg} {tag}"


class TestParams:
    def test_production_constants(self):
        assert M61 == 2**61 - 1
        assert WORD_BITS == 61
        assert PRODUCTION_KEY_BITS == PRODUCTION_WORDS * WORD_BITS == 45_079
        assert max_message_bits(PRODUCTION_WORDS) == 45_017

    def test_rejects_composite_modulus(self):
        # a vector line names its modulus, and only 2**61 - 1 parses
        with pytest.raises(ValueError, match="modulus 15"):
            parse_vector_line(vector_line(15, 3))
        for n_words in (1, 0):  # sentinel plus at least one payload word
            with pytest.raises(ValueError):
                max_message_bits(n_words)
            with pytest.raises(ValueError):
                encode_message(BitString.zeros(0), n_words)
            with pytest.raises(ValueError):
                parse_vector_line(vector_line(M61, n_words))

    def test_binary_field_allowed_for_tagging_only(self):
        # tag_message works over any prime field; messages and vector
        # lines use 2**61 - 1 alone
        assert tag_message((1, 1), (1, 1), p=2) == 0
        with pytest.raises(ValueError, match="modulus 2"):
            parse_vector_line(vector_line(2, 2))


class TestWordBudget:
    def test_anchors(self):
        assert words_needed(0) == 2
        assert words_needed(32) == 2
        assert words_needed(60) == 2
        assert words_needed(61) == 3
        assert words_needed(4000) == 67
        assert words_needed(45_017) == 739
        assert words_needed(45_018) == 740
        assert max_message_bits(2) == 60
        assert max_message_bits(739) == 45_017

    @given(st.integers(0, 50_000))
    def test_minimality(self, n_bits):
        n = words_needed(n_bits)
        assert max_message_bits(n) >= n_bits
        assert n == 2 or max_message_bits(n - 1) < n_bits


class TestEncoding:
    def test_empty_message(self):
        assert encode_message(BitString.zeros(0), 4) == (1, 0, 0, 0)

    def test_single_zero_bit(self):
        assert encode_message(bs("0"), 2) == (1, 0)

    def test_plain_group(self):
        # 1 followed by 60 zeros is the group value 2**60
        words = encode_message(bs("1" + "0" * 60), 3)
        assert words == (1, 1 << 60, 0)

    def test_escape_all_ones(self):
        # the all-ones group is congruent to 0 mod p and must be escaped
        words = encode_message(bs("1" * 61), 3)
        assert words == (1, ESC, 1)

    def test_escape_marker_value(self):
        # a group equal to the escape marker itself also travels escaped
        words = encode_message(bs("1" * 60 + "0"), 3)
        assert words == (1, ESC, 0)

    def test_every_word_in_field(self, rng):
        for n_bits in (0, 1, 61, 200, 1000):
            msg = random_bitstring(n_bits, rng)
            words = encode_message(msg, words_needed(n_bits))
            assert all(0 <= v < M61 for v in words)
            assert words[0] == 1

    def test_roundtrip(self, rng):
        for n_bits in (0, 1, 60, 61, 62, 100, 122, 1000, 4321):
            msg = random_bitstring(n_bits, rng)
            n = words_needed(n_bits)
            assert decode_message(encode_message(msg, n), n_bits) == msg

    def test_roundtrip_escape_heavy(self):
        msg = bs("1" * 61 + "1" * 60 + "0" + "1" * 61)
        n = 8  # three escaped groups need six words plus sentinel
        assert decode_message(encode_message(msg, n), len(msg)) == msg

    def test_roundtrip_production_size(self, rng):
        msg = random_bitstring(45_017, rng)
        words = encode_message(msg, PRODUCTION_WORDS)
        assert len(words) == PRODUCTION_WORDS
        assert decode_message(words, 45_017) == msg

    def test_length_cap(self):
        with pytest.raises(MessageTooLong):
            encode_message(BitString.zeros(61), 2)

    def test_escape_overflow_detected(self):
        # 60 ones fits the nominal cap of two words, but its padded group
        # equals the escape marker and needs a second payload word
        with pytest.raises(MessageTooLong):
            encode_message(bs("1" * 60), 2)

    @given(
        st.lists(st.sampled_from(["1" * 61, "1" * 60 + "0", "1" * 59 + "01", None]),
                 max_size=8),
        st.integers(0, 60),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_roundtrip_escape_heavy_property(self, groups, cut, seed):
        # all ones and the escape marker travel escaped, their neighbour
        # p - 2 does not; None is a random group.  Cutting the tail
        # zero-pads the last group.
        gen = np.random.default_rng(seed)
        text = "".join(g or "".join(map(str, gen.integers(0, 2, 61))) for g in groups)
        msg = bs(text[: max(0, len(text) - cut)])
        n = 2 + 2 * len(groups)  # room for every group escaped
        words = encode_message(msg, n)
        assert all(0 <= v < M61 for v in words)
        assert decode_message(words, len(msg)) == msg

    @given(st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_roundtrip_property(self, n_bits, seed):
        msg = random_bitstring(n_bits, np.random.default_rng(seed))
        n = words_needed(n_bits) + 1  # slack word stays zero padding
        assert decode_message(encode_message(msg, n), n_bits) == msg


class TestDecodeValidation:
    def test_word_out_of_range(self):
        with pytest.raises(DecodeError):
            decode_message((1, M61), 61)

    def test_missing_sentinel(self):
        with pytest.raises(DecodeError):
            decode_message((0, 5), 61)
        with pytest.raises(DecodeError):
            decode_message((), 0)

    def test_too_short(self):
        with pytest.raises(DecodeError):
            decode_message((1,), 5)

    def test_dangling_escape(self):
        with pytest.raises(DecodeError):
            decode_message((1, ESC), 61)

    def test_escaped_value_out_of_group_range(self):
        with pytest.raises(DecodeError):
            decode_message((1, ESC, 2), 61)

    def test_nonzero_padding_word(self):
        with pytest.raises(DecodeError):
            decode_message((1, 5, 7), 61)

    def test_nonzero_padding_bits(self):
        # group value 1 sets the last bit of a 61-bit group; a 60-bit
        # message must leave that bit clear
        with pytest.raises(DecodeError):
            decode_message((1, 1), 60)


class TestKeyDrawing:
    def test_plain_draw(self, rng):
        supply = random_bitstring(61 * 5, rng)
        key, used = key_from_pool(SecretPool(supply), 3)
        assert len(key) == 3 and used == 183
        assert all(0 <= x < M61 for x in key)

    def test_rejection_consumes_extra(self):
        supply = bs("1" * 61 + "0" * 61)
        key, used = key_from_pool(SecretPool(supply), 1)
        assert key == (0,)
        assert used == 122  # the all-ones group was rejected

    def test_escape_marker_is_a_valid_key_word(self):
        key, used = key_from_pool(SecretPool(bs("1" * 60 + "0")), 1)
        assert key == (ESC,) and used == 61

    def test_exhaustion(self):
        with pytest.raises(PoolExhausted):
            key_from_pool(SecretPool(BitString.zeros(60)), 1)
        with pytest.raises(PoolExhausted):
            key_from_pool(SecretPool(bs("1" * 61)), 1)  # rejection drains the supply
        pool = SecretPool(bs("1" * 61 + "0" * 60))
        with pytest.raises(PoolExhausted):
            key_from_pool(pool, 1)
        assert pool.pointer == 0  # a key that cannot be finished costs nothing

    @given(
        st.integers(0, 10),
        st.floats(0.0, 1.0),  # share of ones; near 1 most groups are rejected
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_batched_draw_matches_per_word_rejection(
        self, n_words, p_one, seed, offset_words, data
    ):
        n_bits = data.draw(st.integers(0, 61 * (2 * n_words + 3)))
        offset = offset_words * 61
        store = biased_bits(offset + n_bits, p_one, seed)
        want_key, want_used = per_word_draw(store.bits[offset:], n_words)

        pool = SecretPool(store)
        pool.consume(offset)
        if want_key is None:
            with pytest.raises(PoolExhausted):
                key_from_pool(pool, n_words)
            assert pool.pointer == offset
            return
        assert key_from_pool(pool, n_words) == (want_key, want_used)
        assert pool.pointer == offset + want_used

    def test_two_parties_stay_aligned(self, rng):
        store = random_bitstring(61 * 20, rng)
        p1, p2 = SecretPool(store), SecretPool(store)
        for n in (2, 3, 1):
            k1, u1 = key_from_pool(p1, n)
            k2, u2 = key_from_pool(p2, n)
            assert k1 == k2 and u1 == u2
        assert p1.pointer == p2.pointer


class TestTagging:
    def test_small_field_anchor(self):
        assert tag_message((1, 2, 3), (1, 0, 4), p=5) == 3

    def test_linearity(self, rng):
        key = tuple(int(x) for x in rng.integers(0, M61, 6))
        c1 = tuple(int(x) for x in rng.integers(0, M61, 6))
        c2 = tuple(int(x) for x in rng.integers(0, M61, 6))
        c_sum = tuple((a + b) % M61 for a, b in zip(c1, c2))
        lhs = (tag_message(key, c1) + tag_message(key, c2)) % M61
        assert lhs == tag_message(key, c_sum)

    def test_bad_keys(self):
        with pytest.raises(BadKey):
            tag_message((1, 2), (1, 0, 4), p=5)
        with pytest.raises(BadKey):
            tag_message((1, 7, 3), (1, 0, 4), p=5)

    def test_consistent_key_count_small_field(self):
        # the defining property, small enough to see whole: every tag
        # value is reached by the same number of keys
        p, d = 3, 2
        msg = (1, 2)
        for t in range(p):
            n = sum(
                1
                for key in itertools.product(range(p), repeat=d)
                if tag_message(key, msg, p) == t
            )
            assert n == p ** (d - 1)


class TestVerify:
    def test_accepts_and_rejects(self, rng):
        msg = random_bitstring(500, rng)
        key, _ = key_from_pool(SecretPool(random_bitstring(61 * 12, rng)), words_needed(500))
        tag = authenticate(msg, key)
        assert verify(msg, tag, key)
        assert not verify(msg.flipped(137), tag, key)
        assert not verify(msg, (tag + 1) % M61, key)

    def test_overlong_message_fails_closed(self):
        key = (1, 2)
        assert verify(BitString.zeros(100), 0, key) is False



class TestVectorLines:
    # a literal line, so that any drift in the file format shows
    PINNED = (
        "2305843009213693951 3 1a749833117d258f1649fffcbb7aa59c0ab3b0c8f8f94f94 "
        "16:dead 1425543239dc330f"
    )

    def test_production_line_pinned(self):
        key, msg, tag = parse_vector_line(self.PINNED)
        assert msg == BitString.from_text("16:dead")
        assert authenticate(msg, key) == tag
        assert format_vector_line(key, msg, tag) == self.PINNED

    def test_roundtrip(self, rng):
        msg = bs("10")
        key = (4, 0, M61 - 1)
        tag = authenticate(msg, key)
        line = format_vector_line(key, msg, tag)
        assert line.split()[:2] == [str(M61), "3"]
        assert parse_vector_line(line) == (key, msg, tag)

    def test_production_roundtrip(self, rng):
        msg = random_bitstring(300, rng)
        key, _ = key_from_pool(
            SecretPool(random_bitstring(PRODUCTION_KEY_BITS + 610, rng)),
            PRODUCTION_WORDS,
        )
        tag = authenticate(msg, key)
        line = format_vector_line(key, msg, tag)
        got_key, got_msg, got_tag = parse_vector_line(line)
        assert got_key == key and got_msg == msg and got_tag == tag
        assert verify(got_msg, got_tag, got_key)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_vector_line(vector_line(M61, 3)[:-17])  # missing tag field
        with pytest.raises(ValueError, match="modulus 5"):
            parse_vector_line(vector_line(5, 3))  # any other modulus
        with pytest.raises(ValueError):
            parse_vector_line(vector_line(M61, 3).replace("0" * 48, "0" * 47))
        with pytest.raises(BadKey):  # key word out of range
            parse_vector_line(vector_line(M61, 3).replace("0" * 16, f"{M61:016x}", 1))
        with pytest.raises(ValueError):
            parse_vector_line(vector_line(M61, 3, tag=f"{M61:016x}"))
        with pytest.raises(ValueError):
            parse_vector_line(vector_line(M61, 3, msg="3:ff"))  # non-canonical
        with pytest.raises(ValueError, match="canonical"):  # int(_, 16) would read it
            parse_vector_line(f"{M61} 2 0x000000000000050000_00000000007 4:a0 0x3")
        with pytest.raises(ValueError, match="canonical"):  # a short tag
            parse_vector_line(vector_line(M61, 3, tag="3"))

    def test_format_refuses_what_parse_refuses(self):
        with pytest.raises(ValueError):
            format_vector_line((0,), bs(""), 0)
        with pytest.raises(BadKey):
            format_vector_line((0, M61), bs(""), 0)


@pytest.mark.parametrize("call", [
    lambda: words_needed(-1),
    lambda: decode_message((1, 2), -1),
], ids=["words-needed", "decode-length"])
def test_negative_lengths_raise(call):
    with pytest.raises(ValueError):
        call()
