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
    AuthParams,
    BadKey,
    DecodeError,
    MessageTooLong,
    authenticate,
    decode_message,
    encode_message,
    format_vector_line,
    key_from_bits,
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


def per_word_draw(supply: np.ndarray, n_words: int, p: int):
    """Reference drawer: one w-bit group at a time, rejecting values >= p.
    Returns (key, bits read), or (None, bits read) when the supply runs out."""
    w = p.bit_length()
    key, used = [], 0
    while len(key) < n_words:
        if used + w > supply.size:
            return None, used
        v = int("".join(str(b) for b in supply[used : used + w]), 2)
        used += w
        if v < p:
            key.append(v)
    return tuple(key), used


def biased_bits(n_bits: int, p_one: float, seed: int) -> BitString:
    gen = np.random.default_rng(seed)
    return BitString((gen.random(n_bits) < p_one).astype(np.uint8))


# small fields, a 13-bit Mersenne prime, the production field and one
# wider than a 64-bit limb
DRAW_PRIMES = (5, 7, 13, 8191, M61, (1 << 127) - 1)


class TestParams:
    def test_production_constants(self):
        assert M61 == 2**61 - 1
        assert WORD_BITS == 61
        assert PRODUCTION_KEY_BITS == PRODUCTION_WORDS * WORD_BITS == 45_079
        p = AuthParams()
        assert (p.p, p.d) == (M61, PRODUCTION_WORDS)
        assert p.word_bits == 61
        assert p.key_bits == 45_079
        assert p.max_message_bits == 45_017

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            AuthParams(p=15, d=3)
        with pytest.raises(ValueError):
            AuthParams(p=M61, d=1)

    def test_binary_field_allowed_for_tagging_only(self):
        assert AuthParams(2, 2).key_bits == 4
        with pytest.raises(ValueError):
            max_message_bits(2, p=2)

    def test_equality(self):
        assert AuthParams(5, 3) == AuthParams(5, 3)
        assert AuthParams(5, 3) != AuthParams(7, 3)


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

    @given(st.integers(0, 120), st.floats(0.5, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_roundtrip_escape_heavy_small_field(self, n_bits, p_one, seed):
        # at p = 5 every 3-bit group of value 4..7 travels escaped, and
        # mostly-ones messages escape nearly every group
        msg = biased_bits(n_bits, p_one, seed)
        n = 1 + 2 * -(-n_bits // 3) + 1  # room for every group escaped
        words = encode_message(msg, n, p=5)
        assert all(0 <= v < 5 for v in words)
        assert decode_message(words, n_bits, p=5) == msg

    def test_roundtrip_field_wider_than_a_limb(self, rng):
        p = (1 << 127) - 1
        for n_bits in (0, 1, 126, 127, 128, 1000):
            msg = random_bitstring(n_bits, rng)
            n = words_needed(n_bits, p)
            assert decode_message(encode_message(msg, n, p), n_bits, p) == msg
        assert encode_message(bs("1" * 127), 3, p) == (1, p - 1, 1)

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
        key, used = key_from_bits(supply, 3)
        assert len(key) == 3 and used == 183
        assert all(0 <= x < M61 for x in key)

    def test_rejection_consumes_extra(self):
        supply = bs("1" * 61 + "0" * 61)
        key, used = key_from_bits(supply, 1)
        assert key == (0,)
        assert used == 122  # the all-ones group was rejected

    def test_escape_marker_is_a_valid_key_word(self):
        key, used = key_from_bits(bs("1" * 60 + "0"), 1)
        assert key == (ESC,) and used == 61

    def test_exhaustion(self):
        with pytest.raises(PoolExhausted):
            key_from_bits(BitString.zeros(60), 1)
        with pytest.raises(PoolExhausted):
            key_from_bits(bs("1" * 61), 1)  # rejection drains the supply
        pool = SecretPool(bs("1" * 61 + "0" * 60))
        with pytest.raises(PoolExhausted):
            key_from_pool(pool, 1)
        assert pool.pointer == 0  # a key that cannot be finished costs nothing

    def test_pool_matches_bits_and_advances(self, rng):
        store = random_bitstring(61 * 10, rng)
        pool = SecretPool(store)
        key_a, used_a = key_from_pool(pool, 4)
        key_b, used_b = key_from_bits(store, 4)
        assert key_a == key_b and used_a == used_b
        assert pool.pointer == used_a

    @given(
        st.sampled_from(DRAW_PRIMES),
        st.integers(0, 10),
        st.floats(0.0, 1.0),  # share of ones; near 1 most groups are rejected
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_batched_draw_matches_per_word_rejection(
        self, p, n_words, p_one, seed, offset_words, data
    ):
        w = p.bit_length()
        n_bits = data.draw(st.integers(0, w * (2 * n_words + 3)))
        offset = offset_words * w
        store = biased_bits(offset + n_bits, p_one, seed)
        want_key, want_used = per_word_draw(store.bits[offset:], n_words, p)

        pool = SecretPool(store)
        pool.consume(offset)
        if want_key is None:
            with pytest.raises(PoolExhausted):
                key_from_bits(store[offset:], n_words, p)
            with pytest.raises(PoolExhausted):
                key_from_pool(pool, n_words, p)
            assert pool.pointer == offset
            return
        assert key_from_bits(store[offset:], n_words, p) == (want_key, want_used)
        assert key_from_pool(pool, n_words, p) == (want_key, want_used)
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
        key, _ = key_from_bits(random_bitstring(61 * 12, rng), words_needed(500))
        tag = authenticate(msg, key)
        assert verify(msg, tag, key)
        assert not verify(msg.flipped(137), tag, key)
        assert not verify(msg, (tag + 1) % M61, key)

    def test_overlong_message_fails_closed(self):
        key = (1, 2)
        assert verify(BitString.zeros(100), 0, key) is False



class TestVectorLines:
    def test_roundtrip(self, rng):
        params = AuthParams(p=5, d=3)
        msg = bs("10")
        words = encode_message(msg, 3, p=5)
        key = (4, 0, 2)
        tag = tag_message(key, words, p=5)
        line = format_vector_line(params, key, msg, tag)
        got_params, got_key, got_msg, got_tag = parse_vector_line(line)
        assert got_params == params
        assert got_key == key
        assert got_msg == msg
        assert got_tag == tag

    def test_production_roundtrip(self, rng):
        params = AuthParams()
        msg = random_bitstring(300, rng)
        key, _ = key_from_pool(
            SecretPool(random_bitstring(PRODUCTION_KEY_BITS + 610, rng)),
            params.d,
        )
        tag = authenticate(msg, key)
        line = format_vector_line(params, key, msg, tag)
        _, got_key, got_msg, got_tag = parse_vector_line(line)
        assert got_key == key and got_msg == msg and got_tag == tag
        assert verify(got_msg, got_tag, got_key)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_vector_line("5 3 000102 2:80")  # missing tag field
        with pytest.raises(ValueError):
            parse_vector_line("4 3 000102 2:80 1")  # composite modulus
        with pytest.raises(ValueError):
            parse_vector_line("5 3 0001 2:80 1")  # key field too short
        with pytest.raises(BadKey):
            parse_vector_line("5 3 017 2:80 1")  # key word out of range
        with pytest.raises(ValueError):
            parse_vector_line("5 3 012 2:80 7")  # tag out of range
