"""Domain-type behaviour: bit strings, pools, pointers, packing, the
keyed shuffle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.core import (
    BitString,
    LengthMismatch,
    PoolExhausted,
    SecretPool,
    pack_uints,
    random_bitstring,
    shuffle_rank,
    sync_pools,
    unpack_uints,
)


class TestBitString:
    def test_text_roundtrip_odd_length(self):
        b = BitString.from01("10110")
        assert BitString.from_text(b.to_text()) == b
        assert b.to_text() == "5:b0"

    @pytest.mark.parametrize("text", [
        "3:ff", "3:ffff", "3:", "8:00ff", "9:ff",
        "16:de ad", "+16:dead", " 16 :dead", "016:dead", "16:DEAD",
    ])
    def test_text_must_be_the_canonical_form(self, text):
        # nonzero padding, extra bytes, too few bytes, whitespace, a sign,
        # a padded length and upper-case hex are all refused
        with pytest.raises(ValueError):
            BitString.from_text(text)
        assert BitString.from_text("3:e0") == BitString.from01("111")
        assert BitString.from_text("0:") == BitString.zeros(0)

    def test_bytes_keep_prefix_semantics(self):
        # from_bytes reads the first n_bits and ignores the rest
        assert BitString.from_bytes(b"\xff\xff", 3) == BitString.from01("111")

    def test_bytes_roundtrip(self, rng):
        for n in (0, 1, 7, 8, 9, 64, 1000):
            b = random_bitstring(n, rng)
            assert BitString.from_bytes(b.to_bytes(), n) == b

    def test_xor_hamming(self):
        a = BitString.from01("1100")
        b = BitString.from01("1010")
        assert a.xor(b) == BitString.from01("0110")
        assert a.hamming(b) == 2
        with pytest.raises(LengthMismatch):
            a.xor(BitString.from01("10"))
        with pytest.raises(LengthMismatch):
            a.hamming(BitString.from01("10"))

    def test_immutable(self):
        b = BitString.from01("101")
        with pytest.raises(ValueError):
            b.bits[0] = 0

    def test_flipped(self):
        b = BitString.from01("000")
        assert b.flipped(1) == BitString.from01("010")
        assert b == BitString.from01("000")

    def test_concat_slice(self):
        b = BitString.from01("10") + BitString.from01("01")
        assert b.to01() == "1001"
        assert b[1:3].to01() == "00"
        assert b[0] == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitString([0, 2, 1])

    @given(st.binary(max_size=64), st.integers(0, 8))
    def test_from_bytes_prefix(self, data, spare):
        n = max(0, 8 * len(data) - spare)
        b = BitString.from_bytes(data, n)
        assert len(b) == n

    @pytest.mark.parametrize("n", [1, 3, 7, 9, 15])
    def test_from_bytes_masks_nonzero_pad_bits(self, n):
        # the same n bits under any pad compare and hash alike, and
        # serialize with the pad zeroed
        canonical = BitString.from01("1" * n)
        for last in (0xFF, (0xFF00 >> n % 8) & 0xFF | 1):
            data = b"\xff" * (n // 8) + bytes([last])
            b = BitString.from_bytes(data, n)
            assert b == canonical and hash(b) == hash(canonical)
            assert b.to_bytes() == canonical.to_bytes()
            assert b.to_bytes() == np.packbits(np.ones(n, np.uint8)).tobytes()
            assert b.count_ones() == n

    def test_slices_agree_with_the_unpacked_bits(self, rng):
        # every bound pair of a 21-bit string, most not on a byte, with
        # negative and out-of-range bounds and steps
        b = random_bitstring(21, rng)
        oracle = b.bits
        bounds = [None, *range(-23, 24)]
        for start in bounds:
            for stop in bounds:
                for step in (None, 1, 2, -1, -3):
                    got = b[start:stop:step]
                    assert got.bits.tolist() == oracle[start:stop:step].tolist()
                    assert got == BitString(oracle[start:stop:step])
        assert [b[i] for i in range(-21, 21)] == oracle[np.r_[-21:21]].tolist()
        for i in (21, -22):
            with pytest.raises(IndexError):
                b[i]

    def test_bit_operations_agree_with_the_unpacked_bits(self, rng):
        for n in (0, 1, 5, 8, 13, 64, 65, 1000):
            a, b = random_bitstring(n, rng), random_bitstring(n, rng)
            assert a.xor(b).bits.tolist() == (a.bits ^ b.bits).tolist()
            assert a.hamming(b) == int(np.count_nonzero(a.bits != b.bits))
            assert a.count_ones() == int(a.bits.sum())
            assert (a + b).bits.tolist() == a.bits.tolist() + b.bits.tolist()
            assert a.to01() == "".join(map(str, a.bits.tolist()))
            for i in range(-n, n):
                flipped = a.bits.copy()
                flipped[i] ^= 1
                assert a.flipped(i).bits.tolist() == flipped.tolist()
            with pytest.raises(IndexError):
                a.flipped(n)

    def test_bits_is_a_read_only_unpack(self, rng):
        b = random_bitstring(20, rng)
        bits = b.bits
        with pytest.raises(ValueError):
            bits[3] ^= 1
        copy = bits.copy()
        copy[3] ^= 1
        assert b.bits.tolist() == bits.tolist() != copy.tolist()


class TestSecretPool:
    def test_consume_advances(self, rng):
        store = random_bitstring(100, rng)
        pool = SecretPool(store)
        first = pool.consume(40)
        second = pool.consume(40)
        assert first == store[:40]
        assert second == store[40:80]
        assert pool.pointer == 80
        assert pool.remaining == 20

    def test_consume_zero(self, rng):
        pool = SecretPool(random_bitstring(10, rng))
        assert pool.consume(0) == BitString.zeros(0)
        assert pool.pointer == 0

    def test_exhaustion(self, rng):
        pool = SecretPool(random_bitstring(10, rng))
        with pytest.raises(PoolExhausted):
            pool.consume(11)
        # a failed consume must not move the pointer
        assert pool.pointer == 0

    def test_no_reuse_after_advance(self, rng):
        store = random_bitstring(50, rng)
        pool = SecretPool(store)
        pool.advance_to(30)
        with pytest.raises(ValueError):
            pool.advance_to(10)
        assert pool.consume(20) == store[30:]

    def test_advance_to_the_end(self, rng):
        pool = SecretPool(random_bitstring(50, rng))
        pool.advance_to(50)
        assert pool.pointer == 50 and pool.remaining == 0
        with pytest.raises(PoolExhausted):
            pool.advance_to(51)

    def test_refuel_appends(self, rng):
        pool = SecretPool(random_bitstring(10, rng))
        pool.consume(10)
        extra = random_bitstring(5, rng)
        pool.refuel(extra)
        assert pool.remaining == 5
        assert pool.consume(5) == extra

    def test_draws_across_byte_bounds_match_the_store(self, rng):
        store, extra = random_bitstring(61, rng), random_bitstring(45, rng)
        pool = SecretPool(store)
        pool.refuel(extra)
        whole, at = (store + extra).bits, 0
        for n in (3, 0, 13, 7, 20, 1, 17, 45):
            assert pool.peek().tolist() == whole[at:].tolist()
            assert pool.consume(n).bits.tolist() == whole[at : at + n].tolist()
            at += n
        assert pool.remaining == 0 and pool.peek().size == 0


def test_sync_pools_takes_maximum(rng):
    store = random_bitstring(100, rng)
    for local, remote in ((10, 30), (30, 10), (7, 7)):
        a, b = SecretPool(store), SecretPool(store)
        a.advance_to(local)
        b.advance_to(remote)
        sync_pools(a, b, 100 - max(local, remote))
        assert a.pointer == b.pointer == max(local, remote)
    # too few unused bits after sync: the pointers stop at the sync point
    # and nothing is consumed
    a, b = SecretPool(store), SecretPool(store)
    b.advance_to(30)
    with pytest.raises(PoolExhausted):
        sync_pools(a, b, 71)
    assert a.pointer == b.pointer == 30


class TestRandomness:
    def test_same_seed_same_bits(self):
        a = random_bitstring(128, np.random.default_rng(5))
        b = random_bitstring(128, np.random.default_rng(5))
        assert a == b

    def test_spawned_streams_are_stable(self):
        # child streams must not depend on each other's draw volume
        r1 = np.random.default_rng(9).spawn(3)
        r2 = np.random.default_rng(9).spawn(3)
        r1[0].random(1000)  # extra draws on one child
        assert np.array_equal(r1[2].random(16), r2[2].random(16))


class TestPacking:
    @given(st.integers(1, 63).flatmap(lambda width: st.tuples(
        st.just(width), st.lists(st.integers(0, 2**width - 1), max_size=50))))
    def test_roundtrip(self, width_values):
        # consecutive big-endian fields, each exactly width bits
        width, values = width_values
        packed = pack_uints(values, width)
        assert packed.to01() == "".join(format(v, f"0{width}b") for v in values)
        assert unpack_uints(packed.bits, width).tolist() == values

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_uints([4], 2)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            unpack_uints(BitString.from01("101").bits, 2)


class TestShuffleRank:
    KEYS = (0, 1, 0x5DEECE66D, (1 << 63) - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 257, 4_500, 285_000])
    def test_bijection_onto_the_range(self, n):
        for key in self.KEYS:
            ranks = shuffle_rank(key, n, np.arange(n))
            assert np.array_equal(np.sort(ranks), np.arange(n))

    def test_vectorized_equals_elementwise(self, rng):
        n = 4_500
        positions = rng.choice(n, 300, replace=False)
        for key in self.KEYS:
            ranks = shuffle_rank(key, n, positions)
            assert ranks.tolist() == [int(shuffle_rank(key, n, [i])[0]) for i in positions]

    def test_array_of_keys_equals_one_call_per_key(self, rng):
        # the shape Cascade asks for: every key against every position
        n = 4_500
        positions = rng.choice(n, 300, replace=False)
        ranks = shuffle_rank(np.array(self.KEYS, np.uint64)[:, None], n, positions)
        assert ranks.shape == (len(self.KEYS), 300)
        for key, row in zip(self.KEYS, ranks):
            assert np.array_equal(row, shuffle_rank(key, n, positions))

    @pytest.mark.parametrize("n", [5, 7])
    def test_each_position_lands_uniformly(self, n):
        # the (position, rank) table over 7,000 consecutive keys: each
        # cell within 5 sigma of 7,000 / n
        keys = 7_000
        table = np.zeros((n, n))
        for key in range(keys):
            table[np.arange(n), shuffle_rank(key, n, np.arange(n))] += 1
        p = 1 / n
        assert np.all(np.abs(table - keys * p) <= 5 * np.sqrt(keys * p * (1 - p)))


def _pool(n=16):
    return SecretPool(BitString.zeros(n))


@pytest.mark.parametrize("call, error", [
    (lambda: _pool().consume(-1), ValueError),
    (lambda: _pool().advance_to(17), PoolExhausted),
    (lambda: pack_uints([1], 0), ValueError),
    (lambda: pack_uints([1], 64), ValueError),
    (lambda: pack_uints([[1, 2]], 8), ValueError),
    (lambda: unpack_uints(np.zeros(64, np.uint8), 64), ValueError),
    (lambda: BitString(np.zeros((2, 2), np.uint8)), ValueError),
    (lambda: BitString.zeros(-1), ValueError),
    (lambda: random_bitstring(-1, np.random.default_rng(0)), ValueError),
], ids=["consume-negative", "advance-past-end", "pack-width-0", "pack-width-64",
        "pack-2d", "unpack-width-64", "bitstring-2d", "zeros-negative",
        "random-negative"])
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()
