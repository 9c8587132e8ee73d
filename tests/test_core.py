"""Domain-type behaviour: bit strings, pools, pointers, packing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident.core import (
    BitString,
    LengthMismatch,
    PoolExhausted,
    SecretPool,
    make_rng,
    pack_uints,
    random_bitstring,
    spawn_streams,
    strict_ceil,
    sync_pools,
    unpack_uints,
)


class TestStrictCeil:
    def test_strictly_above(self):
        # the bracket picks the smallest integer strictly greater
        assert strict_ceil(0.5) == 1
        assert strict_ceil(2.0) == 3
        assert strict_ceil(-0.5) == 0
        assert strict_ceil(22.575) == 23

    @given(st.floats(-1e6, 1e6))
    def test_property(self, x):
        c = strict_ceil(x)
        assert c > x
        assert c - 1 <= x


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

    def test_refuel_appends(self, rng):
        pool = SecretPool(random_bitstring(10, rng))
        pool.consume(10)
        extra = random_bitstring(5, rng)
        pool.refuel(extra)
        assert pool.remaining == 5
        assert pool.consume(5) == extra


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
        a = random_bitstring(128, make_rng(5))
        b = random_bitstring(128, make_rng(5))
        assert a == b

    def test_spawned_streams_are_stable(self):
        # child streams must not depend on each other's draw volume
        r1 = spawn_streams(make_rng(9), 3)
        r2 = spawn_streams(make_rng(9), 3)
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
