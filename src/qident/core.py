"""Shared domain types: packed bit strings, the secret pool with a monotone
consumption pointer that both identification protocols draw from, and
the seedable randomness contract used by every simulation in the
package.

Randomness contract: all stochastic code takes a ``numpy.random.Generator``
(PCG64, at least 64 bits of seed state).  Independent concerns inside one
session (channel noise, eavesdropper choices, subset selection, ...) each
draw from their own child of numpy's ``Generator.spawn``, so that adding or
removing one consumer never perturbs the draws seen by another.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QidentError",
    "PoolExhausted",
    "LengthMismatch",
    "BitString",
    "SecretPool",
    "sync_pools",
    "make_rng",
    "random_bitstring",
    "counter_hash",
    "shuffle_rank",
    "strict_ceil",
    "pack_uints",
    "unpack_uints",
]


class QidentError(Exception):
    """Base class for all protocol and analysis errors in this package."""


class PoolExhausted(QidentError):
    """Not enough unused secret bits remain for the requested operation."""


class LengthMismatch(QidentError):
    """Two bit strings that must have equal length do not."""


def strict_ceil(x: float) -> int:
    """Smallest integer strictly greater than x.

    This is the bracket used throughout the tolerance and budget formulas:
    strict_ceil(0.5) == 1, strict_ceil(2.0) == 3.
    """
    return int(math.floor(x)) + 1


class BitString:
    """Immutable bit sequence with an exact length, held packed: eight
    bits a byte, big-endian within it, pad bits zero.  to_bytes and
    from_bytes copy bytes, ==, xor and slices work on the bytes, and
    ``.bits`` unpacks to a read-only uint8 array of 0/1 values.  The
    text form is ``"<len>:<hex>"`` (decimal length prefix so that
    lengths that are not a multiple of 8 round-trip).
    """

    __slots__ = ("_data", "_n")

    def __init__(self, bits=()):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max(initial=0)) > 1:
            raise ValueError("bit values must be 0 or 1")
        self._data, self._n = np.packbits(arr).tobytes(), arr.size

    @classmethod
    def _from_int(cls, value: int, n: int) -> "BitString":
        """The n bits of value below 2**n, the first bit most significant."""
        return cls.from_bytes((value << (-n % 8)).to_bytes((n + 7) // 8, "big"), n)

    def _int(self) -> int:
        return int.from_bytes(self._data, "big") >> (-self._n % 8)

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        if n < 0:
            raise ValueError("length must be non-negative")
        return cls._from_int(0, n)

    @classmethod
    def from_bytes(cls, data: bytes, n_bits: int) -> "BitString":
        """The first n_bits of data, big-endian bit order within bytes."""
        if n_bits < 0 or n_bits > 8 * len(data):
            raise ValueError("bit length does not fit the byte payload")
        out = cls.__new__(cls)
        out._data, out._n = bytes(data[: (n_bits + 7) // 8]), n_bits
        if n_bits % 8:  # the pad bits read as zero
            out._data = out._data[:-1] + bytes([out._data[-1] & 0xFF00 >> n_bits % 8])
        return out

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        """Parse the ``"<len>:<hex>"`` text form; the text must be exactly
        what to_text writes: a decimal length, then lower-case hex of the
        zero-padded bytes."""
        head, _, hexpart = text.partition(":")
        bits = cls.from_bytes(bytes.fromhex(hexpart), int(head))
        if bits.to_text() != text:
            raise ValueError(f"'{text}' is not the canonical text form")
        return bits

    @classmethod
    def from01(cls, s: str) -> "BitString":
        return cls(np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0"))

    # -- views and basics --------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """The bits unpacked to a new read-only uint8 array."""
        arr = np.unpackbits(np.frombuffer(self._data, np.uint8), count=self._n)
        arr.flags.writeable = False
        return arr

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, idx):
        i = range(self._n)[idx]
        if isinstance(i, int):
            return self._data[i >> 3] >> (~i & 7) & 1
        if i.step != 1:
            return BitString(self.bits[idx])
        part = int.from_bytes(self._data[i.start >> 3 : (i.stop + 7) >> 3], "big")
        return BitString._from_int(part >> (-i.stop % 8) & (1 << len(i)) - 1, len(i))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._n == other._n and self._data == other._data

    def __hash__(self):
        return hash((self._n, self._data))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString._from_int(self._int() << other._n | other._int(), self._n + other._n)

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString('{self.to01()}')"
        return f"BitString(len={len(self)}, hex={self.hex()[:16]}...)"

    # -- bit operations ----------------------------------------------

    def count_ones(self) -> int:
        return int.from_bytes(self._data, "big").bit_count()

    def xor(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise LengthMismatch(f"lengths {len(self)} != {len(other)}")
        return BitString._from_int(self._int() ^ other._int(), self._n)

    def hamming(self, other: "BitString") -> int:
        return self.xor(other).count_ones()

    def flipped(self, index: int) -> "BitString":
        """Copy with the bit at index inverted."""
        i = range(self._n)[index]
        return BitString._from_int(self._int() ^ 1 << (self._n - 1 - i), self._n)

    # -- serialization -----------------------------------------------

    def to_bytes(self) -> bytes:
        """The packed bytes, big-endian bit order, zero-padded to a byte."""
        return self._data

    def hex(self) -> str:
        return self._data.hex()

    def to_text(self) -> str:
        return f"{len(self)}:{self.hex()}"

    def to01(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")


class SecretPool:
    """Shared secret bit store consumed strictly left to right.

    The pointer only moves forward, so no stretch of secret material can
    ever be handed out twice.  ``refuel`` appends freshly distilled bits
    to the end of the store, which is one packed BitString.
    """

    def __init__(self, store: BitString):
        self._store = store
        self._pointer = 0

    @property
    def pointer(self) -> int:
        return self._pointer

    @property
    def size(self) -> int:
        return len(self._store)

    @property
    def remaining(self) -> int:
        return self.size - self._pointer

    def consume(self, n: int) -> BitString:
        """Hand out the next n unused bits and advance the pointer."""
        if n < 0:
            raise ValueError("cannot consume a negative number of bits")
        if n > self.remaining:
            raise PoolExhausted(
                f"pool has {self.remaining} unused bits, {n} requested"
            )
        out = self._store[self._pointer : self._pointer + n]
        self._pointer += n
        return out

    def peek(self) -> np.ndarray:
        """The unused bits, unpacked from the bytes they cover; the pointer
        does not move, so a caller that acts on them must consume them."""
        p = self._pointer
        covered = np.frombuffer(self._store.to_bytes(), np.uint8)[p >> 3 :]
        return np.unpackbits(covered)[p & 7 : self.size - (p & ~7)]

    def advance_to(self, pointer: int) -> None:
        """Move the pointer forward to an absolute position (never back)."""
        if pointer < self._pointer:
            raise ValueError(
                f"pointer may not move backwards ({pointer} < {self._pointer})"
            )
        if pointer > self.size:
            raise PoolExhausted(
                f"cannot advance to {pointer}, pool holds {self.size} bits"
            )
        self._pointer = pointer

    def refuel(self, bits: BitString) -> None:
        """Append freshly distilled secret bits to the store."""
        self._store = self._store + bits

    def __repr__(self) -> str:
        return f"SecretPool(size={self.size}, pointer={self._pointer})"


def sync_pools(a: SecretPool, b: SecretPool, need: int) -> None:
    """Conservative pointer reconciliation: both pools advance to the
    larger pointer, sacrificing any stretch the slower side has not used
    yet rather than risking reuse of bits the faster side already
    consumed.  Then raise PoolExhausted, consuming nothing, unless each
    pool holds need unused bits."""
    synced = max(a.pointer, b.pointer)
    a.advance_to(synced)
    b.advance_to(synced)
    if a.remaining < need or b.remaining < need:
        raise PoolExhausted(
            f"pools hold {min(a.remaining, b.remaining)} unused bits "
            f"after sync, {need} needed"
        )


# -- randomness ------------------------------------------------------


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Root generator for a session; seed is a 64-bit unsigned integer."""
    return np.random.default_rng(seed)


def random_bitstring(n: int, rng: np.random.Generator) -> BitString:
    """n independent fair bits."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return BitString(rng.integers(0, 2, size=n, dtype=np.uint8))


def counter_hash(key: int, counters) -> np.ndarray:
    """The splitmix64 finalizer (Steele, Lea & Flood 2014) of
    key + gamma * counter, in uint64 arithmetic mod 2**64: one
    independent-looking 64-bit word per counter under a 64-bit key, so a
    keyed random sequence can be read at any indices without drawing
    the rest of it."""
    z = np.array(counters, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(key)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def shuffle_rank(key, n: int, positions) -> np.ndarray:
    """Rank of each position under the key's permutation of [0, n):
    Black & Rogaway's (2002) generalized Feistel cipher on Z_a x Z_b,
    a = isqrt(n - 1) + 1, b = ceil(n / a), x as (x mod a, x // a).  Round
    r < 8 adds counter_hash(key, r * 2**40 + other half) to one half mod
    its size; a rank of n or more (a * b - n < a) walks on until below n.
    Four rounds left cells 5.5 sigma off uniform at n = 5 over 7,000 keys.
    An array of keys broadcast against positions ranks each under its own."""
    a = math.isqrt(max(n - 1, 0)) + 1
    sizes = (np.uint64(a), np.uint64(-(-n // a)))
    x, keys = np.broadcast_arrays(np.array(positions, np.uint64), np.array(key, np.uint64))
    shape, x, keys = x.shape, x.ravel().copy(), keys.ravel()
    walk = np.arange(x.size)
    while walk.size:
        halves, k = [x[walk] % sizes[0], x[walk] // sizes[0]], keys[walk]
        for r in range(8):
            h = counter_hash(k, np.uint64(r << 40) | halves[~r & 1])
            halves[r & 1] = (halves[r & 1] + h % sizes[r & 1]) % sizes[r & 1]
        x[walk] = halves[0] + sizes[0] * halves[1]
        walk = walk[x[walk] >= n]
    return x.reshape(shape).view(np.int64)


# -- fixed-width integer packing ------------------------------------


def pack_uints(values, width: int) -> BitString:
    """Pack unsigned integers as consecutive width-bit big-endian fields."""
    if not 1 <= width <= 63:
        raise ValueError("width must be in 1..63")
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if vals.size and (int(vals.min(initial=0)) < 0 or int(vals.max(initial=0)) >> width):
        raise ValueError(f"values do not fit in {width} bits")
    rows = np.unpackbits(vals.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return BitString(rows[:, 64 - width :].ravel())


def unpack_uints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_uints on a 0/1 array; its length must be a
    multiple of width."""
    if not 1 <= width <= 63:
        raise ValueError("width must be in 1..63")
    if bits.size % width:
        raise ValueError(f"bit length {bits.size} is not a multiple of {width}")
    rows = np.zeros((bits.size // width, 64), np.uint8)
    rows[:, 64 - width :] = bits.reshape(-1, width)
    return np.packbits(rows, axis=1).view(">u8").ravel().astype(np.int64)
