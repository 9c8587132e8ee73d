"""Shared domain types: bit strings, the secret pool with a monotone
consumption pointer that both identification protocols draw from, and
the seedable randomness contract used by every simulation in the
package.

Randomness contract: all stochastic code takes a ``numpy.random.Generator``
(PCG64, at least 64 bits of seed state).  Independent concerns inside one
session (channel noise, eavesdropper choices, subset selection, ...) each
get their own child stream via ``spawn_streams`` so that adding or removing
one consumer never perturbs the draws seen by another.
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
    "spawn_streams",
    "random_bitstring",
    "counter_hash",
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
    """Immutable bit sequence with an exact length.

    Bits are held as a read-only numpy uint8 array of 0/1 values, one bit
    per element.  Serialized forms use big-endian bit order within bytes.
    The text form is ``"<len>:<hex>"`` (decimal length prefix so that
    lengths that are not a multiple of 8 round-trip).
    """

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max(initial=0)) > 1:
            raise ValueError("bit values must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self._bits = arr

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        if n < 0:
            raise ValueError("length must be non-negative")
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_bytes(cls, data: bytes, n_bits: int) -> "BitString":
        """Unpack n_bits from data, big-endian bit order within bytes."""
        if n_bits < 0 or n_bits > 8 * len(data):
            raise ValueError("bit length does not fit the byte payload")
        arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n_bits)
        return cls(arr)

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
        """Read-only uint8 view of the bits."""
        return self._bits

    def __len__(self) -> int:
        return int(self._bits.size)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return BitString(self._bits[idx])
        return int(self._bits[idx])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(
            np.array_equal(self._bits, other._bits)
        )

    def __hash__(self):
        return hash((self._bits.size, self.to_bytes()))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(np.concatenate([self._bits, other._bits]))

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString('{self.to01()}')"
        return f"BitString(len={len(self)}, hex={self.hex()[:16]}...)"

    # -- bit operations ----------------------------------------------

    def count_ones(self) -> int:
        return int(self._bits.sum())

    def xor(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise LengthMismatch(f"xor lengths {len(self)} != {len(other)}")
        return BitString(self._bits ^ other._bits)

    def hamming(self, other: "BitString") -> int:
        if len(self) != len(other):
            raise LengthMismatch(f"hamming lengths {len(self)} != {len(other)}")
        return int(np.count_nonzero(self._bits != other._bits))

    def flipped(self, index: int) -> "BitString":
        """Copy with the bit at index inverted."""
        arr = self._bits.copy()
        arr[index] ^= 1
        return BitString(arr)

    # -- serialization -----------------------------------------------

    def to_bytes(self) -> bytes:
        """Pack to bytes, big-endian bit order, zero-padded to a byte."""
        return np.packbits(self._bits).tobytes()

    def hex(self) -> str:
        return self.to_bytes().hex()

    def to_text(self) -> str:
        return f"{len(self)}:{self.hex()}"

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)


class SecretPool:
    """Shared secret bit store consumed strictly left to right.

    The pointer only moves forward, so no stretch of secret material can
    ever be handed out twice.  ``refuel`` appends freshly distilled bits
    to the end of the store.
    """

    def __init__(self, store: BitString):
        self._store = np.array(store.bits, dtype=np.uint8)
        self._pointer = 0

    @property
    def pointer(self) -> int:
        return self._pointer

    @property
    def size(self) -> int:
        return int(self._store.size)

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
        out = BitString(self._store[self._pointer : self._pointer + n])
        self._pointer += n
        return out

    def peek(self) -> np.ndarray:
        """Read-only view of the unused bits; the pointer does not move,
        so a caller that acts on them must consume them."""
        view = self._store[self._pointer :]
        view.flags.writeable = False
        return view

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
        self._store = np.concatenate([self._store, bits.bits])

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


def spawn_streams(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split n statistically independent child streams off a generator."""
    return rng.spawn(n)


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
