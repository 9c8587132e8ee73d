"""Shared domain types: bit strings, identification-sequence triads, secret
pools with monotone consumption pointers, and the seedable randomness
contract used by every simulation in the package.

Randomness contract: all stochastic code takes a ``numpy.random.Generator``
(PCG64, at least 64 bits of seed state).  Independent concerns inside one
session (channel noise, eavesdropper choices, subset selection, ...) each
get their own child stream via ``spawn_streams`` so that adding or removing
one consumer never perturbs the draws seen by another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QidentError",
    "PoolExhausted",
    "LengthMismatch",
    "BitString",
    "Triad",
    "SecretPool",
    "pointer_sync",
    "make_rng",
    "spawn_streams",
    "random_bitstring",
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
        """Parse the ``"<len>:<hex>"`` text form."""
        head, _, hexpart = text.strip().partition(":")
        n = int(head)
        data = bytes.fromhex(hexpart)
        return cls.from_bytes(data, n)

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


@dataclass(frozen=True)
class Triad:
    """One identification-sequence triple shared by two parties.

    is1 and is3 are transmitted by the initiator, is2 by the responder.
    All three parts must have equal length.
    """

    is1: BitString
    is2: BitString
    is3: BitString

    def __post_init__(self):
        if not (len(self.is1) == len(self.is2) == len(self.is3)):
            raise LengthMismatch(
                "triad parts differ in length: "
                f"{len(self.is1)}, {len(self.is2)}, {len(self.is3)}"
            )

    @property
    def n_is(self) -> int:
        return len(self.is1)

    @property
    def parts(self) -> tuple[BitString, BitString, BitString]:
        return self.is1, self.is2, self.is3


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


def pointer_sync(local: int, remote: int) -> int:
    """Conservative pointer reconciliation: both sides adopt the maximum,

    sacrificing any stretch the slower side has not used yet rather than
    risking reuse of bits the faster side already consumed.
    """
    if local < 0 or remote < 0:
        raise ValueError("pointers must be non-negative")
    return max(local, remote)


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
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8)
    return BitString(bits.ravel())


def unpack_uints(bits: BitString, width: int) -> np.ndarray:
    """Inverse of pack_uints; the bit length must be a multiple of width."""
    if not 1 <= width <= 63:
        raise ValueError("width must be in 1..63")
    if len(bits) % width:
        raise ValueError(f"bit length {len(bits)} is not a multiple of {width}")
    arr = bits.bits.reshape(-1, width).astype(np.int64)
    weights = (np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64))
    return arr @ weights
