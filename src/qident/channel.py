"""Monte-Carlo model of the lossy quantum channel used for refuelling.

One run sends n_pulses weak coherent pulses at the operating point of
a BudgetParams.  Alice sends a uniform bit and basis per pulse; Bob
draws a basis and detects each pulse with probability
1 - exp(-eta * mu).  Detected pulses where the bases match form the
sifted set; matched detections flip with the intrinsic error rate,
mismatched detections yield a fair coin.

Draw layout.  Alice, Bob and Eve each get a child stream of one seed.
Detection does not depend on Eve in this model, so Bob's stream first
draws the detected positions, as cumulative geometric gaps trimmed at
n_pulses (exact for independent Bernoulli detections), and then his
basis, noise and coin at those positions only; Eve's stream draws her
choices there too.  Alice's stream draws one key, and her bit and basis
at a pulse are two bits of core.counter_hash(key, pulse): defined at
every pulse, the same however many others are read, and never drawn in
full.  Passive eavesdropping therefore leaves Bob's view bit-identical
to a clean run at the same seed, and nothing of pulse length is drawn.

Eavesdropper models:

* NONE - clean channel.
* INTERCEPT_RESEND - Eve measures a fraction of pulses in random bases
  and resends what she saw.  Resent pulses picked up in the wrong basis
  give Bob a fair coin, so a full intercept adds 25 percentage points of
  sifted error.
* BEAMSPLIT - passive multi-photon tap.  No disturbance; each sifted bit
  is known to Eve with probability fraction * mu / (4 * eta_tl), capped
  at one: the multi-photon share that the line loss hands an adversary
  sitting at the transmitter output.

In every model what Eve knows is one mask over Bob's detections,
QkdRun.eve_known.  Per-bit guessing is analysed in budget, not here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .budget import BudgetParams
from .core import counter_hash

__all__ = [
    "EveStrategy",
    "EveParams",
    "detection_probability",
    "expected_sifted_count",
    "QkdRun",
    "run_qkd",
    "write_transcript_csv",
]


class EveStrategy(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"
    BEAMSPLIT = "beamsplit"


@dataclass(frozen=True)
class EveParams:
    """Adversary model for one run.

    fraction: share of pulses intercepted (INTERCEPT_RESEND) or share of
    the multi-photon tap exploited (BEAMSPLIT).
    """

    strategy: EveStrategy = EveStrategy.NONE
    fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")


def detection_probability(params: BudgetParams) -> float:
    """Poissonian click probability 1 - exp(-eta * mu)."""
    return -math.expm1(-params.eta * params.mu)


def expected_sifted_count(params: BudgetParams) -> float:
    """Half the expected detections survive basis sifting."""
    return 0.5 * params.n_pulses * detection_probability(params)


def _alice_values(key: int, pulses) -> tuple[np.ndarray, np.ndarray]:
    """Alice's (bits, bases) at the given pulse indices: the top two bits
    of counter_hash(key, pulse)."""
    top = (counter_hash(key, pulses) >> np.uint64(62)).astype(np.uint8)
    return top >> 1, top & 1


def _detections(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted pulse indices in [0, n) of independent Bernoulli(p) events:
    cumulative Geometric(p) gaps, drawn in blocks until they pass n.  A
    gap is capped at n + 1, which passes n all the same, so that a tiny
    p cannot overflow the sum."""
    block = int(n * p + 6.0 * math.sqrt(n * p) + 16)
    chunks, last = [], -1
    while last < n:
        chunk = rng.geometric(p, block)
        np.minimum(chunk, n + 1, out=chunk)
        np.cumsum(chunk, out=chunk)
        chunk += last
        chunks.append(chunk)
        last = int(chunk[-1])
    pos = np.concatenate(chunks)
    return pos[: np.searchsorted(pos, n)]


@dataclass(eq=False, repr=False)
class QkdRun:
    """Transcript of one simulated run, held at Bob's detections.

    detected holds the sorted pulse indices Bob detected and sifted the
    indices of detections where the bases match; every other array has
    one entry per detection, eve_known marking the ones whose bit Eve
    knows outright.  Alice's values at any pulse, detected or not, are
    alice_at(pulses).  Runs compare by identity.
    """

    params: BudgetParams
    alice_key: int
    detected: np.ndarray
    bob_bases: np.ndarray
    bob_bits: np.ndarray
    eve_known: np.ndarray
    sifted: np.ndarray

    def alice_at(self, pulses) -> tuple[np.ndarray, np.ndarray]:
        return _alice_values(self.alice_key, pulses)

    @property
    def n_detected(self) -> int:
        return int(self.detected.size)

    @property
    def n_sifted(self) -> int:
        return int(self.sifted.size)

    @property
    def error_count(self) -> int:
        idx = self.sifted
        return int((self.alice_at(self.detected[idx])[0] != self.bob_bits[idx]).sum())

    @property
    def error_rate(self) -> float:
        if self.n_sifted == 0:
            return 0.0
        return self.error_count / self.n_sifted

    def eve_information_bits(self) -> float:
        """Adversary knowledge of the sifted string, in bits."""
        return float(self.eve_known[self.sifted].sum())


def run_qkd(
    params: BudgetParams,
    seed: int | np.random.Generator = 0,
    eve: EveParams = EveParams(),
) -> QkdRun:
    """Simulate one run of params.n_pulses pulses.

    Alice, Bob and Eve each get their own child stream (see the module
    docstring), so Bob's arrays for a given seed are identical under
    NONE and BEAMSPLIT, and identification-side results never depend on
    whether a passive adversary was modelled.  eve_known marks the
    detections Eve tapped, or intercepted in Alice's basis.

    The intrinsic error rate params.eps must lie below 1/2, where a
    channel still carries information; BudgetParams itself admits
    [0, 1) for the closed-form analysis.
    """
    if params.eps >= 0.5:
        raise ValueError(f"channel error rate eps={params.eps} must lie below 1/2")
    rng_alice, rng_bob, rng_eve = np.random.default_rng(seed).spawn(3)

    alice_key = int(rng_alice.integers(1 << 63))
    detected = _detections(params.n_pulses, detection_probability(params), rng_bob)
    m = detected.size
    alice_bits, alice_bases = _alice_values(alice_key, detected)

    bob_bases = rng_bob.integers(0, 2, m, dtype=np.uint8)
    u_noise = rng_bob.random(m)
    coin = rng_bob.integers(0, 2, m, dtype=np.uint8)
    matched = alice_bases == bob_bases

    # matched detections are Alice's bit plus intrinsic noise;
    # mismatched detections are a fair coin
    flip = u_noise < params.eps
    bob_bits = np.where(matched, alice_bits ^ flip, coin)

    eve_known = np.zeros(m, dtype=bool)
    if eve.strategy is EveStrategy.INTERCEPT_RESEND:
        intercepted = rng_eve.random(m) < eve.fraction
        eve_bases = rng_eve.integers(0, 2, m, dtype=np.uint8)
        # Eve resends in her basis: when it matches Alice's she knows the
        # bit, else Bob's matched-basis outcome is a fair coin (reuse the
        # noise draw as the coin: flip Alice's bit at 1/2)
        eve_known = intercepted & (eve_bases == alice_bases)
        garbled = intercepted & ~eve_known & matched
        bob_bits = np.where(garbled, alice_bits ^ (u_noise < 0.5), bob_bits)
    elif eve.strategy is EveStrategy.BEAMSPLIT:
        # a tap probability above one (a very lossy line) taps every pulse
        eve_known = rng_eve.random(m) < eve.fraction * params.mu / (4.0 * params.eta_tl)

    return QkdRun(
        params=params,
        alice_key=alice_key,
        detected=detected,
        bob_bases=bob_bases,
        bob_bits=bob_bits,
        eve_known=eve_known,
        sifted=np.flatnonzero(matched),
    )


# Each dump row after its pulse number, indexed by alice_bit, alice_basis,
# bob_basis, detected and bob_bit read as one binary number; Bob's basis
# and bit are blank when the pulse went undetected.
_ROW_TAILS = np.array([
    f",{c >> 4},{c >> 3 & 1},{c >> 2 & 1 if c & 2 else ''},{c >> 1 & 1},"
    f"{c & 1 if c & 2 else ''}\n"
    for c in range(32)
])
# Pulses formatted per step, so that a full-scale dump stays at a few MB.
_DUMP_CHUNK = 1 << 16


def write_transcript_csv(run: QkdRun, fp) -> None:
    """Per-pulse debug CSV: pulse, alice_bit, alice_basis, bob_basis,
    detected, bob_bit.  Alice's columns are regenerated pulse by pulse
    from her key."""
    fp.write("pulse,alice_bit,alice_basis,bob_basis,detected,bob_bit\n")
    n, det = run.params.n_pulses, run.detected
    for start in range(0, n, _DUMP_CHUNK):
        pulses = np.arange(start, min(start + _DUMP_CHUNK, n))
        bits, bases = run.alice_at(pulses)
        code = bits << 4 | bases << 3
        lo, hi = np.searchsorted(det, [start, start + pulses.size])
        code[det[lo:hi] - start] |= 2 | run.bob_bases[lo:hi] << 2 | run.bob_bits[lo:hi]
        tails = _ROW_TAILS[code]
        fp.write("".join(np.strings.add(pulses.astype(str), tails).tolist()))
