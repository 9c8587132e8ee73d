"""Three-pass mutual identification over a channel the adversary can
read but not usefully jam.

Both parties hold a synchronized SecretPool, the same store that
protocol 2 draws its keys from.  A session burns exactly 3 * n_is bits
from each pool, read in order as parts 1, 2 and 3: the initiator
transmits the first part, the responder answers with the second, the
initiator closes with the third.  Each receiver compares what arrived
against its own copy and accepts when the Hamming distance is at most
the tolerance k, chosen just above the expected noise n_is * eps.  Used
bits are never reused, even when the session aborts, so replaying an
observed pass is worthless: the other side has already moved on to the
next bits.

An impostor shares no pool.  It fabricates (or replays) its
transmissions and blindly accepts whatever it receives, since it has
nothing to check against; the honest party's tolerance test is what
stops it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

from .budget import tolerance
from .core import BitString, SecretPool, random_bitstring, sync_pools

__all__ = [
    "IdentOutcome",
    "Protocol1Params",
    "Protocol1Result",
    "run_protocol1",
    "run_trials",
    "run_sessions",
    "TRIAL_CHUNK",
    "IMPOSTORS",
    "eve_impersonation_frequency",
    "expected_success_probability",
    "impostor_pass_probability",
]


class IdentOutcome(enum.Enum):
    SUCCESS = "success"
    ABORT_PASS1 = "abort-pass1"
    ABORT_PASS2 = "abort-pass2"
    ABORT_PASS3 = "abort-pass3"


@dataclass(frozen=True)
class Protocol1Params:
    """Sequence length and design channel error rate."""

    n_is: int = 50
    eps: float = 0.01

    def __post_init__(self):
        if self.n_is < 1:
            raise ValueError("n_is must be positive")
        if not 0.0 <= self.eps < 0.5:
            raise ValueError("eps must lie in [0, 0.5)")

    @property
    def k(self) -> int:
        """Accept at Hamming distance up to k, the smallest integer
        strictly above the expected noise."""
        return tolerance(self.n_is, self.eps)

    @property
    def triad_bits(self) -> int:
        return 3 * self.n_is


@dataclass
class Protocol1Result:
    outcome: IdentOutcome
    distances: dict[int, int]
    transcript: list[tuple[int, str, BitString, bool]]

    @property
    def success(self) -> bool:
        return self.outcome is IdentOutcome.SUCCESS


# (sender, checker) of passes 1, 2 and 3; the checker compares what
# arrived with its own copy of that part.
_PASSES = (("alice", "bob"), ("bob", "alice"), ("alice", "bob"))


def _transmit(
    bits: BitString, eps: float, rng: np.random.Generator
) -> BitString:
    """Binary symmetric channel: each bit flips independently at eps."""
    if eps <= 0.0:
        return bits
    return bits.xor(BitString(rng.random(len(bits)) < eps))


IMPOSTORS = ("initiator", "responder")  # the sides an impostor may take


def _honest_sides(impostor: str | None) -> dict[str, bool]:
    """Which sides check what they receive; an impostor checks nothing."""
    if impostor not in (None, *IMPOSTORS):
        raise ValueError(f"impostor must be None or one of {', '.join(IMPOSTORS)}")
    return {"alice": impostor != "initiator", "bob": impostor != "responder"}


def _check_run_args(n: int, impostor: str | None) -> dict[str, bool]:
    if n < 0:
        raise ValueError("the number of sessions must be non-negative")
    return _honest_sides(impostor)


def run_protocol1(
    alice: SecretPool,
    bob: SecretPool,
    params: Protocol1Params,
    rng: np.random.Generator | int = 0,
    impostor: str | None = None,
) -> Protocol1Result:
    """One identification session between the initiator's pool alice
    and the responder's pool bob.

    The pools are synchronized first, then params.triad_bits bits are
    consumed from each whatever the outcome, and the passes run in
    _PASSES order until one is rejected.  impostor ("initiator" or
    "responder") names a side that checks nothing.  The channel flips
    each bit at the design error rate params.eps.
    """
    honest = _honest_sides(impostor)
    rng = np.random.default_rng(rng)
    sync_pools(alice, bob, params.triad_bits)
    n = params.n_is
    bits = {"alice": alice.consume(params.triad_bits),
            "bob": bob.consume(params.triad_bits)}
    transcript: list[tuple[int, str, BitString, bool]] = []
    distances: dict[int, int] = {}
    outcome = IdentOutcome.SUCCESS
    for i, (sender, checker) in enumerate(_PASSES):
        own = bits[checker][i * n : (i + 1) * n]
        received = _transmit(bits[sender][i * n : (i + 1) * n], params.eps, rng)
        distances[i + 1] = received.hamming(own)
        ok = not honest[checker] or distances[i + 1] <= params.k
        transcript.append((i + 1, f"{sender[0]}->{checker[0]}".upper(), received, ok))
        if not ok:
            outcome = list(IdentOutcome)[i + 1]
            break
    return Protocol1Result(outcome=outcome, distances=distances, transcript=transcript)


# Trials simulated per array step, so that a chunk's bits and one pass's
# noise draws stay at about a megabyte whatever n_trials is.
TRIAL_CHUNK = 2048


def run_trials(
    params: Protocol1Params,
    n_trials: int,
    seed: int = 0,
    impostor: str | None = None,
) -> dict[IdentOutcome, int]:
    """Outcome counts over independent single-triad sessions.

    impostor replaces one side ("initiator" or "responder") with a
    fabricating adversary that shares no pool.  The sessions are
    simulated bit by bit as arrays, TRIAL_CHUNK at a time: every triad
    and fabricated part is drawn, and so is the channel noise of each
    pass an honest party checks; each such pass's Hamming distance is
    taken against the checker's own copy, and a session ends at the
    first pass an honest checker rejects.  The counts follow the
    same law as run_sessions, which plays each session through
    run_protocol1, but not the same draws at a given seed.
    """
    honest = _check_run_args(n_trials, impostor)
    rng = np.random.default_rng(seed)
    shape = (3, params.n_is)
    tally = np.zeros(len(IdentOutcome), dtype=np.int64)
    for done in range(0, n_trials, TRIAL_CHUNK):
        m = min(TRIAL_CHUNK, n_trials - done)
        shared = rng.integers(0, 2, size=(m, *shape), dtype=np.uint8)
        fake = None if impostor is None else rng.integers(
            0, 2, size=(m, *shape), dtype=np.uint8)
        parts = {side: shared if ok else fake for side, ok in honest.items()}
        rejected = np.zeros((m, 3), dtype=bool)
        for i, (sender, checker) in enumerate(_PASSES):
            if honest[checker]:  # an impostor accepts anything
                flips = rng.random((m, params.n_is)) < params.eps
                received = parts[sender][:, i] ^ flips
                dist = np.count_nonzero(received != parts[checker][:, i], axis=1)
                rejected[:, i] = dist > params.k
        # outcome index: 0 for SUCCESS, else 1 + the first rejected pass
        first = np.where(rejected.any(axis=1), rejected.argmax(axis=1) + 1, 0)
        tally += np.bincount(first, minlength=len(IdentOutcome))
    return {o: int(c) for o, c in zip(IdentOutcome, tally)}


def run_sessions(
    params: Protocol1Params,
    n_sessions: int,
    seed: int = 0,
    impostor: str | None = None,
) -> dict[IdentOutcome, int]:
    """Outcome counts of n_sessions played one at a time through
    run_protocol1, each between fresh pools that hold one triad's bits.

    The per-session reference for run_trials, and what
    ``qident protocol1`` runs.
    """
    _check_run_args(n_sessions, impostor)
    rng = np.random.default_rng(seed)

    def triad() -> BitString:  # three parts, drawn one at a time
        is1, is2, is3 = (random_bitstring(params.n_is, rng) for _ in range(3))
        return is1 + is2 + is3

    counts = {o: 0 for o in IdentOutcome}
    for _ in range(n_sessions):
        shared = triad()
        fake = triad() if impostor else shared  # an impostor's random guesses
        alice = SecretPool(fake if impostor == "initiator" else shared)
        bob = SecretPool(fake if impostor == "responder" else shared)
        counts[run_protocol1(alice, bob, params, rng, impostor).outcome] += 1
    return counts


def eve_impersonation_frequency(
    eve_bit_probs,
    params: Protocol1Params,
    n_trials: int,
    rng: np.random.Generator | int = 0,
) -> float:
    """Monte-Carlo success frequency of impersonating one sequence.

    In each of n_trials attempts Eve guesses each of the n_is bits
    independently, bit i correctly with probability eve_bit_probs[i],
    and succeeds when at most params.k guesses are wrong.  The attempts
    are drawn TRIAL_CHUNK rows at a time.
    """
    rng = np.random.default_rng(rng)
    probs = np.asarray(eve_bit_probs, dtype=float)
    if probs.ndim != 1 or probs.size != params.n_is:
        raise ValueError(f"need exactly {params.n_is} per-bit probabilities")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails both
        raise ValueError("probabilities must lie in [0, 1]")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    k = params.k
    hits = 0
    for done in range(0, n_trials, TRIAL_CHUNK):
        m = min(TRIAL_CHUNK, n_trials - done)
        wrong_counts = (rng.random((m, params.n_is)) >= probs).sum(axis=1)
        hits += int((wrong_counts <= k).sum())
    return hits / n_trials


def expected_success_probability(params: Protocol1Params) -> float:
    """Honest-case success rate: all three passes survive the noise."""
    per_pass = float(special.bdtr(params.k, params.n_is, params.eps))
    return per_pass**3


def impostor_pass_probability(params: Protocol1Params) -> float:
    """Chance a fabricated sequence slips under the tolerance of one
    check: the binomial half-chance tail."""
    return float(special.bdtr(params.k, params.n_is, 0.5))
