"""Three-pass mutual identification over a channel the adversary can
read but not usefully jam.

Both parties hold a synchronized stack of secret triads.  A session
burns exactly one triad: the initiator transmits the first part, the
responder answers with the second, the initiator closes with the third.
Each receiver compares what arrived against its own copy and accepts
when the Hamming distance is at most the tolerance k, chosen just above
the expected noise n_is * eps.  A used triad is never reused, even when
the session aborts, so replaying an observed pass is worthless: the
other side has already moved on to the next triad.

An impostor owns no valid triads.  It fabricates (or replays) its
transmissions and blindly accepts whatever it receives, since it has
nothing to check against; the honest party's tolerance test is what
stops it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .budget import tolerance
from .core import (
    BitString,
    PoolExhausted,
    Triad,
    make_rng,
    pointer_sync,
    random_bitstring,
)

__all__ = [
    "Role",
    "IdentOutcome",
    "Protocol1Params",
    "Party1State",
    "Protocol1Result",
    "make_shared_triads",
    "run_protocol1",
    "run_trials",
    "run_sessions",
    "TRIAL_CHUNK",
    "eve_impersonation_frequency",
    "expected_success_probability",
    "impostor_pass_probability",
]


class Role(enum.Enum):
    ALICE = "alice"  # initiator: sends parts 1 and 3
    BOB = "bob"  # responder: sends part 2


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
class Party1State:
    """One side's view: a triad stack and the index of the first unused
    triad.  An impostor (honest=False) carries fabricated triads and
    performs no checks."""

    triads: list[Triad]
    role: Role
    pointer: int = 0
    honest: bool = True

    @property
    def remaining(self) -> int:
        return len(self.triads) - self.pointer

    def next_triad(self) -> Triad:
        if self.pointer >= len(self.triads):
            raise PoolExhausted(
                f"{self.role.value} has no unused identification triads"
            )
        t = self.triads[self.pointer]
        self.pointer += 1
        return t

    def accepts(self, received: BitString, own: BitString, k: int) -> bool:
        if not self.honest:
            return True  # nothing to check against
        return received.hamming(own) <= k


def make_shared_triads(
    n_triads: int, params: Protocol1Params, rng: np.random.Generator
) -> list[Triad]:
    """Fresh random triads; hand the same list object's copies to both
    parties to model an established shared secret."""
    return [
        Triad(
            random_bitstring(params.n_is, rng),
            random_bitstring(params.n_is, rng),
            random_bitstring(params.n_is, rng),
        )
        for _ in range(n_triads)
    ]


@dataclass
class Protocol1Result:
    outcome: IdentOutcome
    distances: dict[int, int]
    alice_pointer: int
    bob_pointer: int
    bits_consumed: int
    transcript: list[tuple[int, str, BitString, bool]] = field(default_factory=list)

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
    noise = (rng.random(len(bits)) < eps).astype(np.uint8)
    return BitString(bits.bits ^ noise)


def run_protocol1(
    alice: Party1State,
    bob: Party1State,
    params: Protocol1Params,
    rng: np.random.Generator | int = 0,
) -> Protocol1Result:
    """One identification session.

    Pointers are synchronized first (both adopt the maximum), then one
    triad is consumed on each side whatever the outcome, and the passes
    run in _PASSES order until one is rejected.  The channel flips each
    bit at the design error rate params.eps.
    """
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)

    synced = pointer_sync(alice.pointer, bob.pointer)
    alice.pointer = synced
    bob.pointer = synced
    if alice.remaining < 1 or bob.remaining < 1:
        raise PoolExhausted("no unused identification triads after sync")

    parties = {"alice": alice, "bob": bob}
    triads = {"alice": alice.next_triad(), "bob": bob.next_triad()}
    transcript: list[tuple[int, str, BitString, bool]] = []
    distances: dict[int, int] = {}
    outcome = IdentOutcome.SUCCESS
    for i, (sender, checker) in enumerate(_PASSES):
        own = triads[checker].parts[i]
        received = _transmit(triads[sender].parts[i], params.eps, rng)
        ok = parties[checker].accepts(received, own, params.k)
        distances[i + 1] = received.hamming(own)
        transcript.append((i + 1, f"{sender[0]}->{checker[0]}".upper(), received, ok))
        if not ok:
            outcome = list(IdentOutcome)[i + 1]
            break
    return Protocol1Result(
        outcome=outcome,
        distances=distances,
        alice_pointer=alice.pointer,
        bob_pointer=bob.pointer,
        bits_consumed=params.triad_bits,
        transcript=transcript,
    )


# Trials simulated per array step, so that a chunk's bits and one pass's
# noise draws stay at about a megabyte whatever n_trials is.
TRIAL_CHUNK = 2048


def _check_run_args(n: int, impostor: str | None) -> None:
    if n < 0:
        raise ValueError("the number of sessions must be non-negative")
    if impostor not in (None, "initiator", "responder"):
        raise ValueError("impostor must be None, 'initiator' or 'responder'")


def run_trials(
    params: Protocol1Params,
    n_trials: int,
    seed: int = 0,
    impostor: str | None = None,
) -> dict[IdentOutcome, int]:
    """Outcome counts over independent single-triad sessions.

    impostor replaces one side ("initiator" or "responder") with a
    fabricating adversary holding no valid triads.  The sessions are
    simulated bit by bit as arrays, TRIAL_CHUNK at a time: every triad
    and fabricated part is drawn, and so is the channel noise of each
    pass an honest party checks; each such pass's Hamming distance is
    taken against the checker's own copy, and a session ends at the
    first pass an honest checker rejects.  The counts follow the
    same law as run_sessions, which plays each session through
    run_protocol1, but not the same draws at a given seed.
    """
    _check_run_args(n_trials, impostor)
    rng = make_rng(seed)
    shape = (3, params.n_is)
    honest = {"alice": impostor != "initiator", "bob": impostor != "responder"}
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
    run_protocol1, each with fresh Party1States and one triad.

    The per-session reference for run_trials, and what
    ``qident protocol1`` runs.
    """
    _check_run_args(n_sessions, impostor)
    rng = make_rng(seed)
    counts = {o: 0 for o in IdentOutcome}
    for _ in range(n_sessions):
        shared = make_shared_triads(1, params, rng)
        if impostor == "initiator":  # an impostor brings random guesses
            alice = Party1State(make_shared_triads(1, params, rng), Role.ALICE, honest=False)
            bob = Party1State(shared, Role.BOB)
        elif impostor == "responder":
            alice = Party1State(shared, Role.ALICE)
            bob = Party1State(make_shared_triads(1, params, rng), Role.BOB, honest=False)
        else:
            alice = Party1State(list(shared), Role.ALICE)
            bob = Party1State(list(shared), Role.BOB)
        result = run_protocol1(alice, bob, params, rng)
        counts[result.outcome] += 1
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
    rng = rng if isinstance(rng, np.random.Generator) else make_rng(rng)
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
    per_pass = float(stats.binom.cdf(params.k, params.n_is, params.eps))
    return per_pass**3


def impostor_pass_probability(params: Protocol1Params) -> float:
    """Chance a fabricated sequence slips under the tolerance of one
    check: the binomial half-chance tail."""
    return float(stats.binom.cdf(params.k, params.n_is, 0.5))
