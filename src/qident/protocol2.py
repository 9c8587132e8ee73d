"""Mutual identification with secret-key refuelling over a public channel.

One session consumes part of the shared secret pool to authenticate
three classical messages about a fresh quantum transmission, and - when
the estimated error rate is acceptable - distils the remaining sifted
bits into new shared secret that is appended to both pools.

Message flow (kinds in parentheses; B is the photon receiver):

    B -> A  POSITIONS (1)        2s detected positions, authenticated
    A -> B  BASES_AND_BITS (2)   A's basis and bit at each, authenticated
    B -> A  FINAL_VERDICT (3)    accept flag + mismatch count k, authenticated
    B -> A  BASIS_ANNOUNCE (5)   detection count, the gaps between B's
                                 detected positions as bytes, then his
                                 basis at each detection
    A -> B  COINCIDENCE (6)      basis-match mask over the detections
            (interactive parity error correction, in process)
    A -> B  PA_SEED (7)          diagonal of the final compression hash, one
                                 bit fewer than the key; A hashes with the one
                                 she drew, B with the one received
    either  ABORT (4)

Identification is mutual: each party proves possession of the pool by
authenticating at least one message, and every verification failure
aborts the session, as does a frame that does not parse or arrives as
another kind than was sent.  Authentication keys are sized from
budget.message_bit_lengths and drawn from the pool in message order by
both parties alike, and a key is consumed even when the message it
protects is rejected, so no key is ever reused.

Error estimation: B samples 2s detected positions blind to basis
matching; A discloses her basis and bit for each; B counts k mismatches
among the s_real basis-matched ones and accepts when k / s_real is at
most the Bayesian limit for a sample of s_real.  A repeats the same
threshold test once the basis announcement lets her count s_real
herself; a failed re-check (or any tampering with the unauthenticated
plumbing, kinds 5-7) can only spoil the refuelling, never forge an
identification.

Error correction is a four-pass Cascade and then random-subset
verification, with the error rate hint max(k, 3) / s_real.  Its leakage
charges each parity it discloses exactly once (see error_correct).

The refuelled key length is the distilled-key budget evaluated at the
estimated error rate, less any error-correction leakage beyond what the
budget's corrected length allows for; refuelling is refused when that
is non-positive or exceeds the actually available sifted bits minus
error-correction leakage.

Wire format: 1 byte kind, 4-byte big-endian payload bit count, payload
zero-padded to whole bytes, then an 8-byte big-endian tag below 2**61 - 1
on kinds 1-3.  BASIS_ANNOUNCE is a 32-bit detection count m, a gap per
detection (position less the one before, the first from -1; a gap of
255q + r is q escape bytes of 255, then r) and the m bases: O(m) to build
and parse, and capped by the 32-bit bit count at ~4.7e8 detections.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sfft

from . import auth, budget
from .budget import (
    BudgetParams,
    corrected_len,
    distilled_len,
    expected_sifted_len,
    position_bits,
)
from .channel import EveParams, EveStrategy, run_qkd
from .core import (
    BitString,
    QidentError,
    SecretPool,
    counter_hash,
    pack_uints,
    random_bitstring,
    shuffle_rank,
    sync_pools,
    unpack_uints,
)
from .estimation import NoSolution, solve_eps_limit

__all__ = [
    "MsgKind",
    "WireMessage",
    "WireFormatError",
    "InsufficientDetections",
    "AdversaryScript",
    "Protocol2Result",
    "default_pool_bits",
    "select_subset_positions",
    "compute_out_len",
    "error_correct",
    "privacy_amplify",
    "sifting_mitm_script",
    "run_protocol2",
]


class MsgKind(enum.IntEnum):
    POSITIONS = 1
    BASES_AND_BITS = 2
    FINAL_VERDICT = 3
    ABORT = 4
    BASIS_ANNOUNCE = 5
    COINCIDENCE = 6
    PA_SEED = 7


AUTHENTICATED_KINDS = (MsgKind.POSITIONS, MsgKind.BASES_AND_BITS, MsgKind.FINAL_VERDICT)
TAG_BYTES = 8  # the tag field of an authenticated frame


class WireFormatError(QidentError):
    """Byte stream is not a well-formed wire message."""


class InsufficientDetections(QidentError):
    """Fewer detections than the error-estimation sample needs."""


@dataclass(frozen=True)
class WireMessage:
    kind: MsgKind
    payload: BitString
    tag: int | None = None

    def __post_init__(self):
        if (self.tag is not None) != (self.kind in AUTHENTICATED_KINDS):
            raise ValueError(f"kind {self.kind} has wrong tag presence")

    def to_bytes(self) -> bytes:
        """Any tag that fits the 8-byte field is written, so that a
        tamper hook can put an out-of-range tag on the wire."""
        head = bytes([self.kind]) + len(self.payload).to_bytes(4, "big")
        body = self.payload.to_bytes()
        tail = b"" if self.tag is None else int(self.tag).to_bytes(TAG_BYTES, "big")
        return head + body + tail

    @classmethod
    def from_bytes(cls, data: bytes) -> "WireMessage":
        if len(data) < 5:
            raise WireFormatError("truncated header")
        try:
            kind = MsgKind(data[0])
        except ValueError:
            raise WireFormatError(f"unknown message kind {data[0]}") from None
        n_bits = int.from_bytes(data[1:5], "big")
        n_body = (n_bits + 7) // 8
        n_tag = TAG_BYTES if kind in AUTHENTICATED_KINDS else 0
        if len(data) != 5 + n_body + n_tag:
            raise WireFormatError("length field disagrees with frame size")
        if n_bits % 8 and data[4 + n_body] & (0xFF >> n_bits % 8):
            raise WireFormatError("nonzero padding bits")
        payload = BitString.from_bytes(data[5 : 5 + n_body], n_bits)
        tag = int.from_bytes(data[5 + n_body :], "big") if n_tag else None
        if n_tag and tag >= auth.M61:
            raise WireFormatError("tag exceeds the production modulus")
        return cls(kind, payload, tag)


@dataclass(frozen=True)
class AdversaryScript:
    """Complete adversary for one session: a quantum-channel model plus
    an optional classical tamper hook that may rewrite any wire message
    in transit (returning None leaves the message alone)."""

    eve: EveParams = EveParams()
    tamper: object | None = None
    name: str = ""


# -- pool sizing and sampling --------------------------------------------


def default_pool_bits(n_pulses: int, s: int) -> int:
    """Initial pool size used when the caller does not specify one:
    planned consumption plus eight words of rejection slack."""
    return budget.planned_key_consumption(n_pulses, s) + 8 * auth.WORD_BITS


def select_subset_positions(
    n_detected: int, two_s: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sorted sample of two_s detection indices, drawn blind to
    basis matching.  Raises InsufficientDetections when the run produced
    fewer than two_s of its n_detected detections."""
    if n_detected < two_s:
        raise InsufficientDetections(
            f"{n_detected} detections cannot seed a {two_s}-position sample"
        )
    return np.sort(rng.choice(n_detected, size=two_s, replace=False))


# -- payload builders / parsers ----------------------------------------


def _parse_positions(payload: BitString, w: int, n_pulses: int) -> np.ndarray:
    pos = unpack_uints(payload.bits, w)
    if pos.size and (pos.max() >= n_pulses or np.any(np.diff(pos) <= 0)):
        raise WireFormatError("sample positions not strictly increasing in range")
    return pos


def _build_verdict(accept: bool, k: int) -> BitString:
    # accept flag, 15 reserved zero bits, k
    return pack_uints([int(accept) << 31 | k], 32)


def _parse_verdict(payload: BitString) -> tuple[bool, int]:
    if payload.bits[1:16].any():
        raise WireFormatError("verdict reserved bits must be zero")
    return bool(payload[0]), int(unpack_uints(payload.bits[16:], 16)[0])


def _build_announce(detected: np.ndarray, bases: np.ndarray) -> BitString:
    """The BASIS_ANNOUNCE payload (see the module docstring) of sorted
    detected positions; its bases start on a byte."""
    gaps = np.diff(detected, prepend=-1)
    big = np.flatnonzero(gaps >= 255)
    q, gaps[big] = np.divmod(gaps[big], 255)
    gaps = np.insert(gaps.astype(np.uint8), np.repeat(big, q), 255)
    data = detected.size.to_bytes(4, "big") + gaps.tobytes() + np.packbits(bases).tobytes()
    return BitString.from_bytes(data, 32 + 8 * gaps.size + detected.size)


def _parse_announce(payload: BitString, n_pulses: int) -> tuple[np.ndarray, np.ndarray]:
    """(detected positions, bases there) from a BASIS_ANNOUNCE payload, in
    O(m).  A count that disagrees with the frame length or the gaps, a
    final escape or positions not strictly increasing below n_pulses
    raise WireFormatError."""
    data = payload.to_bytes()
    m = int.from_bytes(data[:4], "big") if len(payload) >= 32 else -1
    n_gap, odd = divmod(len(payload) - 32 - m, 8)
    if m < 0 or odd or n_gap < m:
        raise WireFormatError("announcement length disagrees with its detection count")
    gaps = np.frombuffer(data, np.uint8, n_gap, 4)
    ends = gaps != 255
    if np.count_nonzero(ends) != m or n_gap and not ends[-1]:
        raise WireFormatError("announced gaps disagree with the count or end in an escape")
    pos = gaps.astype(np.int64)
    pos[:1] -= 1  # the first gap is measured from -1
    pos = np.cumsum(pos, out=pos)[ends if n_gap > m else slice(None)]  # non-decreasing
    if m and (pos[0] < 0 or pos[-1] >= n_pulses or np.any(pos[1:] == pos[:-1])):
        raise WireFormatError("announced positions not strictly increasing in range")
    return pos, np.unpackbits(np.frombuffer(data, np.uint8, offset=4 + n_gap), count=m)


# -- interactive error correction --------------------------------------

# Cascade passes and matching parities in a row (see error_correct); a
# sample with fewer mismatches than EC_MIN_MISMATCHES counts that many
EC_PASSES = 4
EC_VERIFY_ROUNDS = 64
EC_MIN_MISMATCHES = 3


def _bisect(flips: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Binary-search one flipped bit among indices lo..hi-1, which hold
    an odd number of the sorted indices in flips.  Each step announces
    the lower half's parity, the segment's own being known; returns the
    index found and the parity bits disclosed."""
    spent = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        spent += 1
        if (bisect_left(flips, mid) - bisect_left(flips, lo)) & 1:
            hi = mid
        else:
            lo = mid
    return lo, spent


def _cascade(diff: np.ndarray, block: int, rng) -> int:
    """Phase 1 on diff = alice ^ bob, repairing diff in place; returns
    the parity bits disclosed.  Pass p announces the parity of each block
    of block * 2**p bits in its own shuffled order and bisects each odd
    one.  A repaired bit toggles its block in every pass so far, and a
    block that turns odd is bisected too, earliest pass (smallest blocks)
    first (Brassard & Salvail 1993).  Pass p ranks position i at
    shuffle_rank(key_p, n, i), key_p drawn from rng, but only for its
    current errors, kept as sorted ranks and as maps between position and
    rank: a bisection ends on an odd one-rank segment, an error, and a
    repair clears one, so no other bit's rank is ever asked for; pass 0's
    errors, ranked under all four keys at once, hold every later pass's."""
    n = diff.size
    keys = [int(rng.integers(1 << 63)) for _ in range(EC_PASSES)]
    first = np.flatnonzero(diff)
    all_ranks = shuffle_rank(np.array(keys, np.uint64)[:, None], n, first)
    passes, leak = [], 0
    for p in range(EC_PASSES):
        size = block << p
        still = diff[first] == 1
        errs, ranks = first[still], all_ranks[p][still]
        parity = np.bincount(ranks // size, minlength=-(-n // size)) & 1
        leak += parity.size
        errs, ranks = errs.tolist(), ranks.tolist()
        passes.append((size, dict(zip(errs, ranks)), dict(zip(ranks, errs)),
                       parity.tolist(), sorted(ranks)))
        heap = [(p, b) for b in np.flatnonzero(parity).tolist()]  # sorted, so a heap
        while heap:
            q, b = heapq.heappop(heap)
            size_q, _, at_q, odd_q, flips_q = passes[q]
            if odd_q[b]:
                i, spent = _bisect(flips_q, b * size_q, min((b + 1) * size_q, n))
                leak += spent
                j = at_q[i]
                diff[j] ^= 1
                for r, (size_r, rank_r, at_r, odd_r, flips_r) in enumerate(passes):
                    x = rank_r.pop(j)
                    del at_r[x]
                    del flips_r[bisect_left(flips_r, x)]
                    c = x // size_r
                    odd_r[c] ^= 1
                    if odd_r[c]:
                        heapq.heappush(heap, (r, c))
    return leak


def _in_subset(key: int, round: int, positions: np.ndarray) -> np.ndarray:
    """Whether each position is in phase-2 round's random subset: the top
    bit of counter_hash(key, round * 2**40 + position).  Positions below
    2**40 give each (round, position) its own counter, so no subset need
    ever be drawn in full."""
    i = np.uint64(round << 40) | np.asarray(positions, np.uint64)
    return counter_hash(key, i) >> np.uint64(63) == 1


def _verify(diff: np.ndarray, key: int) -> int:
    """Phase 2 on diff = alice ^ bob, repairing diff in place; returns
    the parity bits disclosed once EC_VERIFY_ROUNDS parities in a row
    have matched.  An odd round is repaired by bisecting [0, n) on the
    parities of its subset's members; only errors are ever hashed.  Only
    a repair, which removes an error, resets the streak, so this ends
    within (EC_VERIFY_ROUNDS + 1) * (errors + 1) rounds."""
    n = diff.size
    errs = np.flatnonzero(diff)
    leak = streak = r = 0
    while streak < EC_VERIFY_ROUNDS:
        if errs.size == 0:  # every round left matches
            return leak + EC_VERIFY_ROUNDS - streak
        leak += 1
        flips = errs[_in_subset(key, r, errs)]
        r += 1
        if flips.size & 1:
            j, spent = _bisect(flips.tolist(), 0, n)
            diff[j] ^= 1
            errs = errs[errs != j]
            leak += spent
            streak = 0
        else:
            streak += 1
    return leak


def error_correct(
    alice: np.ndarray, bob: np.ndarray, eps_hint: float, rng
) -> tuple[np.ndarray, np.ndarray, int]:
    """Interactive parity error correction; returns (alice itself, not a
    copy, a corrected copy of bob, parity bits disclosed).

    Phase 1 is an EC_PASSES-pass Cascade whose first blocks hold about
    0.73/eps_hint bits.  Phase 2 asks random-subset parities to match
    EC_VERIFY_ROUNDS = 64 times in a row, each mismatch triggering one
    bisection repair, which leaves a residual mismatch probability of at
    most 2**-64.  Each parity disclosed is charged once: a block's or a
    round's parity when announced, then each lower half's in a
    bisection.  A parity the parties can work out from those and the
    repairs, such as that of a block a repair re-opens, costs nothing.

    Each Cascade pass draws one 63-bit key from rng, whose shuffle comes
    from shuffle_rank, then phase 2 one whose subsets come from
    _in_subset: public functions of the keys.  The simulation follows
    diff = alice ^ bob, so a parity comparison is the parity of diff over
    a subset, and the corrected copy is alice ^ diff.
    """
    if alice.shape != bob.shape or alice.ndim != 1:
        raise ValueError("need two equal-length bit vectors")
    n = alice.size
    if n == 0:
        return alice, bob.copy(), 0
    diff = (alice ^ bob).astype(np.uint8)
    leak = _cascade(diff, max(2, round(0.73 / max(eps_hint, 1.0 / n))), rng)
    leak += _verify(diff, int(rng.integers(1 << 63)))
    return alice, alice ^ diff, leak


# -- privacy amplification ---------------------------------------------


@functools.lru_cache(maxsize=1)
def privacy_amplify(bits: BitString, out_len: int, seed: BitString) -> BitString:
    """Compress bits to out_len with the modified Toeplitz matrix [I | T']
    over GF(2), universal by Hayashi & Tsurumaru (2016): x[:out_len] ^
    T' x[out_len:], with T'[i, j] = seed[(m - 1) + i - j], m = n_in -
    out_len.  A seed of other than n_in - 1 bits raises ValueError, so an
    emptied seed cannot turn compression off.  T' x[out_len:] is the
    convolution (seed * x[out_len:])[m - 1 + i], one real FFT product,
    circular, of length L >= n_in - 1: linear terms at indices >= L wrap
    onto indices <= m - 2, below every kept one.  ArithmeticError is
    raised, rather than a bit guessed, if a float64 count lies 0.25 or
    more from the nearest integer.  The last output is cached on the
    packed input, out_len and packed seed, so a party whose corrected key
    and seed equal the other's reuses its output."""
    n_in = len(bits)
    if len(seed) != n_in - 1:
        raise ValueError(f"a {n_in}-bit input needs a {n_in - 1}-bit seed, got {len(seed)}")
    if not 0 <= out_len <= n_in:
        raise ValueError("out_len must be in [0, input length]")
    m = n_in - out_len
    if m == 0 or out_len == 0:
        return bits[:out_len]
    n_fft = sfft.next_fast_len(n_in - 1, real=True)
    x = bits.bits
    spectrum = sfft.rfft(seed.bits, n_fft) * sfft.rfft(x[out_len:], n_fft)
    conv = sfft.irfft(spectrum, n_fft)[m - 1 : n_in - 1]
    counts = np.rint(conv)
    if np.max(np.abs(conv - counts)) >= 0.25:
        raise ArithmeticError("FFT convolution too inexact to round to counts")
    return BitString(x[:out_len] ^ (counts.astype(np.int64) & 1).astype(np.uint8))


def compute_out_len(params: BudgetParams, eps_est: float, leak: int) -> int:
    """Refuelled key length: the distilled-key budget at the estimated
    error rate, less the error-correction leak beyond what the budget's
    corrected length already allows for at that rate, rounded down."""
    n_s = expected_sifted_len(params)
    excess = max(0.0, leak - (n_s - corrected_len(n_s, eps_est)))
    return int(math.floor(distilled_len(replace(params, eps=eps_est)) - excess))


# -- adversary scripts ---------------------------------------------------


def sifting_mitm_script(seed: int = 0) -> AdversaryScript:
    """Full man-in-the-middle who runs the photon exchange separately
    with each party and then forges the classical messages.

    The quantum side is a full intercept-resend; the classical side
    rewrites every authenticated payload with random content and a
    random tag, which is the best a key-less middle party can do.  The
    honest parties defeat it at the first tag verification (or, were
    tags somehow guessed, at the error-rate verdict).
    """
    rng = np.random.default_rng(seed)

    def tamper(msg: WireMessage) -> WireMessage | None:
        if msg.kind not in AUTHENTICATED_KINDS:
            return None
        forged = random_bitstring(len(msg.payload), rng)
        tag = int(rng.integers(0, auth.M61, dtype=np.int64))
        return WireMessage(msg.kind, forged, tag)

    return AdversaryScript(
        eve=EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=1.0),
        tamper=tamper,
        name="sifting-mitm",
    )


# -- the session --------------------------------------------------------


@dataclass
class Protocol2Result:
    """One session's outcome; a field the session never reached keeps
    its default."""

    alice_pool: SecretPool = field(repr=False)
    bob_pool: SecretPool = field(repr=False)
    identified: bool = False
    aborted_at: str | None = None
    refueled: bool = False
    refuel_reason: str | None = None
    s_real: int = 0
    k: int = 0
    eps_est: float | None = None
    verdict_accept: bool = False
    alice_recheck: bool = False
    n_sifted: int = 0
    n_key: int = 0
    leak: int = 0
    out_len: int = 0
    consumed_alice: int = 0
    consumed_bob: int = 0
    distilled: BitString | None = field(repr=False, default=None)
    transcript: list[WireMessage] = field(repr=False, default_factory=list)

    @property
    def gained(self) -> int:
        return self.out_len if self.refueled else 0

    @property
    def net(self) -> int:
        return self.gained - self.consumed_alice


class _Stop(Exception):
    """Ends a session early at the stage or for the reason it names."""


def _send(res, tamper, msg: WireMessage, stage: str, n_bits, parse=None, key=None):
    """Serialize msg, let the tamper hook rewrite it in transit, reparse
    it at the receiver and return parse(payload), or the payload.  With a
    key, the tag must verify under it first, or the session stops at
    <stage>-auth.  A frame that does not parse, arrives as another kind
    than was sent or carries other than n_bits payload bits (when given)
    stops it at <stage>-structure."""
    kind = msg.kind
    if tamper is not None:
        msg = tamper(msg) or msg
    try:
        msg = WireMessage.from_bytes(msg.to_bytes())
        res.transcript.append(msg)
        if msg.kind != kind:
            raise WireFormatError(f"{kind.name} arrived as {msg.kind.name}")
        if key is not None and not auth.verify(msg.payload, msg.tag, key):
            raise _Stop(f"{stage}-auth")
        if n_bits is not None and len(msg.payload) != n_bits:
            raise WireFormatError(f"expected {n_bits} payload bits, got {len(msg.payload)}")
        return msg.payload if parse is None else parse(msg.payload)
    except WireFormatError:
        raise _Stop(f"{stage}-structure") from None


def _exchange(res, tamper, lengths, kind: MsgKind, stage: str, payload: BitString,
              from_bob: bool, parse):
    """One authenticated message of lengths[kind] bits, lengths keying
    budget.message_bit_lengths by kind: both parties size its key from that
    and draw it in message order; the sender tags with its key, the
    receiver verifies."""
    n_bits = lengths[kind]
    n_words = auth.words_needed(n_bits)
    key_a, _ = auth.key_from_pool(res.alice_pool, n_words)
    key_b, _ = auth.key_from_pool(res.bob_pool, n_words)
    send_key, receive_key = (key_b, key_a) if from_bob else (key_a, key_b)
    msg = WireMessage(kind, payload, auth.authenticate(payload, send_key))
    return _send(res, tamper, msg, stage, n_bits, parse, receive_key)


def _accepts(k: int, s_real: int, params: BudgetParams) -> bool:
    """The acceptance test: k / s_real at most the Bayesian limit for a
    sample of s_real."""
    try:
        return s_real > 0 and k / s_real <= solve_eps_limit(
            s_real, params.delta, params.eps_max)
    except NoSolution:
        return False


def run_protocol2(
    params: BudgetParams,
    seed=None,
    adversary: AdversaryScript | None = None,
    alice_pool: SecretPool | None = None,
    bob_pool: SecretPool | None = None,
) -> Protocol2Result:
    """Simulate one full identification-plus-refuelling session.

    seed drives everything (quantum run, sampling, error correction,
    compression seed).  Callers may hand in the two parties' existing
    pools (they must mirror each other); pointers are synchronized
    first, and the session refuses to start, consuming nothing, on less
    than the planned key consumption.  Without explicit pools, both
    parties start from identical fresh pools of default_pool_bits
    random bits.
    """
    if adversary is None:
        adversary = AdversaryScript()
    if 2 * params.s >= 1 << 16:
        raise ValueError(f"2s = {2 * params.s} overflows the verdict's 16-bit k field")
    if (alice_pool is None) != (bob_pool is None):
        raise ValueError("provide both pools or neither")
    pool_rng, qkd_rng, proto_rng = np.random.default_rng(seed).spawn(3)

    n, s = params.n_pulses, params.s
    if alice_pool is None:
        shared = random_bitstring(default_pool_bits(n, s), pool_rng)
        alice_pool, bob_pool = SecretPool(shared), SecretPool(shared)

    sync_pools(alice_pool, bob_pool, budget.planned_key_consumption(n, s))

    run = run_qkd(params, qkd_rng, adversary.eve)
    res = Protocol2Result(alice_pool, bob_pool, n_sifted=run.n_sifted)
    start = alice_pool.pointer
    try:
        _play(res, params, run, proto_rng, adversary.tamper)
    except _Stop as stop:
        if res.identified:
            res.refuel_reason = str(stop)
        else:
            res.aborted_at = str(stop)
            res.transcript.append(WireMessage(MsgKind.ABORT, BitString.zeros(0)))
    res.consumed_alice = alice_pool.pointer - start
    res.consumed_bob = bob_pool.pointer - start
    return res


def _play(res: Protocol2Result, params: BudgetParams, run, rng, tamper) -> None:
    """The session's messages in order, recorded in res; raises _Stop
    at the first stage that fails and returns after a refuel."""
    n, s = params.n_pulses, params.s
    w = position_bits(n)
    lengths = dict(zip(AUTHENTICATED_KINDS, budget.message_bit_lengths(n, s)))
    det = run.detected

    # B -> A: sample positions; A -> B: her bases and bits at them.  B
    # keeps his sample as indices into his detections.
    pick = select_subset_positions(det.size, 2 * s, rng)
    sample_at_alice = _exchange(
        res, tamper, lengths, MsgKind.POSITIONS, "positions", pack_uints(det[pick], w),
        True, lambda p: _parse_positions(p, w, n))
    bits, bases = run.alice_at(sample_at_alice)
    a_bases, a_bits = _exchange(
        res, tamper, lengths, MsgKind.BASES_AND_BITS, "bases-bits",
        BitString(np.column_stack([bases, bits]).ravel()), False,
        lambda p: (p.bits[0::2], p.bits[1::2]))

    # B compares at basis coincidences and renders the verdict
    matched = run.bob_bases[pick] == a_bases
    s_real = res.s_real = int(matched.sum())
    k = res.k = int((run.bob_bits[pick][matched] != a_bits[matched]).sum())
    if s_real > 0:
        res.eps_est = k / s_real
    accept = res.verdict_accept = _accepts(k, s_real, params)
    accept_at_alice, k_at_alice = _exchange(
        res, tamper, lengths, MsgKind.FINAL_VERDICT, "verdict", _build_verdict(accept, k),
        True, _parse_verdict)

    # every authentication key verified: the peers are identified
    res.identified = True
    if not (accept and accept_at_alice):
        raise _Stop("verdict-reject")

    # B -> A: detected positions and bases (plumbing, unauthenticated)
    ann_pos, ann_bases = _send(
        res, tamper, WireMessage(MsgKind.BASIS_ANNOUNCE, _build_announce(det, run.bob_bases)),
        "announce", None, lambda p: _parse_announce(p, n))

    # A re-applies the acceptance test with her own view of s_real; both
    # position lists are sorted, so her sample's announced entries are
    # found by search (past the last detection, a suffix of it is not)
    hit = np.searchsorted(ann_pos, sample_at_alice)
    hit = hit[hit < ann_pos.size]
    hit = hit[ann_pos[hit] == sample_at_alice[: hit.size]]
    in_sample = np.zeros(ann_pos.size, dtype=bool)
    in_sample[hit] = True
    alice_bits, alice_bases = run.alice_at(ann_pos)
    alice_matched = alice_bases == ann_bases
    res.alice_recheck = _accepts(k_at_alice, int((in_sample & alice_matched).sum()), params)
    if not res.alice_recheck:
        raise _Stop("alice-recheck")

    # A -> B: coincidence mask, one bit per detection B made
    mask_at_bob = _send(
        res, tamper, WireMessage(MsgKind.COINCIDENCE, BitString(alice_matched)),
        "coincidence", det.size).bits.astype(bool)

    # the refuelling key: basis-matched positions outside the disclosed sample
    alice_key = alice_bits[alice_matched & ~in_sample]
    unsampled = np.ones(det.size, dtype=bool)
    unsampled[pick] = False
    bob_key = run.bob_bits[mask_at_bob & unsampled]
    res.n_key = int(alice_key.size)
    if alice_key.size != bob_key.size or alice_key.size == 0:
        raise _Stop("no-key-bits")

    hint = max(k, EC_MIN_MISMATCHES) / s_real
    _, bob_corrected, leak = error_correct(alice_key, bob_key, hint, rng)
    res.leak = leak

    out_len = res.out_len = compute_out_len(params, res.eps_est, leak)
    if out_len <= 0:
        raise _Stop("budget-nonpositive")
    if out_len > alice_key.size - leak:
        raise _Stop("budget-exceeds-available")

    # A -> B: the hash's diagonal, a bit shorter than the key; each party
    # hashes with its own copy
    seed = random_bitstring(alice_key.size - 1, rng)
    seed_at_bob = _send(res, tamper, WireMessage(MsgKind.PA_SEED, seed), "pa-seed",
                        bob_key.size - 1)
    alice_new = privacy_amplify(BitString(alice_key), out_len, seed)
    bob_new = privacy_amplify(BitString(bob_corrected), out_len, seed_at_bob)
    if alice_new != bob_new:
        raise _Stop("key-mismatch")

    res.alice_pool.refuel(alice_new)
    res.bob_pool.refuel(bob_new)
    res.refueled = True
    res.distilled = alice_new
