"""Mutual identification with secret-key refuelling over a public channel.

One session consumes part of the shared secret pool to authenticate
three classical messages about a fresh quantum transmission, and - when
the estimated error rate is acceptable - distils the remaining sifted
bits into new shared secret that is appended to both pools.

Message flow (kinds in parentheses; B is the photon receiver):

    B -> A  POSITIONS (1)        2s detected positions, authenticated
    A -> B  BASES_AND_BITS (2)   A's basis and bit at each, authenticated
    B -> A  FINAL_VERDICT (3)    accept flag + mismatch count k, authenticated
    B -> A  BASIS_ANNOUNCE (5)   all detected positions with B's bases
    A -> B  COINCIDENCE (6)      basis-match mask over the announced list
            (interactive parity error correction, in process)
    A -> B  PA_SEED (7)          seed of the final compression hash
    either  ABORT (4)

Identification is mutual: each party proves possession of the pool by
authenticating at least one message, and every verification failure
aborts the session.  Authentication keys are drawn from the pool in
message order by both parties alike, and a key is consumed even when
the message it protects is rejected, so no key is ever reused.

Error estimation: B samples 2s detected positions blind to basis
matching; A discloses her basis and bit for each; B counts k mismatches
among the s_real basis-matched ones and accepts when k / s_real is at
most the Bayesian limit for a sample of s_real.  A repeats the same
threshold test once the basis announcement lets her count s_real
herself; a failed re-check (or any tampering with the unauthenticated
plumbing, kinds 5-7) can only spoil the refuelling, never forge an
identification.

The refuelled key length is the distilled-key budget evaluated at the
estimated error rate, less any error-correction leakage beyond what the
budget's corrected length allows for; refuelling is refused when that
is non-positive or exceeds the actually available sifted bits minus
error-correction leakage.

Wire format: 1 byte kind, 4-byte big-endian payload bit count, payload
zero-padded to whole bytes, then an 8-byte big-endian tag on kinds 1-3.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sfft

from . import auth
from .budget import (
    BudgetParams,
    corrected_len,
    distilled_len,
    expected_sifted_len,
)
from .channel import EveParams, EveStrategy, run_qkd
from .core import (
    BitString,
    PoolExhausted,
    QidentError,
    SecretPool,
    make_rng,
    pack_uints,
    pointer_sync,
    random_bitstring,
    spawn_streams,
    strict_ceil,
    unpack_uints,
)
from .estimation import NoSolution, solve_eps_limit

__all__ = [
    "MsgKind",
    "WireMessage",
    "WireFormatError",
    "NonConvergence",
    "InsufficientDetections",
    "AdversaryScript",
    "Protocol2Result",
    "message_bit_lengths",
    "planned_key_consumption",
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


class WireFormatError(QidentError):
    """Byte stream is not a well-formed wire message."""


class NonConvergence(QidentError):
    """Parity error correction failed to produce matching strings."""


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
        head = bytes([self.kind]) + len(self.payload).to_bytes(4, "big")
        body = self.payload.to_bytes()
        tail = auth.tag_to_bytes(self.tag) if self.tag is not None else b""
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
        n_tag = auth.TAG_BYTES if kind in AUTHENTICATED_KINDS else 0
        if len(data) != 5 + n_body + n_tag:
            raise WireFormatError("length field disagrees with frame size")
        payload = BitString.from_bytes(data[5 : 5 + n_body], n_bits)
        tag = auth.tag_from_bytes(data[5 + n_body :]) if n_tag else None
        return cls(kind, payload, tag)


@dataclass(frozen=True)
class AdversaryScript:
    """Complete adversary for one session: a quantum-channel model plus
    an optional classical tamper hook that may rewrite any wire message
    in transit (returning None leaves the message alone)."""

    eve: EveParams = EveParams()
    tamper: object | None = None
    name: str = ""


# -- message sizing and key accounting --------------------------------


def position_field_bits(n_pulses: int) -> int:
    """Width of one position field: strict_ceil(log2(n_pulses))."""
    return strict_ceil(math.log2(n_pulses))


def message_bit_lengths(n_pulses: int, s: int) -> dict[MsgKind, int]:
    """Payload bit lengths of the three authenticated messages."""
    w = position_field_bits(n_pulses)
    return {
        MsgKind.POSITIONS: 2 * s * w,
        MsgKind.BASES_AND_BITS: 4 * s,
        MsgKind.FINAL_VERDICT: 32,
    }


def planned_key_consumption(n_pulses: int, s: int) -> int:
    """Pool bits the three authentication keys consume, barring the
    ~2**-61 per-word rejection: word size times words_needed per message.

    Slightly above min_initial_secret_bits because each key covers whole
    encoding words (sentinel and group padding) rather than bare
    payload-plus-tag; run_protocol2 refuses to start on less.
    """
    return sum(
        auth.WORD_BITS * auth.words_needed(n_bits)
        for n_bits in message_bit_lengths(n_pulses, s).values()
    )


def default_pool_bits(n_pulses: int, s: int) -> int:
    """Initial pool size used when the caller does not specify one:
    planned consumption plus eight words of rejection slack."""
    return planned_key_consumption(n_pulses, s) + 8 * auth.WORD_BITS


def select_subset_positions(
    detected_positions: np.ndarray, two_s: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sorted sample of two_s detected positions, drawn blind to
    basis matching.  Raises InsufficientDetections when the run produced
    fewer detections than that."""
    detected_positions = np.asarray(detected_positions, dtype=np.int64)
    if detected_positions.size < two_s:
        raise InsufficientDetections(
            f"{detected_positions.size} detections cannot seed a "
            f"{two_s}-position sample"
        )
    return np.sort(rng.choice(detected_positions, size=two_s, replace=False))


# -- payload builders / parsers ----------------------------------------


def _build_positions(positions: np.ndarray, w: int) -> BitString:
    return pack_uints(positions, w)


def _parse_positions(payload: BitString, w: int, s: int, n_pulses: int) -> np.ndarray:
    if len(payload) != 2 * s * w:
        raise WireFormatError("sample message has wrong length")
    pos = unpack_uints(payload, w)
    if pos.size and (pos.max() >= n_pulses or np.any(np.diff(pos) <= 0)):
        raise WireFormatError("sample positions not strictly increasing in range")
    return pos


def _build_bases_bits(bases: np.ndarray, bits: np.ndarray) -> BitString:
    out = np.empty(2 * bases.size, dtype=np.uint8)
    out[0::2] = bases
    out[1::2] = bits
    return BitString(out)


def _parse_bases_bits(payload: BitString, s: int) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) != 4 * s:
        raise WireFormatError("basis-and-bit message has wrong length")
    arr = payload.bits
    return arr[0::2].copy(), arr[1::2].copy()


def _build_verdict(accept: bool, k: int) -> BitString:
    if not 0 <= k < (1 << 16):
        raise ValueError("mismatch count does not fit in 16 bits")
    return (
        BitString.from01("1" if accept else "0")
        + BitString.zeros(15)
        + pack_uints([k], 16)
    )


def _parse_verdict(payload: BitString) -> tuple[bool, int]:
    if len(payload) != 32:
        raise WireFormatError("verdict message has wrong length")
    if payload[1:16].count_ones():
        raise WireFormatError("verdict reserved bits must be zero")
    return bool(payload[0]), int(unpack_uints(payload[16:32], 16)[0])


def _build_announce(positions: np.ndarray, bases: np.ndarray, w: int) -> BitString:
    return pack_uints(positions.astype(np.int64) * 2 + bases, w + 1)


def _parse_announce(
    payload: BitString, w: int, n_pulses: int
) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) % (w + 1):
        raise WireFormatError("announcement length not a whole number of entries")
    entries = unpack_uints(payload, w + 1)
    pos = entries >> 1
    if pos.size and (pos.max() >= n_pulses or np.any(np.diff(pos) <= 0)):
        raise WireFormatError("announced positions not strictly increasing in range")
    return pos, (entries & 1).astype(np.uint8)


# -- interactive error correction --------------------------------------

# phase 2 gives up after this many repairs; see error_correct
EC_MAX_FIXUPS = 256
# a sample with fewer mismatches than this sizes phase-1 blocks as if it
# had this many, where the key is long enough for the difference to
# matter; see run_protocol2
EC_MIN_MISMATCHES = 3

# numpy's PCG64 (XSL-RR 128/64): each draw steps the state to
# state * _PCG_MULT + inc mod 2**128 and outputs the stepped state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1


def _bisect(flips: list[int], lo: int, hi: int) -> tuple[int, int]:
    """Binary-search one flipped bit among indices lo..hi-1, which hold
    an odd number of the sorted indices in flips.

    Each step announces the parity of the lower half.  Returns the index
    found and the parity bits disclosed, the segment's own included.
    """
    spent = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        spent += 1
        if (bisect_left(flips, mid) - bisect_left(flips, lo)) & 1:
            hi = mid
        else:
            lo = mid
    return lo, spent


def _parity_passes(
    diff: np.ndarray, bob: np.ndarray, block: int, rng, max_passes: int
) -> tuple[int, int]:
    """Phase 1 on diff = alice ^ bob, repairing bob and diff in place;
    returns (parity bits disclosed, errors repaired)."""
    n = diff.size
    leak = repaired = 0
    for _ in range(max_passes):
        order = rng.permutation(n)
        shuffled = diff[order]
        starts = np.arange(0, n, block)
        leak += starts.size
        odd = np.flatnonzero(np.add.reduceat(shuffled, starts) & 1)
        flips = np.flatnonzero(shuffled).tolist()
        for start in starts[odd].tolist():
            i, spent = _bisect(flips, start, min(start + block, n))
            leak += spent
            bob[order[i]] ^= 1
            diff[order[i]] ^= 1
        repaired += odd.size
        if odd.size == 0:
            return leak, repaired
        block = min(n, block * 2)
    raise NonConvergence(f"no clean pass within {max_passes} passes")


class _DrawnMasks:
    """Phase-2 subsets, rng.random(n) < 0.5 once per round, each drawn
    in full."""

    def __init__(self, rng, n: int):
        self.rng, self.n = rng, n

    def odd(self, errs: np.ndarray) -> bool:
        """Whether this round's subset holds an odd number of errs."""
        self.mask = self.rng.random(self.n) < 0.5
        return bool(np.count_nonzero(self.mask[errs]) & 1)

    def take(self) -> np.ndarray:
        """This round's subset; moves on to the next round."""
        return self.mask

    def next(self) -> None:
        pass

    def skip(self, rounds: int) -> None:
        for _ in range(rounds):
            self.rng.random(self.n)

    def close(self) -> None:
        pass


def _pcg_top_bits(a_hi, a_lo, c_hi, c_lo, state: int) -> np.ndarray:
    """Top bits of the PCG64 outputs at the states a*state + c mod 2**128,
    elementwise; a and c come as uint64 halves, products in 32-bit limbs."""
    m32 = np.uint64(0xFFFFFFFF)
    s_hi, s_lo = np.uint64(state >> 64), np.uint64(state & _M64)
    s0, s1 = s_lo & m32, s_lo >> 32
    a0, a1 = a_lo & m32, a_lo >> 32
    x00, x01, x10 = a0 * s0, a0 * s1, a1 * s0
    mid = (x00 >> 32) + (x01 & m32) + (x10 & m32)
    lo = (x00 & m32) | (mid << 32)
    hi = a1 * s1 + (x01 >> 32) + (x10 >> 32) + (mid >> 32) + a_hi * s_lo + a_lo * s_hi
    t_lo = lo + c_lo
    t_hi = hi + c_hi + (t_lo < lo)
    # the output is (hi ^ lo) rotated right by hi >> 58
    return ((t_hi ^ t_lo) >> (((t_hi >> 58) + 63) & 63)) & 1


class _PcgMasks(_DrawnMasks):
    """The same subsets from a PCG64 generator, drawn only as far as a
    round needs: its bits at the positions still in error come from
    jumping ahead in the generator's state, and only a round with odd
    parity there is drawn in full, for bisection.  close() leaves the
    generator where drawing every round would have left it.
    """

    def __init__(self, rng, n: int):
        self.n = n
        self.bitgen = rng.bit_generator
        self.saved = self.bitgen.state
        self.state, self.inc = self.saved["state"]["state"], self.saved["state"]["inc"]
        self.known = np.zeros(0, dtype=np.int64)  # positions with jumps tabled

    def jump(self, steps: int) -> tuple[int, int]:
        """(a, c) such that steps draws take state s to a*s + c."""
        a = pow(_PCG_MULT, steps, 1 << 128)
        # inc * (1 + mult + ... + mult**(steps-1)), divided exactly
        g = (pow(_PCG_MULT, steps, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)
        return a, (self.inc * g) & _M128

    def odd(self, errs: np.ndarray) -> bool:
        at = np.searchsorted(self.known, errs)
        if at[-1] >= self.known.size or not np.array_equal(self.known[at], errs):
            jumps = [self.jump(p + 1) for p in errs.tolist()]
            self.table = [np.array(v, dtype=np.uint64) for v in zip(
                *((a >> 64, a & _M64, c >> 64, c & _M64) for a, c in jumps))]
            self.known, at = errs, np.arange(errs.size)
        top = _pcg_top_bits(*(v[at] for v in self.table), self.state)
        return bool((errs.size - np.count_nonzero(top)) & 1)

    def take(self) -> np.ndarray:
        gen = np.random.PCG64(0)
        gen.state = {**self.saved, "state": {"state": self.state, "inc": self.inc}}
        self.next()
        # random() < 0.5 exactly when the 64-bit output's top bit is 0
        return gen.random_raw(self.n) < (1 << 63)

    def next(self) -> None:
        self.skip(1)

    def skip(self, rounds: int) -> None:
        if rounds:
            a, c = self.jump(rounds * self.n)
            self.state = (a * self.state + c) & _M128

    def close(self) -> None:
        # random() draws whole 64-bit outputs, so the buffered 32-bit
        # half in the saved state is still current
        self.bitgen.state = {**self.saved, "state": {"state": self.state, "inc": self.inc}}


def _verify(
    diff: np.ndarray, bob: np.ndarray, masks: _DrawnMasks, rounds: int, max_fixups: int
) -> tuple[int, int, bool]:
    """Phase 2 on diff = alice ^ bob, repairing bob and diff in place;
    returns (parity bits disclosed, repairs, whether rounds parities in
    a row matched)."""
    errs = np.flatnonzero(diff)
    leak = streak = fixups = 0
    while streak < rounds and fixups <= max_fixups:
        if errs.size == 0:  # every round left matches
            masks.skip(rounds - streak)
            return leak + rounds - streak, fixups, True
        leak += 1
        if masks.odd(errs):
            mask = masks.take()
            subset = np.flatnonzero(mask)
            ranks = np.searchsorted(subset, errs[mask[errs]]).tolist()
            i, spent = _bisect(ranks, 0, subset.size)
            j = subset[i]
            bob[j] ^= 1
            diff[j] ^= 1
            errs = errs[errs != j]
            leak += spent
            streak = 0
            fixups += 1
        else:
            masks.next()
            streak += 1
    return leak, fixups, streak == rounds


def error_correct(
    alice: np.ndarray,
    bob: np.ndarray,
    eps_hint: float,
    rng,
    max_passes: int = 30,
    verify_rounds: int = 64,
    max_fixups: int = EC_MAX_FIXUPS,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Interactive parity error correction; returns (alice's string,
    corrected bob copy, parity bits disclosed).

    Phase 1: shuffled blocks of about 0.73/eps_hint bits exchange
    parities; odd blocks are repaired by bisection.  Block size doubles
    per pass until a pass is clean.  Phase 2: random-subset parities
    must match verify_rounds times in a row, each mismatch triggering
    one more bisection repair, which leaves a residual mismatch
    probability of at most 2**-verify_rounds.

    A hint far below the true error rate makes phase-1 blocks too large
    and leaves phase 2 more than max_fixups errors.  Phase 2 then stops,
    and both phases run once more on what is left, with the hint raised
    to at least twice the rate of errors repaired so far.  Gives up with
    NonConvergence when the pass cap is exceeded or the second phase 2
    also exceeds the fix-up cap.

    The simulation follows diff = alice ^ bob, so a parity comparison
    is the parity of diff over a subset.  Results, disclosures and the
    draws taken from rng do not depend on how the subsets are computed.
    """
    if alice.shape != bob.shape or alice.ndim != 1:
        raise ValueError("need two equal-length bit vectors")
    n = alice.size
    if n == 0:
        return alice.copy(), bob.copy(), 0
    bob = bob.copy()
    diff = (alice ^ bob).astype(np.uint8)
    leak = repaired = 0
    pcg = isinstance(getattr(rng, "bit_generator", None), np.random.PCG64)

    for _ in range(2):
        block = max(2, int(round(0.73 / max(eps_hint, 1.0 / n))))
        spent, found = _parity_passes(diff, bob, block, rng, max_passes)
        masks = _PcgMasks(rng, n) if pcg else _DrawnMasks(rng, n)
        checked, fixups, matched = _verify(diff, bob, masks, verify_rounds, max_fixups)
        masks.close()
        leak += spent + checked
        if matched:
            return alice.copy(), bob, leak
        repaired += found + fixups
        eps_hint = max(eps_hint, 2.0 * repaired / n)
    raise NonConvergence("verification keeps finding mismatches")


# -- privacy amplification ---------------------------------------------


def privacy_amplify(bits: BitString, out_len: int, seed: BitString) -> BitString:
    """Compress bits to out_len via a random Toeplitz matrix over GF(2).

    The matrix diagonals are the bits of a generator seeded from the
    seed payload, so both parties reproduce the same matrix from the
    short announced seed.  An empty seed raises ValueError.

    T[i, j] = diag[(n_in - 1) + i - j], so output bit i is the parity of
    the full convolution (diag * x)[n_in - 1 + i], computed with one
    real FFT product.  Each convolution term is an integer count of at
    most n_in; ArithmeticError is raised, rather than a bit guessed, if
    a float64 result lies 0.25 or more from the nearest integer.
    """
    n_in = len(bits)
    if not 0 <= out_len <= n_in:
        raise ValueError("out_len must be in [0, input length]")
    if len(seed) == 0:
        raise ValueError("privacy amplification needs a non-empty seed")
    if out_len == 0:
        return BitString.zeros(0)
    rng = make_rng(int.from_bytes(seed.to_bytes(), "big"))
    diag = rng.integers(0, 2, size=n_in + out_len - 1, dtype=np.uint8)

    n_fft = sfft.next_fast_len(n_in + diag.size - 1, real=True)
    spectrum = sfft.rfft(diag, n_fft) * sfft.rfft(bits.bits, n_fft)
    conv = sfft.irfft(spectrum, n_fft)[n_in - 1 : n_in - 1 + out_len]
    counts = np.rint(conv)
    if np.max(np.abs(conv - counts)) >= 0.25:
        raise ArithmeticError("FFT convolution too inexact to round to counts")
    return BitString((counts.astype(np.int64) & 1).astype(np.uint8))


def compute_out_len(params: BudgetParams, eps_est: float, leak: int = 0) -> int:
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
    rng = make_rng(seed)

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


def _send(msg: WireMessage, tamper, transcript: list[WireMessage]) -> WireMessage:
    """Serialize, optionally tamper in transit, reparse at the receiver."""
    if tamper is not None:
        out = tamper(msg)
        if out is not None:
            msg = out
    msg = WireMessage.from_bytes(msg.to_bytes())
    transcript.append(msg)
    return msg


def run_protocol2(
    params: BudgetParams,
    seed=None,
    adversary: AdversaryScript | None = None,
    alice_pool: SecretPool | None = None,
    bob_pool: SecretPool | None = None,
    initial_pool_bits: int | None = None,
    pa_seed_bits: int = 128,
) -> Protocol2Result:
    """Simulate one full identification-plus-refuelling session.

    seed drives everything (quantum run, sampling, error correction,
    compression seed).  Callers may hand in the two parties' existing
    pools (they must mirror each other); pointers are synchronized
    first, and the session refuses to start, consuming nothing, on less
    than the planned key consumption.  Without explicit pools, both
    parties start from identical fresh pools of initial_pool_bits random
    bits (default: planned consumption plus slack).
    """
    if adversary is None:
        adversary = AdversaryScript()
    eve, tamper = adversary.eve, adversary.tamper
    if params.a != auth.WORD_BITS:
        raise ValueError(
            f"authentication tag width {params.a} does not match the "
            f"{auth.WORD_BITS}-bit production field"
        )
    if 2 * params.s >= 1 << 16:
        raise ValueError(f"2s = {2 * params.s} overflows the verdict's 16-bit k field")
    if pa_seed_bits < 1:
        raise ValueError("pa_seed_bits must be positive")
    if (alice_pool is None) != (bob_pool is None):
        raise ValueError("provide both pools or neither")
    root = make_rng(seed)
    pool_rng, qkd_rng, proto_rng = spawn_streams(root, 3)

    n = params.n_pulses
    s = params.s
    w = position_field_bits(n)
    lengths = message_bit_lengths(n, s)
    if alice_pool is None:
        if initial_pool_bits is None:
            initial_pool_bits = default_pool_bits(n, s)
        shared = random_bitstring(initial_pool_bits, pool_rng)
        alice_pool, bob_pool = SecretPool(shared), SecretPool(shared)

    synced = pointer_sync(alice_pool.pointer, bob_pool.pointer)
    alice_pool.advance_to(synced)
    bob_pool.advance_to(synced)
    floor = planned_key_consumption(n, s)
    if alice_pool.remaining < floor or bob_pool.remaining < floor:
        raise PoolExhausted(
            f"pools hold {min(alice_pool.remaining, bob_pool.remaining)} "
            f"unused bits, the session floor is {floor}"
        )

    run = run_qkd(params, qkd_rng, eve)
    res = Protocol2Result(alice_pool, bob_pool, n_sifted=run.n_sifted)
    transcript = res.transcript
    consumed_start = alice_pool.pointer

    def finish(refuel_reason: str | None = None) -> Protocol2Result:
        res.refuel_reason = refuel_reason
        res.consumed_alice = alice_pool.pointer - consumed_start
        res.consumed_bob = bob_pool.pointer - consumed_start
        return res

    def abort(where: str) -> Protocol2Result:
        res.aborted_at = where
        transcript.append(WireMessage(MsgKind.ABORT, BitString.zeros(0)))
        return finish()

    det_idx = np.nonzero(run.bob_detected)[0]

    # authentication keys, drawn in message order by both parties alike
    def draw_keys(kind: MsgKind) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n_words = auth.words_needed(lengths[kind])
        ka, _ = auth.key_from_pool(alice_pool, n_words)
        kb, _ = auth.key_from_pool(bob_pool, n_words)
        return ka, kb

    # B -> A: sample positions
    sample = select_subset_positions(det_idx, 2 * s, proto_rng)
    key_a, key_b = draw_keys(MsgKind.POSITIONS)
    payload = _build_positions(sample, w)
    msg = _send(
        WireMessage(MsgKind.POSITIONS, payload, auth.authenticate(payload, key_b)),
        tamper,
        transcript,
    )
    if not auth.verify(msg.payload, msg.tag, key_a):
        return abort("positions-auth")
    try:
        sample_at_alice = _parse_positions(msg.payload, w, s, n)
    except WireFormatError:
        return abort("positions-structure")

    # A -> B: her bases and bits at the sampled positions
    key_a, key_b = draw_keys(MsgKind.BASES_AND_BITS)
    payload = _build_bases_bits(
        run.alice_bases[sample_at_alice], run.alice_bits[sample_at_alice]
    )
    msg = _send(
        WireMessage(MsgKind.BASES_AND_BITS, payload, auth.authenticate(payload, key_a)),
        tamper,
        transcript,
    )
    if not auth.verify(msg.payload, msg.tag, key_b):
        return abort("bases-bits-auth")
    try:
        a_bases, a_bits = _parse_bases_bits(msg.payload, s)
    except WireFormatError:
        return abort("bases-bits-structure")

    # B compares at basis coincidences and renders the verdict
    matched = run.bob_bases[sample] == a_bases
    s_real = int(matched.sum())
    k = int((run.bob_bits[sample][matched] != a_bits[matched]).sum())
    res.s_real, res.k = s_real, k
    accept = False
    if s_real > 0:
        res.eps_est = k / s_real
        try:
            accept = k / s_real <= solve_eps_limit(s_real, params.delta, params.eps_max)
        except NoSolution:
            accept = False
    res.verdict_accept = accept

    # B -> A: verdict
    key_a, key_b = draw_keys(MsgKind.FINAL_VERDICT)
    payload = _build_verdict(accept, k)
    msg = _send(
        WireMessage(MsgKind.FINAL_VERDICT, payload, auth.authenticate(payload, key_b)),
        tamper,
        transcript,
    )
    if not auth.verify(msg.payload, msg.tag, key_a):
        return abort("verdict-auth")
    try:
        accept_at_alice, k_at_alice = _parse_verdict(msg.payload)
    except WireFormatError:
        return abort("verdict-structure")

    # every authentication key verified: the peers are identified
    res.identified = True
    if not (accept and accept_at_alice):
        return finish("verdict-reject")

    # B -> A: all detected positions and bases (plumbing, unauthenticated)
    msg = _send(
        WireMessage(
            MsgKind.BASIS_ANNOUNCE, _build_announce(det_idx, run.bob_bases[det_idx], w)
        ),
        tamper,
        transcript,
    )
    try:
        ann_pos, ann_bases = _parse_announce(msg.payload, w, n)
    except WireFormatError:
        return finish("announce-structure")

    # A re-applies the acceptance test with her own view of s_real
    in_sample = np.isin(ann_pos, sample_at_alice)
    alice_matched = run.alice_bases[ann_pos] == ann_bases
    s_real_at_alice = int((in_sample & alice_matched).sum())
    recheck = False
    if s_real_at_alice > 0:
        try:
            recheck = (
                k_at_alice / s_real_at_alice
                <= solve_eps_limit(s_real_at_alice, params.delta, params.eps_max)
            )
        except NoSolution:
            recheck = False
    res.alice_recheck = recheck
    if not recheck:
        return finish("alice-recheck")

    # A -> B: coincidence mask over the announced list
    msg = _send(
        WireMessage(MsgKind.COINCIDENCE, BitString(alice_matched.astype(np.uint8))),
        tamper,
        transcript,
    )
    mask_at_bob = msg.payload.bits.astype(bool)
    if mask_at_bob.size != det_idx.size:
        return finish("coincidence-structure")

    # the refuelling key: basis-matched positions outside the disclosed sample
    alice_key_pos = ann_pos[alice_matched & ~in_sample]
    bob_key_pos = det_idx[mask_at_bob & ~np.isin(det_idx, sample)]
    alice_key = run.alice_bits[alice_key_pos]
    bob_key = run.bob_bits[bob_key_pos]
    res.n_key = int(alice_key.size)
    if alice_key.size != bob_key.size or alice_key.size == 0:
        return finish("no-key-bits")

    # With under EC_MIN_MISMATCHES mismatches the sample can put the rate
    # at half the truth or less.  Phase 1 then leaves errors in pairs, and
    # phase 2 repairs them one full-length subset at a time, up to its
    # cap.  Once the key holds more errors at the floor rate than that
    # cap, phase 1 starts from the floor rate instead.
    hint = max(res.eps_est, 1e-4)
    if k < EC_MIN_MISMATCHES and alice_key.size * EC_MIN_MISMATCHES > EC_MAX_FIXUPS * s_real:
        hint = EC_MIN_MISMATCHES / s_real
    try:
        _, bob_corrected, leak = error_correct(alice_key, bob_key, hint, proto_rng)
    except NonConvergence:
        return finish("ec-nonconvergence")
    res.leak = leak

    out_len = res.out_len = compute_out_len(params, res.eps_est, leak)
    if out_len <= 0:
        return finish("budget-nonpositive")
    if out_len > alice_key.size - leak:
        return finish("budget-exceeds-available")

    # A -> B: compression seed
    msg = _send(
        WireMessage(MsgKind.PA_SEED, random_bitstring(pa_seed_bits, proto_rng)),
        tamper,
        transcript,
    )
    if len(msg.payload) != pa_seed_bits:
        return finish("pa-seed-structure")
    alice_new = privacy_amplify(BitString(alice_key), out_len, msg.payload)
    bob_new = privacy_amplify(BitString(bob_corrected), out_len, msg.payload)
    if alice_new != bob_new:
        return finish("key-mismatch")

    alice_pool.refuel(alice_new)
    bob_pool.refuel(bob_new)
    res.refueled = True
    res.distilled = alice_new
    return finish()
