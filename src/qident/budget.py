"""Closed-form analysis: impersonation probabilities and their large-N
behaviour, eavesdropper information curves, and the secret-bit budget of
the authenticated public-channel protocol, including intensity
optimization and the break-even pulse count.

All probability arithmetic is done in log space; quantities that can fall
below 1e-300 are exposed through explicit ``log_*`` variants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import QidentError, strict_ceil

__all__ = [
    "NoRoot",
    "AllZero",
    "NeverBreaksEven",
    "BudgetParams",
    "DeceptionParams",
    "binary_entropy",
    "deception_probability_exact",
    "deception_probability_bound",
    "log_deception_probability_bound",
    "critical_guess_probability",
    "critical_guess_probability_finite",
    "info_limit",
    "optimal_attack_info",
    "channel_mutual_info",
    "guess_probability_from_info",
    "error_rate_upper_bound",
    "min_initial_secret_bits",
    "expected_sifted_len",
    "corrected_len",
    "DistilledTerms",
    "distilled_terms",
    "distilled_len",
    "distilled_per_pulse",
    "optimize_intensity",
    "NEVER",
    "break_even_grid",
    "break_even_pulses",
]

LN2 = math.log(2.0)


class NoRoot(QidentError):
    """The two information curves do not cross inside the search range."""


class AllZero(QidentError):
    """Every candidate intensity yields a zero distilled-key rate."""


class NeverBreaksEven(QidentError):
    """No pulse count in the search range refuels more than it consumes."""


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits; H(0) == H(1) == 0."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# -- impersonation probability ---------------------------------------


@dataclass(frozen=True)
class DeceptionParams:
    """Inputs of an impersonation attempt against one identification pass.

    n_is: length of the identification sequence.
    eps: tolerance rate; up to strict_ceil(eps * n_is) wrong bits pass.
    p_bar: geometric-mean per-bit guess probability (bound route), or
    p_list: the full per-bit guess probability vector (exact route).
    """

    n_is: int
    eps: float
    p_bar: float | None = None
    p_list: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_is < 1:
            raise ValueError("n_is must be positive")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must be in [0, 1)")

    @property
    def k(self) -> int:
        return strict_ceil(self.eps * self.n_is)


def deception_probability_exact(p_list, k: int) -> float:
    """Probability that an adversary guessing bit i correctly with
    probability p_list[i] gets at most k bits wrong.

    Poisson-binomial recurrence over the number of wrong guesses,
    O(len(p_list) * k).
    """
    p = np.asarray(p_list, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_list must be a non-empty vector")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("per-bit probabilities must lie in [0, 1]")
    if k < 0:
        raise ValueError("tolerance k must be non-negative")
    k_eff = min(k, p.size)
    # c[j] = P(exactly j wrong among the bits processed so far)
    c = np.zeros(k_eff + 1, dtype=float)
    c[0] = 1.0
    for pi in p:
        qi = 1.0 - pi
        c[1:] = c[1:] * pi + c[:-1] * qi
        c[0] *= pi
    return float(c.sum())


def log_deception_probability_bound(n_is: int, eps: float, p_bar: float) -> float:
    """Natural log of the closed-form upper bound
    p_bar**N * 2**k * C(N, k) with k = strict_ceil(eps * N).

    Valid for p_bar in [1/2, 1]; the bound is crude for small N but decays
    geometrically once p_bar falls below the critical guess probability.
    """
    if n_is < 1:
        raise ValueError("n_is must be positive")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    if not 0.5 <= p_bar <= 1.0:
        raise ValueError("the bound requires p_bar in [1/2, 1]")
    k = strict_ceil(eps * n_is)
    if k > n_is:
        return 0.0  # probability 1: every outcome has at most N errors
    return n_is * math.log(p_bar) + k * LN2 + _log_choose(n_is, k)


def deception_probability_bound(n_is: int, eps: float, p_bar: float) -> float:
    """Linear-scale version of log_deception_probability_bound.

    Underflows to 0.0 below about 1e-308; use the log variant there.
    """
    return math.exp(log_deception_probability_bound(n_is, eps, p_bar))


def critical_guess_probability(eps: float) -> float:
    """Threshold per-bit guess probability 2**-(eps + H2(eps)).

    Below it, lengthening the identification sequence drives the
    impersonation bound to zero; above it the bound's base exceeds one.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError("eps must be in [0, 1/2)")
    return 2.0 ** -(eps + binary_entropy(eps))


def critical_guess_probability_finite(eps: float, n: int) -> float:
    """Finite-N evaluation 2**(-k/n) * C(n, k)**(-1/n) of the same
    threshold; converges to critical_guess_probability as n grows."""
    if n < 2:
        raise ValueError("n must be at least 2")
    k = strict_ceil(eps * n)
    return math.exp(-(k * LN2 + _log_choose(n, k)) / n)


# -- information curves ----------------------------------------------


def info_limit(eps: float) -> float:
    """Defendable-information ceiling 1 - H2(p_crit(eps)) in bits per bit.

    If the eavesdropper learns less than this about the key stream, the
    tolerance eps still defeats impersonation for long enough sequences.
    """
    return 1.0 - binary_entropy(critical_guess_probability(eps))


def optimal_attack_info(eps: float) -> float:
    """Information, bits per bit, extracted by the optimal individual
    probe interaction that causes error rate eps on the sifted key:
    1 - H2(1/2 + sqrt(eps * (1 - eps))).

    This default curve is the one the budget analysis assumes; callers
    that model a different attack can pass their own curve to
    error_rate_upper_bound.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must be in [0, 1/2]")
    return 1.0 - binary_entropy(0.5 + math.sqrt(eps * (1.0 - eps)))


def channel_mutual_info(eps: float) -> float:
    """Mutual information 1 - H2(eps) between the two honest parties over
    a binary symmetric channel with error rate eps.

    This assumes uniform independent key bits; it is the reference curve
    the attack curves are compared against.
    """
    return 1.0 - binary_entropy(eps)


def guess_probability_from_info(info: float) -> float:
    """Invert info = 1 - H2(p) on p in [1/2, 1] by bisection."""
    if not 0.0 <= info <= 1.0:
        raise ValueError("information must be in [0, 1] bits")
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 1.0 - binary_entropy(mid) < info:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def error_rate_upper_bound(
    attack_info=None,
    lo: float = 0.01,
    hi: float = 0.15,
    resolution: float = 1e-4,
) -> float:
    """Largest tolerable error rate: the crossing of the attack
    information curve with info_limit, found by bisection on [lo, hi].

    If the attack curve exceeds the limit across the whole range the
    bound saturates at the left edge; if it never reaches the limit
    there is no crossing and NoRoot is raised.
    """
    curve = attack_info if attack_info is not None else optimal_attack_info

    def diff(e: float) -> float:
        return curve(e) - info_limit(e)

    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo > 0.0 and d_hi > 0.0:
        return lo
    if d_lo <= 0.0 and d_hi <= 0.0:
        raise NoRoot(
            f"attack information stays below the limit on [{lo}, {hi}]"
        )
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if diff(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- secret-bit budget ------------------------------------------------


@dataclass(frozen=True)
class BudgetParams:
    """Operating point of the authenticated public-channel protocol.

    mu: mean photons per pulse leaving the transmitter.
    eta_tl, eta_bob, eta_det: line, receiver-optics and detector
        transmissivities; eta optionally pins the overall transmissivity
        (otherwise the product of the three factors is used).
    eps: actual sifted-key error rate; eps_max: highest error rate the
        privacy amplification is provisioned for; delta: tolerated
        probability of an unnoticed estimation failure.
    s: sample pairs sacrificed for error estimation (2*s bits disclosed).
    a: authentication tag length in bits; must satisfy
        a >= strict_ceil(log2(1/delta)).
    n_pulses: pulses per identification-plus-refuelling session.

    The beamsplit fraction eta * mu**2 / (8 * eta_tl) must not exceed
    one.  The channel simulation needs eps below 1/2 (see run_qkd).
    """

    mu: float
    eta_tl: float
    eta_bob: float
    eta_det: float
    eps: float
    eps_max: float
    delta: float
    s: int
    a: int
    n_pulses: int
    eta: float | None = None

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        for name in ("eta_tl", "eta_bob", "eta_det"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ValueError("pinned eta must be in (0, 1]")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must be in [0, 1)")
        if not 0.0 <= self.eps_max < 1.0:
            raise ValueError("eps_max must be in [0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if self.n_pulses < 2:
            raise ValueError("n_pulses must be at least 2")
        min_a = strict_ceil(math.log2(1.0 / self.delta))
        if self.a < min_a:
            raise ValueError(
                f"tag length a={self.a} below strict_ceil(log2(1/delta))={min_a}"
            )
        if self.eta_overall * (self.mu * self.mu) / (8.0 * self.eta_tl) > 1.0:
            raise ValueError(
                f"beamsplit fraction eta*mu**2/(8*eta_tl) above one at "
                f"mu={self.mu}, eta={self.eta_overall}, eta_tl={self.eta_tl}"
            )

    @property
    def eta_overall(self) -> float:
        """Overall transmissivity; the pinned value wins if present."""
        if self.eta is not None:
            return self.eta
        return self.eta_tl * self.eta_bob * self.eta_det

    @classmethod
    def reference(cls) -> "BudgetParams":
        """Reference operating point used throughout the documentation.

        The overall transmissivity is pinned to 0.12, the rounded product
        of the three factors, so that the headline budget numbers come
        out exactly.
        """
        return cls(
            mu=0.8,
            eta_tl=0.63,
            eta_bob=0.35,
            eta_det=0.55,
            eps=0.004,
            eps_max=0.07,
            delta=1e-10,
            s=1000,
            a=61,
            n_pulses=6_250_000,
            eta=0.12,
        )


def min_initial_secret_bits(n_pulses, s: int, a: int):
    """Secret bits consumed by one session's three authenticated messages:
    2s*(strict_ceil(log2 N) + 2) + 32 + 3a.

    Each message costs key material roughly equal to its length plus one
    tag; the three payloads are 2s*strict_ceil(log2 N) position bits,
    4s basis-and-value bits and a 32-bit verdict.  n_pulses may be an
    integer array, and the result then has its shape.  strict_ceil(log2 N)
    is the bit length of N, read exactly from its binary exponent.
    """
    n = np.asarray(n_pulses, dtype=np.int64)
    if np.any(n < 2):
        raise ValueError("n_pulses must be at least 2")
    if s < 0 or a < 0:
        raise ValueError("s and a must be non-negative")
    width = np.frexp(n.astype(float))[1].astype(np.int64)
    width -= (n >> (width - 1)) == 0  # N rounded up to a power of two as a float
    bits = 2 * s * (width + 2) + 32 + 3 * a
    return int(bits) if bits.ndim == 0 else bits


def expected_sifted_len(params: BudgetParams) -> float:
    """Expected sifted-key length eta * mu * N / 2 (small-mu linear form)."""
    return 0.5 * params.eta_overall * params.mu * params.n_pulses


def corrected_len(n_sifted, eps: float):
    """Key bits left after error correction: (1 - 2.7 * eps**(2/3)) * N_S,

    an empirical fit for interactive parity-exchange reconciliation;
    clamped at zero.  n_sifted may be an array.
    """
    if np.any(n_sifted < 0.0):
        raise ValueError("n_sifted must be non-negative")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    return np.maximum(0.0, (1.0 - 2.7 * eps ** (2.0 / 3.0)) * n_sifted)


@dataclass(frozen=True)
class DistilledTerms:
    """Term-by-term breakdown of the distilled-key length.

    total = max(0, corrected - beamsplit - probe_attack - five_sigma
                   - pa_compression); the raw (unclamped) sum is kept for
    reporting.  The terms are floats, or arrays that broadcast.
    """

    corrected: float
    beamsplit: float
    probe_attack: float
    five_sigma: float
    pa_compression: float

    @property
    def raw_total(self) -> float:
        return (
            self.corrected
            - self.beamsplit
            - self.probe_attack
            - self.five_sigma
            - self.pa_compression
        )

    @property
    def total(self) -> float:
        return np.maximum(0.0, self.raw_total)


def _budget_terms(params: BudgetParams, mu, n) -> DistilledTerms:
    """distilled_terms over intensities mu and pulse counts n, which
    broadcast against each other; every other field comes from params.

    Each expression keeps the operation order of expected_sifted_len and
    corrected_len, so an array entry is the float that evaluating one
    (mu, N) point gives.  mu is squared as mu * mu, which is correctly
    rounded; C pow(mu, 2) can be one ulp away off the 0.01 grid.
    """
    eta = params.eta_overall
    n_s = 0.5 * eta * mu * n
    beam_frac = eta * (mu * mu) / (8.0 * params.eta_tl)
    var = n * beam_frac * (1.0 - beam_frac) + (
        2.0 * (LN2 + 1.0) * n_s * params.eps_max / LN2 ** 2
    )
    # an intensity whose beamsplit fraction exceeds one (BudgetParams
    # refuses it at its own mu) keeps no corrected bits, so distils nothing
    possible = beam_frac <= 1.0
    return DistilledTerms(
        corrected=corrected_len(n_s, params.eps) * possible,
        beamsplit=beam_frac * n,
        probe_attack=2.0 * params.eps_max * n_s / LN2,
        five_sigma=5.0 * np.sqrt(np.where(possible, var, 0.0)),
        pa_compression=-math.log(params.delta * LN2) / LN2,
    )


def _intensities(mu_grid, top: float = math.inf) -> np.ndarray:
    mu = np.asarray(mu_grid, dtype=float)
    if mu.size == 0 or not (mu.min() > 0.0 and mu.max() <= top):
        raise ValueError(f"mu grid must lie within (0, {top}]")
    return mu


def distilled_terms(params: BudgetParams) -> DistilledTerms:
    """Distilled-key budget after privacy amplification.

    Penalties against the corrected key: bits an eavesdropper could gain
    by beamsplitting multi-photon pulses given a lossless replacement
    line, bits obtainable by the optimal probe interaction at the
    provisioned error rate eps_max, a five-standard-deviation safety
    margin on both, and the constant compression overhead set by delta.
    Derived in the mu << 1 regime; larger intensities are flagged.
    """
    if params.mu > 1.0:
        warnings.warn(
            f"distilled-key formula assumes mu << 1, got mu={params.mu}",
            stacklevel=2,
        )
    return _budget_terms(params, params.mu, params.n_pulses)


def distilled_len(params: BudgetParams) -> float:
    """Distilled-key length (clamped at zero); see distilled_terms."""
    return float(distilled_terms(params).total)


def distilled_per_pulse(params: BudgetParams, mu_grid) -> np.ndarray:
    """Distilled bits per pulse at each intensity of mu_grid, with
    N = params.n_pulses; one array evaluation, no mu << 1 warning.  An
    intensity whose beamsplit fraction exceeds one distils nothing."""
    mu = _intensities(mu_grid)
    return _budget_terms(params, mu, params.n_pulses).total / params.n_pulses


def default_mu_grid(step: float = 0.01, top: float = 1.5) -> np.ndarray:
    return np.round(np.arange(step, top + step / 2, step), 10)


def optimize_intensity(
    params: BudgetParams, mu_grid=None
) -> tuple[float, float]:
    """Grid search for the pulse intensity maximizing distilled bits per
    pulse at the otherwise fixed operating point.

    Returns (mu_star, best ratio); exact ties go to the earlier grid
    entry, the smaller intensity on a sorted grid.  Raises AllZero when no
    candidate distils anything.
    """
    grid = default_mu_grid() if mu_grid is None else _intensities(mu_grid, 1.5)
    rate = distilled_per_pulse(params, grid)
    best = int(np.argmax(rate))  # the first maximum
    if not rate[best] > 0.0:
        raise AllZero("distilled-key rate is zero over the whole mu grid")
    return float(grid[best]), float(rate[best])


# break_even_grid's entry where no N in the search range breaks even.
NEVER = 0


def break_even_grid(
    params: BudgetParams,
    mu_grid,
    reoptimize_mu: bool = False,
    n_lo: int = 2,
    n_hi: int = 1_000_000_000,
    rel_resolution: float = 1e-3,
    consumption=min_initial_secret_bits,
) -> np.ndarray:
    """break_even_pulses at every intensity of mu_grid, with all the
    brackets bisected at once.

    Entry i is what break_even_pulses returns for params at
    mu = mu_grid[i], or NEVER where it raises NeverBreaksEven.  Each
    bracket [lo, hi] keeps ratio(lo) < 1 <= ratio(hi) and stops once
    hi - lo <= max(1, int(rel_resolution * hi)).  With reoptimize_mu
    each step evaluates the whole default mu grid at the live N values.
    ``consumption`` is called with an int64 array of pulse counts; a
    scalar return is broadcast.
    """
    mu = _intensities(mu_grid)
    tuned = default_mu_grid()

    def breaks_even(at: np.ndarray, n: np.ndarray) -> np.ndarray:
        """ratio(n) >= 1 for the brackets at intensities ``at``."""
        if np.any(n < 2):
            raise ValueError("n_pulses must be at least 2")
        if reoptimize_mu:
            rate = _budget_terms(params, tuned, n[:, None]).total / n[:, None]
            best = rate.max(axis=1)
            gained = best * n
        else:
            gained = _budget_terms(params, at, n).total
        used = np.broadcast_to(consumption(n, params.s, params.a), n.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            even = np.where(used > 0, gained / used >= 1.0, gained >= 0.0)
        # a re-tuned N where no intensity distils anything has ratio 0
        return even & (best > 0.0) if reoptimize_mu else even

    flat = mu.ravel()
    out = np.full(flat.shape, NEVER, dtype=np.int64)
    at_lo = breaks_even(flat, np.full(flat.shape, n_lo, dtype=np.int64))
    out[at_lo] = n_lo
    live = np.flatnonzero(~at_lo)
    if live.size:  # the rest stay NEVER
        n_top = np.full(live.shape, n_hi, dtype=np.int64)
        live = live[breaks_even(flat[live], n_top)]
    lo, hi = (np.full(live.shape, v, dtype=np.int64) for v in (n_lo, n_hi))
    while True:
        done = hi - lo <= np.maximum(1, (rel_resolution * hi).astype(np.int64))
        out[live[done]] = hi[done]
        live, lo, hi = live[~done], lo[~done], hi[~done]
        if live.size == 0:
            return out.reshape(mu.shape)
        mid = (lo + hi) // 2
        up = breaks_even(flat[live], mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)


def break_even_pulses(
    params: BudgetParams,
    reoptimize_mu: bool = False,
    n_lo: int = 2,
    n_hi: int = 1_000_000_000,
    rel_resolution: float = 1e-3,
    consumption=min_initial_secret_bits,
) -> int:
    """Smallest pulse count whose session refuels at least as many secret
    bits as it consumes, found by bisection over N.

    Consumption is min_initial_secret_bits, the three messages' minimum,
    not a session's planned_key_consumption.  With reoptimize_mu the
    intensity is re-tuned at every candidate N.  ``consumption`` is
    injectable for testing; forcing it to zero makes every N break even,
    so the search floor n_lo is returned.  See break_even_grid.
    """
    n = break_even_grid(params, params.mu, reoptimize_mu, n_lo, n_hi,
                        rel_resolution, consumption)
    if n == NEVER:
        raise NeverBreaksEven(
            f"refuelled bits never reach consumption up to N={n_hi}"
        )
    return int(n)
