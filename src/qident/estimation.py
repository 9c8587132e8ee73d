"""Bayesian certification of the channel error rate from a public
sample.

A sample of s sifted bits is compared in public; k mismatches give the
point estimate k/s.  With a flat prior the posterior over the true
error rate is Beta(k + 1, s - k + 1), and the quantity that matters is
the posterior tail above a ceiling eps_max: accept only when that tail
is at most the failure budget delta.  solve_eps_limit inverts the test,
returning the largest observed rate that still certifies the ceiling.

The tail is the regularized incomplete Beta function, mirrored to the
lower tail so nothing cancels.  The tests check it against direct
log-space quadrature of the posterior density.
"""

from __future__ import annotations

import math

from scipy import special

from .core import QidentError

__all__ = [
    "NoSolution",
    "posterior_tail",
    "solve_eps_limit",
    "acceptable_error_count",
]


class NoSolution(QidentError):
    """No observed rate certifies the ceiling; the sample is too small
    for this (eps_max, delta) pair."""


def posterior_tail(s: float, eps_est: float, eps_max: float) -> float:
    """Posterior probability that the true error rate exceeds eps_max
    given s comparisons with observed rate eps_est, flat prior.

    Uses the mirror identity of the regularized incomplete Beta so the
    tiny tail is computed directly rather than as 1 minus something
    close to 1.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    if not 0.0 <= eps_est <= 1.0:
        raise ValueError("eps_est must lie in [0, 1]")
    if not 0.0 < eps_max < 1.0:
        raise ValueError("eps_max must lie in (0, 1)")
    alpha = s * eps_est + 1.0
    beta = s * (1.0 - eps_est) + 1.0
    return float(special.betainc(beta, alpha, 1.0 - eps_max))


def solve_eps_limit(s: int, delta: float, eps_max: float) -> float:
    """Largest observed error rate that still certifies the ceiling:
    max eps_est with posterior_tail(s, eps_est, eps_max) <= delta.

    Bisection to a bracket width of 1e-5; the returned value is the
    certified lower end of the final bracket, so the acceptance test it
    induces is never optimistic.  Comparisons run in log-space.
    Raises NoSolution when even a clean sample (eps_est = 0) fails.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log_delta = math.log(delta)

    def ok(eps_est: float) -> bool:
        tail = posterior_tail(s, eps_est, eps_max)
        if tail == 0.0:
            return True
        return math.log(tail) <= log_delta

    if not ok(0.0):
        raise NoSolution(
            f"sample of {s} cannot certify eps_max={eps_max} at delta={delta}"
        )
    lo, hi = 0.0, eps_max
    if ok(hi):
        return hi
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def acceptable_error_count(s: int, delta: float, eps_max: float) -> int:
    """Largest k with k / s <= solve_eps_limit(s, delta, eps_max): the
    highest mismatch count a session's verdict accepts on s bits."""
    limit = solve_eps_limit(s, delta, eps_max)
    k = math.floor(limit * s)
    # limit * s may round across an integer; step to the exact edge
    while (k + 1) / s <= limit:
        k += 1
    while k / s > limit:
        k -= 1
    return k
