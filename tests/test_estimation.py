"""Error-rate certification oracles.

The library's Beta-function route and the direct quadrature route below
are written against the same posterior but share no code path below the
density definition, so their agreement is the main correctness check
here.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from qident import estimation, protocol2
from qident.budget import BudgetParams
from qident.core import QidentError
from qident.estimation import (
    NoSolution,
    acceptable_error_count,
    posterior_tail,
    solve_eps_limit,
)
from qident.protocol2 import _accepts


class NumericalFailure(QidentError):
    """Quadrature failed to reach the demanded relative accuracy."""


def posterior_tail_quadrature(
    s: float, eps_est: float, eps_max: float, rel_tol: float = 1e-9
) -> float:
    """posterior_tail by direct quadrature of the normalized posterior
    density, as an independent cross-check of the Beta-function route.

    The density is evaluated in log-space relative to its value at
    eps_max, which keeps the integrand in floating range even when the
    tail mass is far below double precision of the total."""
    if s <= 0:
        raise ValueError("s must be positive")
    if not 0.0 <= eps_est <= 1.0:
        raise ValueError("eps_est must lie in [0, 1]")
    if not 0.0 < eps_max < 1.0:
        raise ValueError("eps_max must lie in (0, 1)")
    a = s * eps_est + 1.0
    b = s * (1.0 - eps_est) + 1.0

    def log_density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return -math.inf
        return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)

    log_norm = special.betaln(a, b)
    ref = log_density(eps_max)

    def integrand(x: float) -> float:
        ld = log_density(x)
        return math.exp(ld - ref) if ld > -math.inf else 0.0

    # mode inside the tail means the bulk of the mass sits there; split
    # the interval so quad sees the peak
    mode = (a - 1.0) / (a + b - 2.0) if a + b > 2.0 else eps_max
    points = [mode] if eps_max < mode < 1.0 else None
    val, err = integrate.quad(integrand, eps_max, 1.0, points=points, limit=200)
    if val > 0.0 and err > rel_tol * val * 1e3:
        raise NumericalFailure(
            f"quadrature error {err:g} too large for value {val:g}"
        )
    log_tail = math.log(val) + ref - log_norm if val > 0.0 else -math.inf
    return math.exp(log_tail)


class TestPosteriorTail:
    def test_two_routes_agree(self, rng):
        cases = [(1000, 0.02451, 0.07), (1000, 0.05, 0.07), (50, 0.0, 0.1)]
        for _ in range(15):
            s = int(rng.integers(50, 2000))
            eps_max = float(rng.uniform(0.05, 0.2))
            eps_est = float(rng.uniform(0.2 * eps_max, eps_max))
            cases.append((s, eps_est, eps_max))
        for s, eps_est, eps_max in cases:
            a = posterior_tail(s, eps_est, eps_max)
            b = posterior_tail_quadrature(s, eps_est, eps_max)
            assert a > 0.0
            assert abs(a - b) <= 1e-8 * a

    def test_monotone_in_estimate(self):
        tails = [posterior_tail(1000, e, 0.07) for e in (0.01, 0.03, 0.05, 0.07)]
        assert tails == sorted(tails)
        assert tails[0] < tails[-1]

    def test_monotone_in_sample_size(self):
        # more data at the same below-ceiling rate shrinks the tail
        tails = [posterior_tail(s, 0.03, 0.07) for s in (100, 1000, 10_000)]
        assert tails == sorted(tails, reverse=True)

    def test_estimate_at_ceiling_splits_mass(self):
        # posterior is nearly symmetric around its mode for large s
        tail = posterior_tail(10_000, 0.07, 0.07)
        assert 0.3 < tail < 0.7

    @pytest.mark.parametrize("args", [(math.nan, 0.01, 0.07), (0.0, 0.01, 0.07),
                                      (1000, math.nan, 0.07), (1000, 0.01, math.nan)])
    def test_rejects_nan_and_empty_samples(self, args):
        with pytest.raises(ValueError):
            posterior_tail(*args)

    def test_quadrature_guard(self):
        with pytest.raises(NumericalFailure):
            posterior_tail_quadrature(1000, 0.05, 0.07, rel_tol=0.0)

    @given(
        st.integers(10, 5000),
        st.floats(0.0, 0.3),
        st.floats(0.01, 0.4),
    )
    def test_is_a_probability(self, s, eps_est, eps_max):
        t = posterior_tail(s, eps_est, eps_max)
        assert 0.0 <= t <= 1.0


class TestEpsLimit:
    def test_anchor(self):
        got = solve_eps_limit(1000, 1e-10, 0.07)
        assert got == pytest.approx(0.02451, abs=5e-5)

    def test_certified_side(self):
        # returned value itself passes; a step above the bracket fails
        lim = solve_eps_limit(1000, 1e-10, 0.07)
        assert posterior_tail(1000, lim, 0.07) <= 1e-10
        assert posterior_tail(1000, lim + 2e-5, 0.07) > 1e-10

    def test_monotone_in_sample_size(self):
        lims = [solve_eps_limit(s, 1e-10, 0.07) for s in (500, 1000, 2000, 4000)]
        assert lims == sorted(lims)
        assert lims[0] < lims[-1]

    def test_approaches_ceiling_from_below(self):
        lim = solve_eps_limit(100_000, 1e-10, 0.07)
        assert 0.06 < lim < 0.07

    def test_monotone_in_delta(self):
        loose = solve_eps_limit(1000, 1e-6, 0.07)
        tight = solve_eps_limit(1000, 1e-10, 0.07)
        assert loose > tight

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_rejects_delta_outside_the_open_unit_interval(self, delta):
        with pytest.raises(ValueError):
            solve_eps_limit(1000, delta, 0.07)

    def test_no_solution_for_tiny_sample(self):
        with pytest.raises(NoSolution):
            solve_eps_limit(10, 1e-10, 0.07)

    def test_saturates_at_ceiling_for_loose_budget(self):
        assert solve_eps_limit(100, 0.9, 0.5) == 0.5

    def test_acceptable_error_count(self):
        k = acceptable_error_count(1000, 1e-10, 0.07)
        assert k == 24
        assert posterior_tail(1000, k / 1000, 0.07) <= 1e-10
        assert posterior_tail(1000, (k + 1) / 1000, 0.07) > 1e-10

    def test_acceptable_error_count_is_the_verdicts_edge(self):
        # the count epslim prints is the highest k a session's verdict
        # accepts on a sample of s.  The verdict compares with the
        # bisection's conservative limit, so a count the posterior alone
        # would certify can still be refused (at s = 848, 18 is)
        params = replace(BudgetParams.reference(), delta=1e-10, eps_max=0.07)
        for s in range(30, 2001):
            try:
                k = acceptable_error_count(s, params.delta, params.eps_max)
            except NoSolution:
                assert not _accepts(0, s, params), s
                continue
            assert _accepts(k, s, params), s
            assert not _accepts(k + 1, s, params), s

    # limits on a count's edge: one ulp below j / s, where limit * s
    # rounds up to j (6, 5; 13, 3), and j / s itself, where it rounds
    # down below j (47, 3; 49, 1), so each stepping loop has work to do
    @pytest.mark.parametrize("s, j", [(6, 5), (13, 3), (47, 3), (49, 1), (22, 15), (1000, 24)])
    @pytest.mark.parametrize("step", [-math.inf, None, math.inf])
    def test_acceptable_error_count_steps_to_the_exact_edge(self, monkeypatch, s, j, step):
        limit = j / s if step is None else math.nextafter(j / s, step)
        for module in (estimation, protocol2):
            monkeypatch.setattr(module, "solve_eps_limit", lambda *_: limit)
        k = acceptable_error_count(s, 1e-10, 0.07)
        assert k == max(k for k in range(s + 1) if k / s <= limit)
        params = BudgetParams.reference()
        assert _accepts(k, s, params) and not _accepts(k + 1, s, params)
