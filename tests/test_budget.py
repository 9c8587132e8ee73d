"""Closed-form analysis oracles.

The numeric anchors here were derived independently of the library code
(direct arithmetic on the defining formulas, exhaustive enumeration for
the probability recurrences) and then frozen.
"""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qident import budget
from qident.budget import (
    AllZero,
    BudgetParams,
    NeverBreaksEven,
    binary_entropy,
    break_even_pulses,
    channel_mutual_info,
    corrected_len,
    critical_guess_probability,
    critical_guess_probability_finite,
    deception_probability_exact,
    distilled_len,
    distilled_terms,
    error_rate_upper_bound,
    expected_sifted_len,
    guess_probability_from_info,
    info_limit,
    log_deception_probability_bound,
    message_bit_lengths,
    min_initial_secret_bits,
    optimal_attack_info,
    optimize_intensity,
    planned_key_consumption,
    position_bits,
    tolerance,
)


def brute_force_deception(p_list, k: int) -> float:
    """Independent oracle: full enumeration over correctness patterns."""
    total = 0.0
    n = len(p_list)
    for pattern in itertools.product((0, 1), repeat=n):  # 1 = wrong guess
        if sum(pattern) > k:
            continue
        prob = 1.0
        for wrong, p in zip(pattern, p_list):
            prob *= (1.0 - p) if wrong else p
        total += prob
    return total


class TestBinaryEntropy:
    def test_anchors(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.11) - 0.49992) < 5e-5

    @given(st.floats(0.001, 0.999))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: binary_entropy(math.nan),
    lambda: channel_mutual_info(math.nan),
    lambda: deception_probability_exact([math.nan] * 5, 1),
    lambda: deception_probability_exact([0.5, math.nan, 0.9], 1),
    lambda: corrected_len(np.array([10.0, math.nan]), 0.004),
], ids=["entropy", "channel-info", "deception-all", "deception-one", "corrected"])
def test_range_checks_refuse_nan(call):
    # a NaN fails every comparison, so a check written as p < 0 or p > 1
    # lets it through to a NaN result
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call", [
    lambda: deception_probability_exact([], 1),
    lambda: deception_probability_exact([0.9], -1),
    lambda: log_deception_probability_bound(100, 0.01, 0.49),
    lambda: critical_guess_probability(0.5),
    lambda: critical_guess_probability_finite(0.01, 1),
    lambda: optimal_attack_info(0.6),
    lambda: guess_probability_from_info(1.5),
    lambda: replace(BudgetParams.reference(), eps=1.0),
    lambda: min_initial_secret_bits(100_000, -1),
    lambda: corrected_len(100.0, 1.0),
], ids=["deception-empty", "deception-negative-k", "bound-p-below-half",
        "critical-at-half", "critical-finite-n-1", "attack-info-above-half",
        "guess-info-above-one", "params-eps-1", "min-secret-negative-s",
        "corrected-eps-1"])
def test_range_checks_raise(call):
    with pytest.raises(ValueError):
        call()


class TestTolerance:
    def test_smallest_count_strictly_above_the_expected_noise(self):
        assert tolerance(50, 0.01) == 1  # 0.5 expected wrong bits
        assert tolerance(100, 0.01) == 2  # exactly 1.0 expected
        assert tolerance(100, 0.0) == 1
        assert tolerance(1, 0.99) == 1

    def test_whole_and_fractional_noise_round_strictly_up(self):
        assert tolerance(200, 0.01) == 3  # exactly 2.0: strictly above it
        assert tolerance(4515, 0.005) == 23  # 22.575 expected

    @given(st.integers(1, 2**62), st.floats(0.0, 1.0, exclude_max=True))
    @example(2**62, 1.0 - 2.0**-53)
    @example(2**53 + 1, 1.0 - 2.0**-53)
    def test_least_count_above_eps_n_and_at_most_n(self, n_is, eps):
        # so the closed-form bound never needs a case for k > N
        k = tolerance(n_is, eps)
        assert k - 1 <= eps * n_is < k
        assert k <= n_is

    def test_at_most_n_next_to_every_power_of_two(self):
        # float rounding of eps * N is widest relative to N just around
        # the powers of two
        top = 1.0 - 2.0**-53
        for j in range(63):
            for n_is in range(max(1, 2**j - 3), 2**j + 4):
                assert tolerance(n_is, top) <= n_is

    @pytest.mark.parametrize("n_is, eps", [(0, 0.1), (10, -0.1), (10, 1.0),
                                           (10, float("nan"))])
    def test_rejects_bad_arguments(self, n_is, eps):
        with pytest.raises(ValueError):
            tolerance(n_is, eps)


class TestDeceptionExact:
    def test_matches_enumeration(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 13))
            p_list = rng.random(n).tolist()
            k = int(rng.integers(0, n + 1))
            got = deception_probability_exact(p_list, k)
            want = brute_force_deception(p_list, k)
            assert abs(got - want) <= 1e-12

    def test_k_at_least_n_means_certainty(self, rng):
        p_list = rng.random(8).tolist()
        assert deception_probability_exact(p_list, 8) == pytest.approx(1.0)

    def test_perfect_guessing(self):
        assert deception_probability_exact([1.0] * 10, 0) == pytest.approx(1.0)

    def test_bound_dominates(self, rng):
        # the closed-form bound must never fall below the exact value
        # when all bits share the same guess probability in [1/2, 1]
        for _ in range(50):
            n = int(rng.integers(2, 13))
            eps = float(rng.uniform(0.0, 0.4))
            p_bar = float(rng.uniform(0.5, 1.0))
            k = tolerance(n, eps)
            exact = deception_probability_exact([p_bar] * n, min(k, n))
            bound = math.exp(log_deception_probability_bound(n, eps, p_bar))
            assert bound >= exact - 1e-12

    def test_headline_bound_value(self):
        # N=50, eps=0.01, p_bar=0.6: bound = 0.6**50 * 2 * 50
        log_b = log_deception_probability_bound(50, 0.01, 0.6)
        assert math.exp(log_b) == pytest.approx(0.6**50 * 100, rel=1e-9)


class TestCriticalGuessProbability:
    def test_anchor(self):
        assert critical_guess_probability(0.01) == pytest.approx(
            0.9390063792246772, abs=1e-12
        )
        assert critical_guess_probability(0.066) == pytest.approx(
            0.7490760339841308, abs=1e-12
        )

    def test_finite_n_converges(self):
        # large-sequence evaluation approaches the closed form
        for eps in (0.01, 0.03, 0.05, 0.08, 0.1):
            finite = critical_guess_probability_finite(eps, 1_000_000)
            assert abs(finite - critical_guess_probability(eps)) <= 1e-4

    def test_threshold_dichotomy(self):
        # below the threshold the impersonation bound decays with length,
        # above it the bound's log grows without limit
        eps = 0.02
        pc = critical_guess_probability(eps)
        for n in (100, 1_000, 10_000):
            below = log_deception_probability_bound(n, eps, pc - 0.02)
            above = log_deception_probability_bound(n, eps, min(1.0, pc + 0.02))
            assert below < log_deception_probability_bound(
                max(2, n // 10), eps, pc - 0.02
            )
            assert above > 0.0 or n < 200
        # decay really is geometric in n below threshold
        l1 = log_deception_probability_bound(1_000, eps, pc - 0.02)
        l2 = log_deception_probability_bound(10_000, eps, pc - 0.02)
        assert l2 < 5 * l1


class TestInformationCurves:
    def test_info_limit_anchor(self):
        assert info_limit(0.066) == pytest.approx(0.18726070575622122, abs=1e-9)

    def test_attack_info_guess_rate_anchor(self):
        # the optimal probe at one percent error guesses each bit with
        # probability very close to 0.6
        p_bar = guess_probability_from_info(optimal_attack_info(0.01))
        assert p_bar == pytest.approx(0.5994987437, abs=1e-6)

    def test_channel_info(self):
        assert channel_mutual_info(0.0) == 1.0
        assert channel_mutual_info(0.5) == 0.0

    def test_guess_probability_roundtrip(self):
        for p in (0.5, 0.6, 0.75, 0.9, 0.99):
            info = 1.0 - binary_entropy(p)
            assert guess_probability_from_info(info) == pytest.approx(p, abs=1e-9)

    def test_error_rate_upper_bound_anchor(self):
        # crossing of the attack curve with the defendable limit
        assert error_rate_upper_bound() == pytest.approx(0.0661868653, abs=2e-4)
        # the search range brackets the crossing
        assert optimal_attack_info(0.01) < info_limit(0.01)
        assert optimal_attack_info(0.15) > info_limit(0.15)


class TestBudgetFormulas:
    def test_min_initial_secret_bits_anchor(self):
        assert min_initial_secret_bits(6_250_000, 1000) == 50_215

    def test_min_initial_secret_scales_with_position_width(self):
        # crossing a power of two widens every transmitted position field
        # by one bit, costing exactly two bits per sampled position
        assert (
            min_initial_secret_bits(2**23, 1000)
            - min_initial_secret_bits(2**23 - 1, 1000)
            == 2 * 1000
        )

    def test_expected_sifted_anchor(self, reference_params):
        assert expected_sifted_len(reference_params) == 300_000.0

    def test_corrected_anchor(self, reference_params):
        n_s = expected_sifted_len(reference_params)
        assert corrected_len(n_s, 0.004) == pytest.approx(279589.278992, abs=1e-4)
        assert corrected_len(100.0, 0.9) == 0.0  # clamped

    def test_distilled_terms_decomposition(self, reference_params):
        t = distilled_terms(reference_params)
        assert t.corrected == pytest.approx(279589.278992, abs=1e-4)
        assert t.beamsplit == pytest.approx(95238.095238, abs=1e-4)
        assert t.probe_attack == pytest.approx(60593.191717, abs=1e-4)
        assert t.five_sigma == pytest.approx(2458.645648, abs=1e-4)
        assert t.pa_compression == pytest.approx(33.748047, abs=1e-6)
        assert t.total == pytest.approx(121265.5983, abs=1e-2)
        assert t.total == t.corrected - t.beamsplit - t.probe_attack \
            - t.five_sigma - t.pa_compression

    def test_distilled_len_matches_terms(self, reference_params):
        assert distilled_len(reference_params) == distilled_terms(reference_params).total

    def test_rate_increases_with_n(self, reference_params):
        # fixed costs amortize: distilled bits per pulse grow with N
        rates = [
            distilled_len(replace(reference_params, n_pulses=n)) / n
            for n in (10_000, 100_000, 1_000_000, 6_250_000)
        ]
        assert rates == sorted(rates)

    def test_params_refuse_delta_below_one_tag_forgery(self, reference_params):
        # one 61-bit tag over GF(2**61 - 1) is forged with probability
        # 2**-61, so no session fails less often than that
        for delta in (2.0**-61, 2.0**-70, 1e-30):
            with pytest.raises(ValueError, match=r"delta must be in \(2\*\*-61, 1\)"):
                replace(reference_params, delta=delta)
        assert replace(reference_params, delta=2.0**-60).delta == 2.0**-60

    def test_params_validate_estimation_fields(self, reference_params):
        # s, eps_max and delta size the Bayesian acceptance test
        for bad in (dict(s=-1), dict(eps_max=1.5), dict(delta=0.0)):
            with pytest.raises(ValueError):
                replace(reference_params, **bad)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite_mu(self, reference_params, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            replace(reference_params, mu=mu)

    def test_params_reject_beamsplit_fraction_above_one(self, reference_params):
        # eta * mu**2 / (8 * eta_tl) = 2.5: no such share of pulses exists
        with pytest.raises(ValueError, match=r"mu=1\.0, eta=1\.0, eta_tl=0\.05"):
            replace(reference_params, eta=1.0, eta_tl=0.05, mu=1.0)
        # the same fraction at an intensity past one
        with pytest.raises(ValueError, match="beamsplit fraction"):
            replace(reference_params, eta=0.05, eta_tl=0.05, mu=3.0)
        edge = replace(reference_params, eta=1.0, eta_tl=0.125, mu=1.0)  # exactly one
        assert distilled_terms(edge).beamsplit == edge.n_pulses

    def test_sweep_past_a_beamsplit_fraction_of_one_distils_nothing(self, reference_params):
        # at eta = 1, eta_tl = 0.2 the fraction passes one above mu = 1.26;
        # mu = 0.8 itself is valid (fraction 0.4)
        params = replace(reference_params, eta=1.0, eta_tl=0.2)
        grid = budget.default_mu_grid()
        impossible = grid * grid / 1.6 > 1.0
        assert impossible.any() and not impossible.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN from a negative variance
            rate = budget.distilled_per_pulse(params, grid)
            assert np.all(rate[impossible] == 0.0)
            assert np.all(np.isfinite(rate))
            mu_star, _ = optimize_intensity(params)
            assert not impossible[np.flatnonzero(grid == mu_star)].any()
            never = budget.break_even_grid(params, grid[impossible])
            assert np.all(never == budget.NEVER)
            # off the grid, at eta * mu = 3 with no error terms, the
            # corrected bits alone outweigh the beamsplit term (fraction 1.25)
            ideal = replace(params, eta_tl=0.9, eps=0.0, eps_max=0.0)
            assert budget.distilled_per_pulse(ideal, [3.0]) == 0.0
        with pytest.raises(ValueError, match="beamsplit fraction"):
            replace(params, mu=1.3)

    def test_mu_warning(self, reference_params):
        with pytest.warns(UserWarning):
            distilled_len(replace(reference_params, mu=1.2))


class TestOptimization:
    def test_lossier_line_prefers_weaker_pulses(self, reference_params):
        # a lossier transmission line inflates the passive-tap penalty,
        # pushing the best intensity down
        lossy = replace(reference_params, eta_tl=0.2, eta=0.2 * 0.35 * 0.55)
        mu_lossy, _ = optimize_intensity(lossy)
        mu_ref, _ = optimize_intensity(reference_params)
        assert mu_lossy < mu_ref

    def test_all_zero(self, reference_params):
        dead = replace(reference_params, eps=0.3)  # error correction eats it all
        with pytest.raises(AllZero):
            optimize_intensity(dead)

    def test_ties_go_to_smaller_mu(self, reference_params, monkeypatch):
        # a grid whose intensities all repeat 0.8
        monkeypatch.setattr(budget, "default_mu_grid", lambda: np.full(5, 0.8))
        mu, rate = optimize_intensity(reference_params)
        assert mu == 0.8 and rate > 0

    def test_break_even_monotone_in_eps_max(self, reference_params):
        lo = break_even_pulses(reference_params)
        hi = break_even_pulses(replace(reference_params, eps_max=0.1))
        assert hi > lo

    def test_break_even_never(self, reference_params):
        dead = replace(reference_params, eps=0.3)
        with pytest.raises(NeverBreaksEven):
            break_even_pulses(dead)

    def test_break_even_is_a_crossing(self, reference_params):
        n_star = break_even_pulses(reference_params)

        def net(n):
            p = replace(reference_params, n_pulses=n)
            return distilled_len(p) - min_initial_secret_bits(n, reference_params.s)

        assert net(n_star) >= 0
        assert net(int(n_star * 0.9)) < net(n_star)


# -- one-point oracle ---------------------------------------------------
# The scalar budget code the array functions replaced, kept verbatim:
# one frozen BudgetParams per grid point and per bisection step.


def oracle_min_initial_secret_bits(n_pulses, s):
    return 2 * s * (math.floor(math.log2(n_pulses)) + 1 + 2) + 32 + 3 * 61


def oracle_terms(params):
    n = params.n_pulses
    eta = params.eta
    n_s = 0.5 * eta * params.mu * n
    n_c = max(0.0, (1.0 - 2.7 * params.eps ** (2.0 / 3.0)) * n_s)
    beam_frac = eta * params.mu ** 2 / (8.0 * params.eta_tl)
    var = n * beam_frac * (1.0 - beam_frac) + (
        2.0 * (budget.LN2 + 1.0) * n_s * params.eps_max / budget.LN2 ** 2
    )
    return (n_c, beam_frac * n, 2.0 * params.eps_max * n_s / budget.LN2,
            5.0 * math.sqrt(var), -math.log(params.delta * budget.LN2) / budget.LN2)


def oracle_distilled_len(params):
    c, b, p, f, pa = oracle_terms(params)
    return max(0.0, c - b - p - f - pa)


def oracle_distilled_len_at(params, mu):
    """oracle_distilled_len at intensity mu; an intensity whose beamsplit
    fraction exceeds one, which BudgetParams refuses, distils nothing."""
    try:
        return oracle_distilled_len(replace(params, mu=mu))
    except ValueError as e:
        assert "beamsplit fraction" in str(e)
        return 0.0


def oracle_optimize_intensity(params):
    grid = np.round(np.arange(0.01, 1.505, 0.01), 10)
    best_mu, best_ratio = None, 0.0
    for mu in grid:
        ratio = oracle_distilled_len_at(params, float(mu)) / params.n_pulses
        if ratio > best_ratio:
            best_mu, best_ratio = float(mu), float(ratio)
    if best_mu is None:
        raise AllZero("distilled-key rate is zero over the whole mu grid")
    return best_mu, best_ratio


def oracle_break_even_pulses(params, reoptimize_mu=False,
                             consumption=oracle_min_initial_secret_bits, mu=None):
    n_lo, n_hi, rel_resolution = 2, 1_000_000_000, 1e-3
    mu = params.mu if mu is None else mu

    def ratio(n):
        p = replace(params, n_pulses=n)
        if reoptimize_mu:
            try:
                _, rate = oracle_optimize_intensity(p)
            except AllZero:
                return 0.0
            gained = rate * n
        else:
            gained = oracle_distilled_len_at(p, mu)
        return gained / consumption(n, params.s)

    if ratio(n_lo) >= 1.0:
        return n_lo
    if ratio(n_hi) < 1.0:
        raise NeverBreaksEven(f"never up to N={n_hi}")
    lo, hi = n_lo, n_hi
    while hi - lo > max(1, int(rel_resolution * hi)):
        mid = (lo + hi) // 2
        if ratio(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(fn, *args, **kwargs):
    """A call's value, or the type of the library exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, AllZero, NeverBreaksEven) as e:
        return type(e)


GRID_MU = [float(m) for m in budget.default_mu_grid()] + [0.8]


@st.composite
def budget_params(draw, mu=st.sampled_from(GRID_MU)):
    fields = dict(
        mu=draw(mu),
        eta=draw(st.floats(0.002, 1.0)),
        eta_tl=draw(st.floats(0.05, 1.0)),
        # mostly near the reference point, where sessions break even
        eps=draw(st.floats(0.0, 0.02) | st.floats(0.0, 0.3)),
        eps_max=draw(st.floats(0.0, 0.1) | st.floats(0.0, 0.3)),
        delta=draw(st.floats(1e-12, 0.5)),
        s=draw(st.integers(0, 3000)),
        n_pulses=draw(st.integers(2, 10**8)),
    )
    # only points that can be built: a beamsplit fraction of at most one
    assume(fields["eta"] * (fields["mu"] * fields["mu"]) / (8.0 * fields["eta_tl"]) <= 1.0)
    return BudgetParams(**fields)


class TestArrayPathMatchesOracle:
    def test_reference_numbers(self, reference_params):
        assert optimize_intensity(reference_params) == (0.91, pytest.approx(0.0197, abs=1e-4))
        assert break_even_pulses(reference_params) == 2_515_792
        assert break_even_pulses(reference_params, reoptimize_mu=True) == 2_481_460

    @settings(max_examples=150, deadline=None)
    @given(budget_params())
    def test_optimize_intensity(self, params):
        assert outcome(optimize_intensity, params) == outcome(
            oracle_optimize_intensity, params)

    @settings(max_examples=150, deadline=None)
    @given(budget_params(), st.booleans())
    def test_break_even_pulses(self, params, reopt):
        assert outcome(break_even_pulses, params, reopt) == \
            outcome(oracle_break_even_pulses, params, reopt)

    @settings(max_examples=80, deadline=None)
    @given(budget_params(), st.lists(st.sampled_from(GRID_MU), min_size=1, max_size=12))
    def test_break_even_grid(self, params, grid):
        # one bracket per intensity, each as if searched on its own
        got = outcome(budget.break_even_grid, params, grid)
        want = [outcome(oracle_break_even_pulses, params, mu=m) for m in grid]
        if ValueError in want:
            assert got is ValueError
        else:
            assert got.tolist() == [budget.NEVER if w is NeverBreaksEven else w
                                    for w in want]

    @settings(max_examples=150, deadline=None)
    @given(budget_params(), st.lists(st.sampled_from(GRID_MU), min_size=1, max_size=40),
           st.booleans())
    def test_nothing_breaks_even_at_two_pulses(self, params, grid, reopt):
        # the condition that lets the search start at N = 2 unprobed
        at_two = replace(params, n_pulses=2)
        if reopt:
            rates = budget.distilled_per_pulse(at_two, budget.default_mu_grid())
        else:
            rates = budget.distilled_per_pulse(at_two, grid)
        assert rates.max() * 2 < min_initial_secret_bits(2, params.s)

    @settings(max_examples=150, deadline=None)
    @given(budget_params(), st.lists(st.sampled_from(GRID_MU), min_size=1, max_size=40))
    def test_rates_on_grid_values_are_exact(self, params, grid):
        want = [oracle_distilled_len_at(params, m) / params.n_pulses for m in grid]
        assert budget.distilled_per_pulse(params, grid).tolist() == want

    @pytest.mark.filterwarnings("ignore:distilled-key formula assumes")
    @settings(max_examples=150, deadline=None)
    @given(budget_params(mu=st.floats(1e-6, 1.5)))
    def test_off_grid_terms_within_a_few_ulp(self, params):
        # mu * mu is correctly rounded and C pow(mu, 2) need not be; the
        # 1-ulp difference in mu**2 reaches each term through <= 3 roundings
        want = outcome(oracle_terms, params)
        if want is ValueError:
            assert outcome(distilled_terms, params) is ValueError
            return
        got = distilled_terms(params)
        got_terms = (got.corrected, got.beamsplit, got.probe_attack,
                     got.five_sigma, got.pa_compression)
        for g, w in zip(got_terms, want):
            assert abs(g - w) <= 4 * math.ulp(w)
        assert abs(got.total - oracle_distilled_len(params)) <= 4 * 2.0 ** -52 * sum(want)

    def test_a_ratio_of_exactly_one_breaks_even(self, reference_params, monkeypatch):
        # consumption equal to the gain from N = 1,234 on and one bit above
        # it below: each ratio from there on is 1.0, and brackets this
        # narrow close to one pulse, so only ratio >= 1 finds 1,234
        p = replace(reference_params, eta=1.0, eta_tl=1.0, mu=1.0)

        def gain(n, s):
            return oracle_distilled_len(replace(p, n_pulses=int(n))) + (n < 1234)

        assert oracle_distilled_len(replace(p, n_pulses=1234)) > 0
        assert oracle_break_even_pulses(p, consumption=gain) == 1234
        monkeypatch.setattr(budget, "min_initial_secret_bits", np.vectorize(gain))
        assert break_even_pulses(p) == 1234

    def test_retuned_rate_of_zero_never_breaks_even(self, reference_params):
        # no intensity distils anything: ratio 0 at every N
        dead = replace(reference_params, eps=0.3)
        for fn in (oracle_break_even_pulses, break_even_pulses):
            with pytest.raises(NeverBreaksEven):
                fn(dead, reoptimize_mu=True)

    def test_exact_ties_go_to_the_earlier_entry(self, reference_params, monkeypatch):
        # distinct intensities never tie on real rates, so flatten them
        monkeypatch.setattr(budget, "distilled_per_pulse",
                            lambda params, grid: np.ones(np.shape(grid)))
        assert optimize_intensity(reference_params) == (0.01, 1.0)

    def test_grid_validated_once(self, reference_params):
        for bad in ([], [0.0, 0.5], [-0.1], [math.nan], [0.5, math.inf]):
            with pytest.raises(ValueError):
                budget.distilled_per_pulse(reference_params, bad)
            with pytest.raises(ValueError):
                budget.break_even_grid(reference_params, bad)

    def test_injected_consumption_sees_arrays(self, reference_params, monkeypatch):
        seen = []

        def consumption(n, s):
            seen.append(np.shape(n))
            return min_initial_secret_bits(n, s)

        grid = [0.5, 0.8, 0.9]
        monkeypatch.setattr(budget, "min_initial_secret_bits", consumption)
        got = budget.break_even_grid(reference_params, grid)
        assert got.tolist() == [oracle_break_even_pulses(replace(reference_params, mu=m))
                                for m in grid]
        assert all(shape[0] <= len(grid) for shape in seen)


class TestSizing:
    def test_position_field_bits(self):
        # two s fields, each as wide as the bit length of N
        for n, width in ((6_250_000, 23), (100_000, 17)):
            assert message_bit_lengths(n, 3)[0] == 6 * width

    def test_planned_consumption_and_minimum_share_the_position_width(self):
        # exact widths: from 2**49 - 1 on, a float log2 reads one bit more
        s = 1000
        for n in [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]:
            width = n.bit_length()
            assert message_bit_lengths(n, s)[0] == 2 * s * width
            assert min_initial_secret_bits(n, s) == 2 * s * (width + 2) + 32 + 3 * 61
        assert planned_key_consumption(2**49 - 1, s) == 102_297

    def test_message_lengths(self):
        # positions, bases and bits, verdict: in message order
        assert message_bit_lengths(6_250_000, 1000) == (46_000, 4_000, 32)
        lengths = message_bit_lengths(np.array([100_000, 6_250_000]), 1000)
        assert lengths[0].tolist() == [34_000, 46_000] and lengths[1:] == (4_000, 32)

    def test_planned_key_consumption_anchor(self):
        # 756 + 67 + 2 encoding words of 61 bits each
        assert planned_key_consumption(6_250_000, 1000) == 50_325
        assert planned_key_consumption(100_000, 1000) == 38_308

    def test_consumption_covers_the_floor(self):
        for n in (100_000, 1_000_000, 6_250_000):
            assert planned_key_consumption(n, 1000) >= min_initial_secret_bits(n, 1000)


class TestMinInitialSecretBitsArrays:
    N = [2, 3, 1000, 6_250_000, 10**9] + [
        n for k in range(2, 49) for n in (2**k - 1, 2**k, 2**k + 1)]

    def test_array_equals_scalar_and_oracle(self):
        got = min_initial_secret_bits(np.array(self.N, dtype=np.int64), 1000)
        assert got.dtype == np.int64 and got.shape == (len(self.N),)
        assert got.tolist() == [min_initial_secret_bits(n, 1000) for n in self.N]
        assert got.tolist() == [oracle_min_initial_secret_bits(n, 1000) for n in self.N]
        assert isinstance(min_initial_secret_bits(6_250_000, 1000), int)

    def test_width_is_the_exact_bit_length(self):
        # a rounded log2 overcounts just below 2**49 and up; the exponent
        # does not, up to the int64 limit
        n = [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]
        got = min_initial_secret_bits(np.array(n, dtype=np.int64), 7)
        assert got.tolist() == [2 * 7 * (v.bit_length() + 2) + 32 + 3 * 61 for v in n]

    def test_position_bits_is_the_bit_length(self):
        n = [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]
        assert [position_bits(v) for v in n] == [v.bit_length() for v in n]
        assert all(isinstance(position_bits(v), int) for v in n)
        got = position_bits(np.array(n, dtype=np.int64))
        assert got.shape == (len(n),)
        assert got.tolist() == [v.bit_length() for v in n]

    def test_rejects_short_sessions_in_arrays(self):
        with pytest.raises(ValueError):
            min_initial_secret_bits(np.array([5, 1]), 1000)
