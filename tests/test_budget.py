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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qident import budget
from qident.budget import (
    AllZero,
    BudgetParams,
    DeceptionParams,
    NeverBreaksEven,
    NoRoot,
    binary_entropy,
    break_even_pulses,
    channel_mutual_info,
    corrected_len,
    critical_guess_probability,
    critical_guess_probability_finite,
    deception_probability_bound,
    deception_probability_exact,
    distilled_len,
    distilled_terms,
    error_rate_upper_bound,
    expected_sifted_len,
    guess_probability_from_info,
    info_limit,
    log_deception_probability_bound,
    min_initial_secret_bits,
    optimal_attack_info,
    optimize_intensity,
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
            k = DeceptionParams(n_is=n, eps=eps, p_bar=p_bar).k
            exact = deception_probability_exact([p_bar] * n, min(k, n))
            bound = deception_probability_bound(n, eps, p_bar)
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
        # crossing of the default attack curve with the defendable limit
        assert error_rate_upper_bound() == pytest.approx(0.0661868653, abs=2e-4)

    def test_upper_bound_saturates_at_left_edge(self):
        # an attack that always beats the limit pins the bound at lo
        assert error_rate_upper_bound(attack_info=lambda e: 1.0, lo=0.02) == 0.02

    def test_upper_bound_no_crossing(self):
        with pytest.raises(NoRoot):
            error_rate_upper_bound(attack_info=lambda e: 0.0)


class TestBudgetFormulas:
    def test_min_initial_secret_bits_anchor(self):
        assert min_initial_secret_bits(6_250_000, 1000, 61) == 50_215

    def test_min_initial_secret_scales_with_position_width(self):
        # crossing a power of two widens every transmitted position field
        # by one bit, costing exactly two bits per sampled position
        assert (
            min_initial_secret_bits(2**23, 1000, 61)
            - min_initial_secret_bits(2**23 - 1, 1000, 61)
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

    def test_params_validate_tag_length(self):
        with pytest.raises(ValueError):
            BudgetParams(
                mu=0.8, eta_tl=0.63, eta_bob=0.35, eta_det=0.55,
                eps=0.004, eps_max=0.07, delta=1e-10, s=1000,
                a=30,  # too short for delta=1e-10
                n_pulses=1000,
            )

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
        # the same fraction from the product of the three factors
        with pytest.raises(ValueError, match="beamsplit fraction"):
            replace(reference_params, eta=None, eta_tl=0.05, eta_bob=1.0,
                    eta_det=1.0, mu=3.0)
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
            never = budget.break_even_grid(params, grid[impossible], n_hi=10**7)
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
        lossy = replace(reference_params, eta_tl=0.2, eta=None)
        mu_lossy, _ = optimize_intensity(lossy)
        mu_ref, _ = optimize_intensity(reference_params)
        assert mu_lossy < mu_ref

    def test_all_zero(self, reference_params):
        dead = replace(reference_params, eps=0.3)  # error correction eats it all
        with pytest.raises(AllZero):
            optimize_intensity(dead)

    def test_ties_go_to_smaller_mu(self, reference_params):
        mu, rate = optimize_intensity(reference_params, mu_grid=[0.8, 0.8])
        assert mu == 0.8 and rate > 0

    def test_break_even_monotone_in_eps_max(self, reference_params):
        lo = break_even_pulses(reference_params)
        hi = break_even_pulses(replace(reference_params, eps_max=0.1))
        assert hi > lo

    def test_break_even_floor_with_zero_consumption(self, reference_params):
        n = break_even_pulses(
            reference_params, n_lo=2, consumption=lambda *a: 0
        )
        assert n == 2

    def test_break_even_never(self, reference_params):
        dead = replace(reference_params, eps=0.3)
        with pytest.raises(NeverBreaksEven):
            break_even_pulses(dead, n_hi=10_000_000)

    def test_break_even_is_a_crossing(self, reference_params):
        n_star = break_even_pulses(reference_params)

        def net(n):
            p = replace(reference_params, n_pulses=n)
            return distilled_len(p) - min_initial_secret_bits(
                n, reference_params.s, reference_params.a
            )

        assert net(n_star) >= 0
        assert net(int(n_star * 0.9)) < net(n_star)


# -- one-point oracle ---------------------------------------------------
# The scalar budget code the array functions replaced, kept verbatim:
# one frozen BudgetParams per grid point and per bisection step.


def oracle_min_initial_secret_bits(n_pulses, s, a):
    return 2 * s * (math.floor(math.log2(n_pulses)) + 1 + 2) + 32 + 3 * a


def oracle_terms(params):
    n = params.n_pulses
    eta = params.eta_overall
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


def oracle_optimize_intensity(params, mu_grid=None):
    grid = budget.default_mu_grid() if mu_grid is None else np.asarray(mu_grid, float)
    if grid.size == 0 or grid.min() <= 0.0 or grid.max() > 1.5:
        raise ValueError("mu grid must lie within (0, 1.5]")
    best_mu, best_ratio = None, 0.0
    for mu in grid:
        ratio = oracle_distilled_len_at(params, float(mu)) / params.n_pulses
        if ratio > best_ratio:
            best_mu, best_ratio = float(mu), float(ratio)
    if best_mu is None:
        raise AllZero("distilled-key rate is zero over the whole mu grid")
    return best_mu, best_ratio


def oracle_break_even_pulses(params, reoptimize_mu=False, n_lo=2,
                             n_hi=1_000_000_000, rel_resolution=1e-3,
                             consumption=oracle_min_initial_secret_bits, mu=None):
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
        used = consumption(n, params.s, params.a)
        if used <= 0:
            return math.inf if gained >= 0.0 else 0.0
        return gained / used

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
    delta = draw(st.floats(1e-12, 0.5))
    fields = dict(
        mu=draw(mu),
        eta_tl=draw(st.floats(0.05, 1.0)),
        eta_bob=draw(st.floats(0.2, 1.0)),
        eta_det=draw(st.floats(0.2, 1.0)),
        # mostly near the reference point, where sessions break even
        eps=draw(st.floats(0.0, 0.02) | st.floats(0.0, 0.3)),
        eps_max=draw(st.floats(0.0, 0.1) | st.floats(0.0, 0.3)),
        delta=delta,
        s=draw(st.integers(0, 3000)),
        a=math.floor(math.log2(1.0 / delta)) + 1 + draw(st.integers(0, 5)),
        n_pulses=draw(st.integers(2, 10**8)),
        eta=draw(st.none() | st.floats(0.01, 1.0)),
    )
    # only points that can be built: a beamsplit fraction of at most one
    eta = fields["eta"] or fields["eta_tl"] * fields["eta_bob"] * fields["eta_det"]
    assume(eta * (fields["mu"] * fields["mu"]) / (8.0 * fields["eta_tl"]) <= 1.0)
    return BudgetParams(**fields)


# consumption: the default, or an injected constant (called with arrays)
CONSUMPTIONS = st.sampled_from([None, None, None, 0, 40_000])


def consumption_pair(c):
    if c is None:
        return min_initial_secret_bits, oracle_min_initial_secret_bits
    return (lambda *a: c), (lambda *a: c)


SEARCH = st.fixed_dictionaries(dict(
    n_lo=st.integers(2, 10**6),
    n_hi=st.integers(10**6, 10**9) | st.integers(2, 10**6),
    rel_resolution=st.floats(0.0, 0.05),
))


class TestArrayPathMatchesOracle:
    def test_reference_numbers(self, reference_params):
        assert optimize_intensity(reference_params) == (0.91, pytest.approx(0.0197, abs=1e-4))
        assert break_even_pulses(reference_params) == 2_515_792
        assert break_even_pulses(reference_params, reoptimize_mu=True) == 2_481_460

    @settings(max_examples=150, deadline=None)
    @given(budget_params(), st.lists(st.sampled_from(GRID_MU), min_size=1, max_size=40))
    def test_optimize_intensity(self, params, grid):
        assert outcome(optimize_intensity, params, grid) == outcome(
            oracle_optimize_intensity, params, grid)
        assert outcome(optimize_intensity, params) == outcome(
            oracle_optimize_intensity, params)

    @settings(max_examples=150, deadline=None)
    @given(budget_params(), st.booleans(), CONSUMPTIONS, SEARCH)
    def test_break_even_pulses(self, params, reopt, c, search):
        lib_c, oracle_c = consumption_pair(c)
        search = dict(search, reoptimize_mu=reopt)
        assert outcome(break_even_pulses, params, consumption=lib_c, **search) == \
            outcome(oracle_break_even_pulses, params, consumption=oracle_c, **search)

    @settings(max_examples=80, deadline=None)
    @given(budget_params(), st.lists(st.sampled_from(GRID_MU), min_size=1, max_size=12),
           CONSUMPTIONS, SEARCH)
    def test_break_even_grid(self, params, grid, c, search):
        # one bracket per intensity, each as if searched on its own
        lib_c, oracle_c = consumption_pair(c)
        got = outcome(budget.break_even_grid, params, grid, consumption=lib_c, **search)
        want = [outcome(oracle_break_even_pulses, params, consumption=oracle_c,
                        mu=m, **search) for m in grid]
        if ValueError in want:
            assert got is ValueError
        else:
            assert got.tolist() == [budget.NEVER if w is NeverBreaksEven else w
                                    for w in want]

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

    def test_a_ratio_of_exactly_one_breaks_even(self, reference_params):
        # consumption equal to the gain at every N: each ratio is 1.0
        p = reference_params

        def gain(n, s, a):
            return oracle_distilled_len(replace(p, n_pulses=int(n)))

        assert oracle_break_even_pulses(p, n_lo=10_000, consumption=gain) == 10_000
        assert break_even_pulses(p, n_lo=10_000, consumption=np.vectorize(gain)) == 10_000

    def test_retuned_rate_of_zero_never_breaks_even(self, reference_params):
        # no intensity distils anything: ratio 0, even at zero consumption
        dead = replace(reference_params, eps=0.3)
        search = dict(reoptimize_mu=True, consumption=lambda *a: 0, n_hi=10**6)
        for fn in (oracle_break_even_pulses, break_even_pulses):
            with pytest.raises(NeverBreaksEven):
                fn(dead, **search)

    def test_exact_ties_go_to_the_earlier_entry(self, reference_params, monkeypatch):
        # distinct intensities never tie on real rates, so flatten them
        monkeypatch.setattr(budget, "distilled_per_pulse",
                            lambda params, grid: np.ones(np.shape(grid)))
        assert optimize_intensity(reference_params, [0.3, 0.2, 0.5]) == (0.3, 1.0)

    def test_grid_validated_once(self, reference_params):
        for bad in ([], [0.0, 0.5], [0.5, 1.6], [-0.1]):
            with pytest.raises(ValueError):
                optimize_intensity(reference_params, mu_grid=bad)
        with pytest.raises(ValueError):
            budget.break_even_grid(reference_params, [0.5, 0.0])
        with pytest.raises(ValueError):
            break_even_pulses(reference_params, n_lo=1)

    def test_injected_consumption_sees_arrays(self, reference_params):
        seen = []

        def consumption(n, s, a):
            seen.append(np.shape(n))
            return min_initial_secret_bits(n, s, a)

        grid = [0.5, 0.8, 0.9]
        got = budget.break_even_grid(reference_params, grid, consumption=consumption)
        assert got.tolist() == [oracle_break_even_pulses(replace(reference_params, mu=m))
                                for m in grid]
        assert all(shape[0] <= len(grid) for shape in seen)


class TestMinInitialSecretBitsArrays:
    N = [2, 3, 1000, 6_250_000, 10**9] + [
        n for k in range(2, 49) for n in (2**k - 1, 2**k, 2**k + 1)]

    def test_array_equals_scalar_and_oracle(self):
        got = min_initial_secret_bits(np.array(self.N, dtype=np.int64), 1000, 61)
        assert got.dtype == np.int64 and got.shape == (len(self.N),)
        assert got.tolist() == [min_initial_secret_bits(n, 1000, 61) for n in self.N]
        assert got.tolist() == [oracle_min_initial_secret_bits(n, 1000, 61)
                                for n in self.N]
        assert isinstance(min_initial_secret_bits(6_250_000, 1000, 61), int)

    def test_width_is_the_exact_bit_length(self):
        # a rounded log2 overcounts just below 2**49 and up; the exponent
        # does not, up to the int64 limit
        n = [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]
        got = min_initial_secret_bits(np.array(n, dtype=np.int64), 7, 3)
        assert got.tolist() == [2 * 7 * (v.bit_length() + 2) + 32 + 9 for v in n]

    def test_rejects_short_sessions_in_arrays(self):
        with pytest.raises(ValueError):
            min_initial_secret_bits(np.array([5, 1]), 1000, 61)
