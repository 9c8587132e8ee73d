"""Channel simulation tests.

Statistical assertions use four-sigma margins around binomial
expectations at fixed seeds; structural assertions (passive adversaries
leaving the honest view untouched, draw-layout determinism, Alice's
values read at any set of pulses) are exact.
"""

import csv
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qident.budget import BudgetParams
from qident.channel import (
    EveParams,
    EveStrategy,
    detection_probability,
    expected_sifted_count,
    run_qkd,
    write_transcript_csv,
)

N = 100_000
# the overall efficiency as the product of line, receiver-optics and
# detector transmissivities, unrounded
ETA = 0.63 * 0.35 * 0.55
PARAMS = replace(BudgetParams.reference(), n_pulses=N, eta=ETA)


def within_4_sigma(count, n, p):
    return abs(count - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p)) + 1e-9


class TestParams:
    def test_detection_probability(self):
        p = detection_probability(PARAMS)
        assert p == pytest.approx(-math.expm1(-ETA * 0.8), rel=1e-12)
        assert 0.0 < p < 1.0

    def test_reference_point_detects_at_pinned_eta(self):
        ref = BudgetParams.reference()
        assert detection_probability(ref) == -math.expm1(-0.12 * 0.8)
        assert expected_sifted_count(ref) == 0.5 * 6_250_000 * detection_probability(ref)

    def test_expected_sifted_count(self):
        assert expected_sifted_count(PARAMS) == pytest.approx(
            0.5 * N * detection_probability(PARAMS)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(PARAMS, n_pulses=0)
        with pytest.raises(ValueError):
            replace(PARAMS, mu=0.0)
        with pytest.raises(ValueError):
            replace(PARAMS, eta_tl=1.5)

    @pytest.mark.parametrize("eps", [0.5, 0.75])
    def test_run_rejects_eps_of_one_half_and_above(self, eps):
        params = replace(PARAMS, n_pulses=10, eps=eps)  # valid for the budget
        with pytest.raises(ValueError, match="below 1/2"):
            run_qkd(params, seed=1)

    def test_eve_validation(self):
        with pytest.raises(ValueError):
            EveParams(fraction=1.5)
        # per-bit guessing is analysed by budget's deception bounds; the
        # channel has no such model
        with pytest.raises(ValueError):
            EveStrategy("per-bit-guess")


class TestHonestRun:
    def test_detection_and_sift_counts(self):
        run = run_qkd(PARAMS, seed=1)
        p = detection_probability(PARAMS)
        assert within_4_sigma(run.n_detected, N, p)
        assert within_4_sigma(run.n_sifted, N, 0.5 * p)

    @pytest.mark.parametrize("n_pulses", [N, 6_250_000])
    def test_positions_strictly_increasing_in_range(self, n_pulses):
        run = run_qkd(replace(PARAMS, n_pulses=n_pulses), seed=2)
        det = run.detected
        assert within_4_sigma(det.size, n_pulses, detection_probability(PARAMS))
        assert det.dtype == np.int64
        assert det[0] >= 0 and det[-1] < n_pulses
        assert np.all(np.diff(det) > 0)
        for arr in (run.alice_bits, run.alice_bases, run.bob_bases, run.bob_bits):
            assert arr.shape == det.shape and arr.dtype == np.uint8

    def test_detections_are_independent_bernoulli(self):
        # every pulse is detected with probability p whatever its index:
        # the count in each tenth of the run and the gap between
        # consecutive detections follow the Bernoulli(p) process
        run = run_qkd(PARAMS, seed=3)
        p = detection_probability(PARAMS)
        counts = np.bincount(run.detected * 10 // N, minlength=10)
        assert all(within_4_sigma(c, N // 10, p) for c in counts)
        gaps = np.diff(run.detected)
        assert within_4_sigma(int((gaps == 1).sum()), gaps.size, p)

    @pytest.mark.parametrize("mu, eta", [(1e-6, 1e-3), (0.8, 1e-300)])
    def test_tiny_detection_probability_gives_empty_arrays(self, mu, eta):
        # n * p is at most 1e-7: almost surely no detection at all.  At
        # p = 8e-301 a geometric gap overflows int64 unless it is capped.
        run = run_qkd(replace(PARAMS, n_pulses=100, mu=mu, eta=eta), seed=4)
        assert run.n_detected == run.n_sifted == run.error_count == 0
        assert run.error_rate == 0.0
        for arr in (run.detected, run.alice_bits, run.bob_bases, run.bob_bits):
            assert arr.size == 0

    def test_intrinsic_error_rate(self):
        run = run_qkd(PARAMS, seed=2)
        assert within_4_sigma(run.error_count, run.n_sifted, PARAMS.eps)

    def test_mismatched_basis_detections_are_fair_coins(self):
        run = run_qkd(PARAMS, seed=3)
        mask = run.alice_bases != run.bob_bases
        agree = int((run.alice_bits[mask] == run.bob_bits[mask]).sum())
        assert within_4_sigma(agree, int(mask.sum()), 0.5)

    def test_alice_values_are_fair_and_independent(self):
        run = run_qkd(PARAMS, seed=5)
        bits, bases = run.alice_at(np.arange(N))
        for col in (bits, bases, bits ^ bases):
            assert within_4_sigma(int(col.sum()), N, 0.5)

    def test_alice_value_at_a_pulse_ignores_the_other_pulses_read(self):
        run = run_qkd(PARAMS, seed=6)
        everything = run.alice_at(np.arange(N))
        rng = np.random.default_rng(0)
        for pulses in (np.array([N - 1]), np.array([0, 17, 17, N - 1]),
                       rng.choice(N, 999, replace=False)):
            for got, full in zip(run.alice_at(pulses), everything):
                assert np.array_equal(got, full[pulses])
        # at the detections, the run holds the same values
        assert np.array_equal(run.alice_bits, everything[0][run.detected])
        assert np.array_equal(run.alice_bases, everything[1][run.detected])

    def test_deterministic_by_seed(self):
        a, b = run_qkd(PARAMS, seed=9), run_qkd(PARAMS, seed=9)
        assert np.array_equal(a.detected, b.detected)
        assert np.array_equal(a.bob_bits, b.bob_bits)
        assert a.alice_key == b.alice_key
        c = run_qkd(PARAMS, seed=10)
        assert a.alice_key != c.alice_key
        assert not np.array_equal(a.detected, c.detected)

    def test_sifted_views_align(self):
        run = run_qkd(PARAMS, seed=4)
        matched = run.alice_bases == run.bob_bases
        assert np.array_equal(run.sifted, np.flatnonzero(matched))
        assert run.n_sifted == int(matched.sum())
        errors = run.alice_bits[matched] != run.bob_bits[matched]
        assert run.error_count == int(errors.sum())

    def test_run_draws_nothing_of_pulse_length(self):
        # 1e8 pulses: one float64 per pulse would be 800 MB; the run's
        # peak is the ~9.2e6 detections' arrays alone
        ref = replace(BudgetParams.reference(), n_pulses=100_000_000)
        tracemalloc.start()
        try:
            run = run_qkd(ref, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert within_4_sigma(run.n_detected, ref.n_pulses, detection_probability(ref))
        assert peak < 400e6


class TestInterceptResend:
    def test_error_rate_scales_with_fraction(self):
        eps = PARAMS.eps
        for f, seed in ((0.0, 11), (0.5, 12), (1.0, 13)):
            eve = EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=f)
            run = run_qkd(PARAMS, seed=seed, eve=eve)
            want = (1.0 - f) * eps + f * (eps / 2.0 + 0.25)
            assert within_4_sigma(run.error_count, run.n_sifted, want), f

    def test_zero_fraction_identical_to_clean(self):
        clean = run_qkd(PARAMS, seed=14)
        idle = run_qkd(
            PARAMS,
            seed=14,
            eve=EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=0.0),
        )
        assert np.array_equal(clean.detected, idle.detected)
        assert np.array_equal(clean.bob_bases, idle.bob_bases)
        assert np.array_equal(clean.bob_bits, idle.bob_bits)

    @pytest.mark.parametrize("f, seed", [(0.3, 15), (1.0, 16)])
    def test_knows_bits_intercepted_in_alices_basis(self, f, seed):
        # Eve picks Alice's basis for half the pulses she intercepts
        eve = EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=f)
        run = run_qkd(PARAMS, seed=seed, eve=eve)
        known = int(run.eve_known_sifted().sum())
        assert within_4_sigma(known, run.n_sifted, f / 2.0)
        assert run.eve_information_bits() == known

    def test_known_bits_reach_bob_unchanged(self):
        # on a noiseless line a pulse Eve measured in Alice's basis is
        # resent faithfully: every known sifted bit is Bob's bit too
        eve = EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=0.5)
        run = run_qkd(replace(PARAMS, eps=0.0), seed=17, eve=eve)
        known = run.sifted[run.eve_known_sifted()]
        assert known.size > 0
        assert np.array_equal(run.bob_bits[known], run.alice_bits[known])


class TestPassiveAdversaries:
    def test_invisible_to_bob(self):
        clean = run_qkd(PARAMS, seed=5)
        tapped = run_qkd(PARAMS, seed=5, eve=EveParams(strategy=EveStrategy.BEAMSPLIT))
        assert clean.alice_key == tapped.alice_key
        assert np.array_equal(clean.alice_bits, tapped.alice_bits)
        assert np.array_equal(clean.detected, tapped.detected)
        assert np.array_equal(clean.bob_bases, tapped.bob_bases)
        assert np.array_equal(clean.bob_bits, tapped.bob_bits)

    def test_none_knows_nothing(self):
        run = run_qkd(PARAMS, seed=6)
        assert run.eve_information_bits() == 0.0
        assert run.eve_known_sifted().sum() == 0

    def test_beamsplit_knowledge_rate(self):
        eve = EveParams(strategy=EveStrategy.BEAMSPLIT)
        run = run_qkd(PARAMS, seed=7, eve=eve)
        know_p = 0.8 / (4.0 * 0.63)  # mu / (4 eta_tl) at the full fraction
        known = int(run.eve_known_sifted().sum())
        assert within_4_sigma(known, run.n_sifted, know_p)
        assert run.eve_information_bits() == known

    def test_beamsplit_probability_saturates(self):
        # mu / (4 eta_tl) = 20 on this line: Eve knows every sifted bit
        eve = EveParams(strategy=EveStrategy.BEAMSPLIT)
        leaky = replace(PARAMS, n_pulses=20_000, eta_tl=0.01)
        run = run_qkd(leaky, seed=8, eve=eve)
        assert run.n_sifted > 0
        assert run.eve_known_sifted().all()
        assert run.eve_known.all()


class TestTranscript:
    def test_rows_cover_every_pulse(self):
        n = 500
        run = run_qkd(replace(PARAMS, n_pulses=n), seed=18)
        buf = io.StringIO()
        write_transcript_csv(run, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        assert [int(r[0]) for r in rows] == list(range(n))
        bits, bases = run.alice_at(np.arange(n))
        assert [r[1] for r in rows] == [str(b) for b in bits]
        assert [r[2] for r in rows] == [str(b) for b in bases]
        detected = np.zeros(n, dtype=np.uint8)
        detected[run.detected] = 1
        assert [r[4] for r in rows] == [str(d) for d in detected]
        # Bob's basis and bit are blank where he detected nothing
        bob_basis, bob_bit = [""] * n, [""] * n
        for i, b, x in zip(run.detected, run.bob_bases, run.bob_bits):
            bob_basis[i], bob_bit[i] = str(b), str(x)
        assert [r[3] for r in rows] == bob_basis
        assert [r[5] for r in rows] == bob_bit
        assert {r[5] for r in rows} == {"", "0", "1"}

    def test_rows_span_dump_chunks(self):
        # chunk boundaries fall at multiples of 65,536 pulses
        n = 140_000
        run = run_qkd(replace(PARAMS, n_pulses=n), seed=20)
        buf = io.StringIO()
        write_transcript_csv(run, buf)
        rows = buf.getvalue().splitlines()[1:]
        assert len(rows) == n
        det = [int(r.split(",")[0]) for r in rows if r.split(",")[4] == "1"]
        assert det == run.detected.tolist()

    def test_csv_shape(self):
        run = run_qkd(replace(PARAMS, n_pulses=50), seed=19)
        buf = io.StringIO()
        write_transcript_csv(run, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "pulse,alice_bit,alice_basis,bob_basis,detected,bob_bit"
        assert len(lines) == 51
