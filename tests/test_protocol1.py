"""Triad identification protocol tests.

Monte-Carlo rates are checked against exact binomial references at
four-sigma margins; bookkeeping (pointer advance, single-use triads,
abort attribution) is checked exactly.
"""

import math

import numpy as np
import pytest
from scipy import stats

from qident.budget import deception_probability_exact
from qident.core import (
    BitString,
    LengthMismatch,
    PoolExhausted,
    SecretPool,
    Triad,
    make_rng,
    random_bitstring,
)
from qident.protocol1 import (
    TRIAL_CHUNK,
    IdentOutcome,
    Party1State,
    Protocol1Params,
    Role,
    compare_with_tolerance,
    eve_impersonation_frequency,
    eve_impersonation_trial,
    expected_success_probability,
    fabricated_triads,
    impostor_pass_probability,
    make_shared_triads,
    run_protocol1,
    run_sessions,
    run_trials,
    triads_from_pool,
)

PARAMS = Protocol1Params()  # n_is=50, eps=0.01, k=1


def within_4_sigma(count, n, p):
    return abs(count - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p)) + 1e-9


def same_rate(c1, n1, c2, n2):
    """Two-sample check at four sigma of the pooled binomial spread."""
    p = (c1 + c2) / (n1 + n2)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    return abs(c1 / n1 - c2 / n2) <= 4.0 * sigma + 1e-12


def fresh_pair(rng, n_triads=1, params=PARAMS):
    shared = make_shared_triads(n_triads, params, rng)
    return (
        Party1State(list(shared), Role.ALICE),
        Party1State(list(shared), Role.BOB),
    )


class TestParams:
    def test_tolerance_sits_just_above_expected_noise(self):
        assert PARAMS.k == 1
        assert Protocol1Params(n_is=100, eps=0.01).k == 2
        assert Protocol1Params(n_is=100, eps=0.0).k == 1
        assert PARAMS.triad_bits == 150

    def test_compare_with_tolerance(self):
        a = BitString.from01("10110")
        assert compare_with_tolerance(a, a, 0)
        assert compare_with_tolerance(a, a.flipped(2), 1)
        assert not compare_with_tolerance(a, a.flipped(2), 0)
        with pytest.raises(ValueError):
            compare_with_tolerance(a, a, -1)
        with pytest.raises(LengthMismatch):
            compare_with_tolerance(a, BitString.from01("10"), 1)


class TestBookkeeping:
    def test_noiseless_session_succeeds_exactly(self, rng):
        alice, bob = fresh_pair(rng)
        res = run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        assert res.outcome is IdentOutcome.SUCCESS
        assert res.success
        assert res.distances == {1: 0, 2: 0, 3: 0}
        assert res.bits_consumed == 150

    def test_triad_burned_even_on_abort(self, rng):
        alice, bob = fresh_pair(rng, n_triads=2)
        bob.triads[0] = fabricated_triads(1, PARAMS, rng)[0]  # desync
        res = run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        assert res.outcome is IdentOutcome.ABORT_PASS1
        assert alice.pointer == bob.pointer == 1
        assert alice.remaining == bob.remaining == 1

    def test_pointer_sync_runs_first(self, rng):
        alice, bob = fresh_pair(rng, n_triads=3)
        bob.pointer = 2  # bob burned triads in sessions alice missed
        res = run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        assert res.outcome is IdentOutcome.SUCCESS
        assert alice.pointer == bob.pointer == 3

    def test_exhaustion(self, rng):
        alice, bob = fresh_pair(rng, n_triads=1)
        run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        with pytest.raises(PoolExhausted):
            run_protocol1(alice, bob, PARAMS, rng)

    def test_triads_from_pool_mirror(self, rng):
        store = random_bitstring(600, rng)
        t1 = triads_from_pool(SecretPool(store), 4, PARAMS)
        t2 = triads_from_pool(SecretPool(store), 4, PARAMS)
        assert t1 == t2
        assert t1[0].is1 == store[:50]
        assert t1[0].n_is == 50

    def test_transcript_records_three_passes(self, rng):
        alice, bob = fresh_pair(rng)
        res = run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        assert [(p, d) for p, d, _, _ in res.transcript] == [
            (1, "A->B"),
            (2, "B->A"),
            (3, "A->B"),
        ]
        assert all(ok for _, _, _, ok in res.transcript)


class TestHonestRate:
    def test_matches_binomial_cube(self):
        n_trials = 3000
        counts = run_trials(PARAMS, n_trials, seed=101)
        p = expected_success_probability(PARAMS)
        assert p == pytest.approx(
            float(stats.binom.cdf(1, 50, 0.01)) ** 3, rel=1e-12
        )
        assert within_4_sigma(counts[IdentOutcome.SUCCESS], n_trials, p)

    def test_noiseless_always_succeeds(self):
        counts = run_trials(PARAMS, 200, seed=102, channel_eps=0.0)
        assert counts[IdentOutcome.SUCCESS] == 200

    def test_noisier_channel_lowers_the_rate(self):
        lo = expected_success_probability(PARAMS, channel_eps=0.05)
        assert lo < expected_success_probability(PARAMS)
        counts = run_trials(PARAMS, 2000, seed=103, channel_eps=0.05)
        assert within_4_sigma(counts[IdentOutcome.SUCCESS], 2000, lo)


class TestImpostor:
    def test_impostor_initiator_dies_at_pass1(self):
        counts = run_trials(PARAMS, 400, seed=104, impostor="initiator")
        assert counts[IdentOutcome.SUCCESS] == 0
        # fabricated first part almost surely misses the tolerance
        assert counts[IdentOutcome.ABORT_PASS1] >= 398

    def test_impostor_responder_dies_at_pass2(self):
        counts = run_trials(PARAMS, 400, seed=105, impostor="responder")
        assert counts[IdentOutcome.SUCCESS] == 0
        assert counts[IdentOutcome.ABORT_PASS1] == 0  # impostor checks nothing
        assert counts[IdentOutcome.ABORT_PASS2] >= 380

    def test_rejects_unknown_impostor(self):
        with pytest.raises(ValueError):
            run_trials(PARAMS, 1, impostor="middle")

    def test_pass_probability_is_negligible(self):
        q = impostor_pass_probability(PARAMS)
        assert q == pytest.approx(float(stats.binom.cdf(1, 50, 0.5)), rel=1e-12)
        assert q < 1e-13

    def test_replay_of_burned_triad_fails(self, rng):
        # Eve records pass 1 of a legitimate session, then tries to open
        # a new session with it; the responder has moved to a new triad
        alice, bob = fresh_pair(rng, n_triads=2)
        first = run_protocol1(alice, bob, PARAMS, rng, channel_eps=0.0)
        captured = first.transcript[0][2]
        eve = Party1State(
            [Triad(captured, random_bitstring(50, rng), random_bitstring(50, rng))],
            Role.ALICE,
            pointer=0,
            honest=False,
        )
        eve.pointer = bob.pointer  # keep sync from resetting eve's stack
        eve.triads = [eve.triads[0]] * (bob.pointer + 1)
        res = run_protocol1(eve, bob, PARAMS, rng, channel_eps=0.0)
        assert res.outcome is IdentOutcome.ABORT_PASS1


class TestBatchedLaw:
    @pytest.mark.parametrize("channel_eps", [None, 0.05])
    def test_every_outcome_matches_exact_oracle(self, channel_eps):
        n = 40_000
        counts = run_trials(PARAMS, n, seed=110, channel_eps=channel_eps)
        eps = PARAMS.eps if channel_eps is None else channel_eps
        ph = float(stats.binom.cdf(PARAMS.k, PARAMS.n_is, eps))
        oracle = {
            IdentOutcome.SUCCESS: ph**3,
            IdentOutcome.ABORT_PASS1: 1.0 - ph,
            IdentOutcome.ABORT_PASS2: ph * (1.0 - ph),
            IdentOutcome.ABORT_PASS3: ph**2 * (1.0 - ph),
        }
        assert sum(counts.values()) == n
        for outcome, p in oracle.items():
            assert within_4_sigma(counts[outcome], n, p), outcome

    @pytest.mark.parametrize("impostor", [None, "initiator", "responder"])
    def test_agrees_with_per_session_reference(self, impostor):
        # four bits at 30 % noise, tolerance two: a fabricated part
        # passes a check with probability 11/16, so every outcome that
        # the checker assignment allows occurs often
        params = Protocol1Params(n_is=4, eps=0.3)
        n_batch, n_ref = 40_000, 4_000
        batched = run_trials(params, n_batch, seed=111, impostor=impostor)
        reference = run_sessions(params, n_ref, seed=112, impostor=impostor)
        for outcome in IdentOutcome:
            assert same_rate(
                batched[outcome], n_batch, reference[outcome], n_ref
            ), outcome
        if impostor == "responder":  # Bob checks nothing, Alice only pass 2
            assert batched[IdentOutcome.ABORT_PASS1] == 0
            assert batched[IdentOutcome.ABORT_PASS3] == 0
        if impostor == "initiator":  # Alice checks nothing
            assert batched[IdentOutcome.ABORT_PASS2] == 0

    @pytest.mark.parametrize("impostor", [None, "initiator"])
    def test_chunk_boundary_sizes_count_every_trial(self, impostor):
        for n in (0, 1, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1):
            counts = run_trials(PARAMS, n, seed=113, impostor=impostor)
            assert sum(counts.values()) == n
            assert set(counts) == set(IdentOutcome)

    @pytest.mark.parametrize("run", [run_trials, run_sessions])
    def test_rejects_negative_count_and_bad_channel(self, run):
        with pytest.raises(ValueError):
            run(PARAMS, -5)
        for eps in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                run(PARAMS, 10, channel_eps=eps)
        assert sum(run(PARAMS, 10, channel_eps=1.0).values()) == 10

    def test_single_session_rejects_bad_channel(self, rng):
        # a negative rate used to run a noiseless channel and succeed
        alice, bob = fresh_pair(rng)
        for eps in (-0.3, 1.5, float("nan")):
            with pytest.raises(ValueError):
                run_protocol1(alice, bob, PARAMS, rng, channel_eps=eps)
        assert alice.pointer == bob.pointer == 0


class TestImpersonationMonteCarlo:
    def test_trial_shape_checks(self, rng):
        with pytest.raises(ValueError):
            eve_impersonation_trial([0.6] * 49, PARAMS, rng)
        with pytest.raises(ValueError):
            eve_impersonation_trial([1.5] * 50, PARAMS, rng)

    def test_frequency_needs_a_trial(self, rng):
        for n in (0, -3):
            with pytest.raises(ValueError):
                eve_impersonation_frequency([0.6] * 50, PARAMS, n, rng)

    def test_certain_guess_always_passes(self, rng):
        assert eve_impersonation_trial([1.0] * 50, PARAMS, rng)
        assert eve_impersonation_frequency([1.0] * 50, PARAMS, 100, rng) == 1.0

    def test_frequency_matches_exact_probability(self):
        # at p_bar=0.9 the exact value is large enough for a tight
        # four-sigma Monte-Carlo check
        probs = [0.9] * 50
        exact = deception_probability_exact(probs, PARAMS.k)
        n = 200_000
        freq = eve_impersonation_frequency(probs, PARAMS, n, rng=106)
        assert within_4_sigma(freq * n, n, exact)

    def test_frequency_stream_pinned(self):
        # 134 hits, recorded when the function drew 100,000 rows at a
        # time; rows are filled in order, so the chunk size is invisible
        params = Protocol1Params(n_is=20, eps=0.01)
        freq = eve_impersonation_frequency([0.6] * 20, params, 300_001, rng=88)
        assert freq == 134 / 300_001

    def test_scalar_trial_agrees_with_vectorized(self):
        probs = [0.97] * 50
        rng = make_rng(107)
        n = 20_000
        hits = sum(eve_impersonation_trial(probs, PARAMS, rng) for _ in range(n))
        exact = deception_probability_exact(probs, PARAMS.k)
        assert within_4_sigma(hits, n, exact)


class TestReferenceProbabilities:
    def test_success_probability_monotone_in_eps(self):
        ps = [
            expected_success_probability(PARAMS, channel_eps=e)
            for e in (0.0, 0.01, 0.05, 0.1)
        ]
        assert ps[0] == 1.0
        assert ps == sorted(ps, reverse=True)

    def test_headline_value(self):
        # three passes at fifty bits, one percent noise, tolerance one
        assert expected_success_probability(PARAMS) == pytest.approx(
            0.7550, abs=2e-4
        )
