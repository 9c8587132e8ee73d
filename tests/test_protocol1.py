"""Three-pass identification protocol tests.

Monte-Carlo rates are checked against exact binomial references at
four-sigma margins; bookkeeping (pool pointer advance, single-use
triad bits, abort attribution) is checked exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qident.budget import deception_probability_exact
from qident.core import BitString, PoolExhausted, SecretPool, random_bitstring
from qident.protocol1 import (
    TRIAL_CHUNK,
    IdentOutcome,
    Protocol1Params,
    eve_impersonation_frequency,
    expected_success_probability,
    impostor_pass_probability,
    run_protocol1,
    run_sessions,
    run_trials,
)

PARAMS = Protocol1Params()  # n_is=50, eps=0.01, k=1
NOISELESS = replace(PARAMS, eps=0.0)  # the same k = 1


def within_4_sigma(count, n, p):
    return abs(count - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p)) + 1e-9


def same_rate(c1, n1, c2, n2):
    """Two-sample check at four sigma of the pooled binomial spread."""
    p = (c1 + c2) / (n1 + n2)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    return abs(c1 / n1 - c2 / n2) <= 4.0 * sigma + 1e-12


def fresh_pair(rng, n_triads=1, params=PARAMS):
    shared = random_bitstring(n_triads * params.triad_bits, rng)
    return SecretPool(shared), SecretPool(shared)


class TestParams:
    def test_tolerance_sits_just_above_expected_noise(self):
        assert PARAMS.k == 1
        assert Protocol1Params(n_is=100, eps=0.01).k == 2
        assert Protocol1Params(n_is=100, eps=0.0).k == 1
        assert PARAMS.triad_bits == 150

    def test_rejects_empty_pass(self):
        with pytest.raises(ValueError):
            Protocol1Params(n_is=0)

    def test_compare_with_tolerance(self, rng):
        # an honest checker accepts at Hamming distance up to k = 1; an
        # impostor's side checks nothing
        shared = random_bitstring(PARAMS.triad_bits, rng)
        for flips, impostor, outcome in [
            ((), None, IdentOutcome.SUCCESS),
            ((3,), None, IdentOutcome.SUCCESS),
            ((3, 7), None, IdentOutcome.ABORT_PASS1),
            ((3, 7), "responder", IdentOutcome.SUCCESS),
            ((53, 57), None, IdentOutcome.ABORT_PASS2),
            ((53, 57), "initiator", IdentOutcome.SUCCESS),
        ]:
            other = shared
            for i in flips:
                other = other.flipped(i)
            res = run_protocol1(SecretPool(shared), SecretPool(other), NOISELESS,
                                rng, impostor)
            assert res.outcome is outcome, (flips, impostor)
            assert sum(res.distances.values()) == len(flips)


class TestBookkeeping:
    def test_noiseless_session_succeeds_exactly(self, rng):
        alice, bob = fresh_pair(rng)
        res = run_protocol1(alice, bob, NOISELESS, rng)
        assert res.outcome is IdentOutcome.SUCCESS
        assert res.success
        assert res.distances == {1: 0, 2: 0, 3: 0}
        assert alice.pointer == bob.pointer == PARAMS.triad_bits

    def test_triad_burned_even_on_abort(self, rng):
        shared = random_bitstring(2 * PARAMS.triad_bits, rng)
        alice = SecretPool(shared)
        bob = SecretPool(random_bitstring(PARAMS.triad_bits, rng)
                         + shared[PARAMS.triad_bits:])  # desync
        res = run_protocol1(alice, bob, NOISELESS, rng)
        assert res.outcome is IdentOutcome.ABORT_PASS1
        assert alice.pointer == bob.pointer == PARAMS.triad_bits
        assert alice.remaining == bob.remaining == PARAMS.triad_bits
        # the next session reads the next bits, which still agree
        assert run_protocol1(alice, bob, NOISELESS, rng).success

    def test_pointer_sync_runs_first(self, rng):
        alice, bob = fresh_pair(rng, n_triads=3)
        bob.advance_to(2 * PARAMS.triad_bits)  # sessions alice missed
        res = run_protocol1(alice, bob, NOISELESS, rng)
        assert res.outcome is IdentOutcome.SUCCESS
        assert alice.pointer == bob.pointer == 3 * PARAMS.triad_bits

    def test_exhaustion(self, rng):
        alice, bob = fresh_pair(rng, n_triads=1)
        run_protocol1(alice, bob, NOISELESS, rng)
        with pytest.raises(PoolExhausted):
            run_protocol1(alice, bob, PARAMS, rng)

    @pytest.mark.parametrize("short", ["alice", "bob"])
    def test_short_pool_after_sync_consumes_nothing(self, rng, short):
        # both pools hold two triads' bits, but one loses its last 50 bits;
        # the other has already used a triad, so sync moves both to 150
        shared = random_bitstring(2 * PARAMS.triad_bits, rng)
        pools = {"alice": SecretPool(shared), "bob": SecretPool(shared)}
        pools[short] = SecretPool(shared[:-PARAMS.n_is])
        pools["bob" if short == "alice" else "alice"].advance_to(PARAMS.triad_bits)
        with pytest.raises(PoolExhausted):
            run_protocol1(pools["alice"], pools["bob"], PARAMS, rng)
        assert pools["alice"].pointer == pools["bob"].pointer == PARAMS.triad_bits

    def test_transcript_records_three_passes(self, rng):
        alice, bob = fresh_pair(rng)
        res = run_protocol1(alice, bob, NOISELESS, rng)
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

    @pytest.mark.parametrize("eps", [0.0, 0.001, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.45])
    def test_closed_forms_match_the_binomial_cdf(self, eps):
        # both use scipy.special.bdtr, not scipy.stats: the per-pass value
        # agrees to 1e-12, so its cube to 3e-12
        for n_is in range(1, 301):
            params = Protocol1Params(n_is=n_is, eps=eps)
            per_pass = float(stats.binom.cdf(params.k, n_is, eps))
            assert expected_success_probability(params) == pytest.approx(
                per_pass**3, rel=3e-12)
            assert impostor_pass_probability(params) == pytest.approx(
                float(stats.binom.cdf(params.k, n_is, 0.5)), rel=1e-12)

    def test_noiseless_always_succeeds(self):
        counts = run_trials(NOISELESS, 200, seed=102)
        assert counts[IdentOutcome.SUCCESS] == 200

    def test_noisier_channel_lowers_the_rate(self):
        # at 5 % the tolerance rises to k = 3, but not enough to make up
        noisy = replace(PARAMS, eps=0.05)
        lo = expected_success_probability(noisy)
        assert lo < expected_success_probability(PARAMS)
        counts = run_trials(noisy, 2000, seed=103)
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

    def test_rejects_unknown_impostor(self, rng):
        with pytest.raises(ValueError):
            run_trials(PARAMS, 1, impostor="middle")
        alice, bob = fresh_pair(rng)
        with pytest.raises(ValueError):
            run_protocol1(alice, bob, PARAMS, rng, impostor="middle")
        assert alice.pointer == bob.pointer == 0

    def test_pass_probability_is_negligible(self):
        q = impostor_pass_probability(PARAMS)
        assert q == pytest.approx(float(stats.binom.cdf(1, 50, 0.5)), rel=1e-12)
        assert q < 1e-13

    def test_replay_of_burned_triad_fails(self, rng):
        # Eve records pass 1 of a legitimate session, then tries to open
        # a new session with it; the responder has moved to a new triad
        alice, bob = fresh_pair(rng, n_triads=2)
        first = run_protocol1(alice, bob, NOISELESS, rng)
        assert first.success
        captured = first.transcript[0][2]
        # sync advances Eve's pool to Bob's pointer, where she put the
        # captured part 1
        eve = SecretPool(BitString.zeros(bob.pointer) + captured
                         + random_bitstring(2 * PARAMS.n_is, rng))
        res = run_protocol1(eve, bob, NOISELESS, rng, impostor="initiator")
        assert res.outcome is IdentOutcome.ABORT_PASS1
        assert res.transcript[0][2] == captured
        assert eve.pointer == bob.pointer == 2 * PARAMS.triad_bits


class TestBatchedLaw:
    @pytest.mark.parametrize("eps", [None, 0.05])  # None keeps PARAMS
    def test_every_outcome_matches_exact_oracle(self, eps):
        n = 40_000
        params = PARAMS if eps is None else replace(PARAMS, eps=eps)
        counts = run_trials(params, n, seed=110)
        ph = float(stats.binom.cdf(params.k, params.n_is, params.eps))
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
        # the channel runs at the design rate, which the parameters bound
        for eps in (-0.1, 0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                replace(PARAMS, eps=eps)
        assert sum(run(replace(PARAMS, eps=0.49), 10).values()) == 10


class TestImpersonationMonteCarlo:
    def test_trial_shape_checks(self, rng):
        with pytest.raises(ValueError):
            eve_impersonation_frequency([0.6] * 49, PARAMS, 10, rng)
        with pytest.raises(ValueError):
            eve_impersonation_frequency([[0.6] * 50], PARAMS, 10, rng)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_frequency_rejects_probabilities_outside_unit_interval(self, rng, bad):
        for probs in ([bad] * 50, [0.6] * 49 + [bad]):
            with pytest.raises(ValueError, match="probabilities"):
                eve_impersonation_frequency(probs, PARAMS, 100, rng)

    def test_frequency_needs_a_trial(self, rng):
        for n in (0, -3):
            with pytest.raises(ValueError):
                eve_impersonation_frequency([0.6] * 50, PARAMS, n, rng)

    def test_certain_guess_always_passes(self, rng):
        assert eve_impersonation_frequency([1.0] * 50, PARAMS, 100, rng) == 1.0
        assert eve_impersonation_frequency([0.0] * 50, PARAMS, 100, rng) == 0.0

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


class TestReferenceProbabilities:
    def test_success_probability_monotone_in_eps(self):
        # every rate below 1/50 keeps the tolerance at k = 1
        ps = [
            expected_success_probability(replace(PARAMS, eps=e))
            for e in (0.0, 0.005, 0.01, 0.015, 0.0199)
        ]
        assert {replace(PARAMS, eps=e).k for e in (0.0, 0.0199)} == {1}
        assert ps[0] == 1.0
        assert ps == sorted(ps, reverse=True)

    def test_headline_value(self):
        # three passes at fifty bits, one percent noise, tolerance one
        assert expected_success_probability(PARAMS) == pytest.approx(
            0.7550, abs=2e-4
        )
