"""Public-channel identification and refuelling tests.

The privacy-amplification oracle rebuilds the Toeplitz matrix row by
row from the same seed and multiplies it naively; the session tests
pin the exact key-consumption accounting and walk every abort edge.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident import auth, protocol2
from qident.budget import (
    BudgetParams,
    corrected_len,
    expected_sifted_len,
    min_initial_secret_bits,
)
from qident.channel import EveParams, EveStrategy
from qident.core import BitString, PoolExhausted, SecretPool, make_rng, random_bitstring
from qident.protocol2 import (
    AdversaryScript,
    InsufficientDetections,
    MsgKind,
    NonConvergence,
    WireFormatError,
    WireMessage,
    _build_announce,
    _parse_announce,
    _parse_bases_bits,
    _parse_fixed,
    _parse_positions,
    _parse_verdict,
    compute_out_len,
    default_pool_bits,
    error_correct,
    message_bit_lengths,
    planned_key_consumption,
    position_field_bits,
    privacy_amplify,
    run_protocol2,
    select_subset_positions,
    sifting_mitm_script,
)

REFERENCE = BudgetParams.reference()
SMALL = replace(REFERENCE, n_pulses=100_000)


def make_pools(n_bits, seed=7):
    store = random_bitstring(n_bits, make_rng(seed))
    return SecretPool(store), SecretPool(store)


def assert_pools_mirrored(res, probe_bits=256):
    assert res.alice_pool.pointer == res.bob_pool.pointer
    assert res.alice_pool.remaining == res.bob_pool.remaining
    take = min(probe_bits, res.alice_pool.remaining)
    assert res.alice_pool.consume(take) == res.bob_pool.consume(take)


class TestWireMessage:
    def test_roundtrip_all_kinds(self, rng):
        for kind in MsgKind:
            payload = random_bitstring(77, rng)
            tag = 123456789 if kind in (1, 2, 3) else None
            msg = WireMessage(MsgKind(kind), payload, tag)
            back = WireMessage.from_bytes(msg.to_bytes())
            assert back == msg

    def test_tag_presence_enforced(self):
        with pytest.raises(ValueError):
            WireMessage(MsgKind.POSITIONS, BitString.zeros(8))  # tag missing
        with pytest.raises(ValueError):
            WireMessage(MsgKind.PA_SEED, BitString.zeros(8), tag=5)

    def test_empty_payload(self):
        msg = WireMessage(MsgKind.ABORT, BitString.zeros(0))
        assert WireMessage.from_bytes(msg.to_bytes()) == msg

    def test_from_bytes_errors(self):
        with pytest.raises(WireFormatError):
            WireMessage.from_bytes(b"\x01\x00\x00")  # truncated header
        with pytest.raises(WireFormatError):
            WireMessage.from_bytes(b"\x09" + (0).to_bytes(4, "big"))  # bad kind
        good = WireMessage(MsgKind.PA_SEED, BitString.zeros(16)).to_bytes()
        with pytest.raises(WireFormatError):
            WireMessage.from_bytes(good + b"\x00")  # frame size mismatch

    @pytest.mark.parametrize("tag", [auth.M61, (1 << 64) - 1])
    def test_out_of_range_tag_is_written_but_does_not_parse(self, tag):
        frame = WireMessage(MsgKind.POSITIONS, BitString.zeros(8), tag).to_bytes()
        assert frame[-8:] == tag.to_bytes(8, "big")
        with pytest.raises(WireFormatError):
            WireMessage.from_bytes(frame)

    @given(st.one_of(st.binary(max_size=24), st.builds(
        lambda kind, n_bits, data, tail: bytes([kind]) + n_bits.to_bytes(4, "big")
        + data[: (n_bits + 7) // 8] + data[(n_bits + 7) // 8 :][:tail],
        st.integers(0, 8), st.integers(0, 64), st.binary(min_size=16, max_size=16),
        st.sampled_from([0, 8]))))
    def test_arbitrary_bytes_parse_or_raise_wire_format_error(self, data):
        # the second strategy builds frames whose length field mostly agrees
        try:
            msg = WireMessage.from_bytes(data)
        except WireFormatError:
            return
        assert WireMessage.from_bytes(msg.to_bytes()) == msg


PARSERS = {
    "positions": lambda p: _parse_positions(p, 4, 2, 12),
    "bases-bits": lambda p: _parse_bases_bits(p, 3),
    "verdict": _parse_verdict,
    "announce": lambda p: _parse_announce(p, 12),
    "fixed": lambda p: _parse_fixed(p, 9),
}


@pytest.mark.parametrize("name", PARSERS)
@given(bits=st.lists(st.integers(0, 1), max_size=40))
def test_arbitrary_payloads_parse_or_raise_wire_format_error(name, bits):
    try:
        PARSERS[name](BitString(bits))
    except WireFormatError:
        pass


class TestSizing:
    def test_position_field_bits(self):
        assert position_field_bits(6_250_000) == 23
        assert position_field_bits(100_000) == 17

    def test_message_lengths(self):
        lengths = message_bit_lengths(6_250_000, 1000)
        assert lengths[MsgKind.POSITIONS] == 46_000
        assert lengths[MsgKind.BASES_AND_BITS] == 4_000
        assert lengths[MsgKind.FINAL_VERDICT] == 32

    def test_planned_key_consumption_anchor(self):
        # 756 + 67 + 2 encoding words of 61 bits each
        assert planned_key_consumption(6_250_000, 1000) == 50_325
        assert planned_key_consumption(100_000, 1000) == 38_308

    def test_consumption_covers_the_floor(self):
        for n in (100_000, 1_000_000, 6_250_000):
            assert planned_key_consumption(n, 1000) >= min_initial_secret_bits(
                n, 1000, 61
            )

    def test_default_pool_adds_slack(self):
        assert (
            default_pool_bits(6_250_000, 1000)
            == planned_key_consumption(6_250_000, 1000) + 8 * 61
        )


class TestSubsetSelection:
    def test_sample_properties(self, rng):
        detected = np.sort(rng.choice(100_000, size=9000, replace=False))
        sample = select_subset_positions(detected, 2000, rng)
        assert sample.size == 2000
        assert np.all(np.diff(sample) > 0)  # sorted, no repeats
        assert np.isin(sample, detected).all()

    def test_insufficient(self, rng):
        with pytest.raises(InsufficientDetections):
            select_subset_positions(np.arange(1999), 2000, rng)

    def test_uniform_inclusion(self, rng):
        # every detected position is equally likely to be sampled
        detected = np.arange(1000)
        hits = np.zeros(1000)
        for _ in range(300):
            hits[select_subset_positions(detected, 500, rng)] += 1
        # inclusion probability 1/2; four-sigma binomial band per cell
        sd = np.sqrt(300 * 0.25)
        assert np.all(np.abs(hits - 150) <= 4 * sd + 1e-9)


class TestAnnounceEncoding:
    def test_map_then_bases_round_trip(self, rng):
        detected = rng.random(100_000) < 0.0915
        bases = rng.integers(0, 2, int(detected.sum()), dtype=np.uint8)
        payload = _build_announce(detected, bases)
        assert payload.bits.tolist() == detected.tolist() + bases.tolist()
        got_pos, got_bases = _parse_announce(payload, 100_000)
        assert np.array_equal(got_pos, np.flatnonzero(detected))
        assert np.array_equal(got_bases, bases)

    def test_malformed_payloads_raise_wire_format_error(self):
        detected = np.zeros(50, dtype=bool)
        detected[[3, 9, 40]] = True
        payload = _build_announce(detected, np.array([1, 0, 1]))
        assert len(payload) == 53
        for bad in (payload[:-1], payload + BitString.zeros(1), payload.flipped(20)):
            with pytest.raises(WireFormatError):
                _parse_announce(bad, 50)


class TestErrorCorrection:
    def test_identical_inputs_leak_only_parities(self, rng):
        a = rng.integers(0, 2, 1024, dtype=np.uint8)
        alice, bob, leak = error_correct(a, a.copy(), 0.01, rng)
        assert np.array_equal(alice, a)
        assert np.array_equal(bob, a)
        # 15 block parities in the single clean pass + 64 verification rounds
        assert leak == 15 + 64

    def test_single_flip_corrected(self, rng):
        a = rng.integers(0, 2, 1024, dtype=np.uint8)
        b = a.copy()
        b[511] ^= 1
        _, bob, leak = error_correct(a, b, 0.01, rng)
        assert np.array_equal(bob, a)
        assert leak < 200

    def test_realistic_noise_converges(self, rng):
        for _ in range(5):
            a = rng.integers(0, 2, 20_000, dtype=np.uint8)
            flips = rng.random(20_000) < 0.004
            b = a ^ flips.astype(np.uint8)
            _, bob, leak = error_correct(a, b, 0.004, rng)
            assert np.array_equal(bob, a)
            assert 0 < leak < 20_000

    def test_empty_input(self, rng):
        a = np.zeros(0, dtype=np.uint8)
        alice, bob, leak = error_correct(a, a, 0.01, rng)
        assert alice.size == bob.size == leak == 0

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            error_correct(
                np.zeros(5, dtype=np.uint8), np.zeros(4, dtype=np.uint8), 0.01, rng
            )

    def test_gives_up_without_passes(self, rng):
        a = np.zeros(64, dtype=np.uint8)
        b = a.copy()
        b[0] ^= 1
        with pytest.raises(NonConvergence):
            error_correct(a, b, 0.01, rng, max_passes=0)

    def test_hint_at_half_the_true_rate_converges(self, rng):
        # a reference-size key at eps = 0.004 whose sample showed k = 2 of
        # 1000: phase-1 blocks start twice too large and ~1,100 errors
        # exceed the 256 fix-ups of the first verification phase
        n = 285_000
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (rng.random(n) < 0.004).astype(np.uint8)
        assert (a != b).sum() > 1000
        _, bob, leak = error_correct(a, b, 0.002, rng)
        assert np.array_equal(bob, a)
        assert 0 < leak < n // 10

    def test_gives_up_when_the_retry_also_fails(self, rng):
        a = rng.integers(0, 2, 20_000, dtype=np.uint8)
        b = a ^ (rng.random(20_000) < 0.004).astype(np.uint8)
        with pytest.raises(NonConvergence):
            error_correct(a, b, 0.0005, rng, max_fixups=0)

    def test_bisect_on_ranks_matches_gathered_parities(self, rng):
        # reference: halve the segment and gather the parity of the lower
        # half from the difference vector, as the protocol announces it
        def gathered(diff, order):
            lo, hi, spent = 0, order.size, 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                spent += 1
                if diff[order[lo:mid]].sum() & 1:
                    hi = mid
                else:
                    lo = mid
            return lo, spent

        for size in (1, 2, 3, 7, 100, 1000):
            for _ in range(20):
                diff = (rng.random(5000) < rng.choice([0.001, 0.01, 0.3])).astype(np.uint8)
                order = rng.choice(5000, size, replace=False)
                if diff[order].sum() % 2 == 0:
                    continue
                ranks = np.flatnonzero(diff[order]).tolist()
                assert protocol2._bisect(ranks, 0, size) == gathered(diff, order)

    @pytest.mark.parametrize(
        "n, rate, hint, kw",
        [
            (1, 0.0, 0.01, {}),
            (300, 0.05, 0.0001, {}),
            (4_500, 0.004, 0.002, {}),
            (20_000, 0.004, 0.0005, {}),
            (20_000, 0.004, 0.004, {"verify_rounds": 3}),
            (20_000, 0.01, 0.001, {"max_fixups": 5}),
            (60_000, 0.004, 0.003, {}),
            (20_000, 0.3, 0.01, {"max_fixups": 2}),
        ],
    )
    def test_subsets_computed_as_if_drawn_in_full(self, monkeypatch, n, rate, hint, kw):
        # phase 2 hashes only the positions in error; the reference builds
        # every round's subset in full and bisects [0, n) on the parity of
        # diff gathered over each lower half, as the parties announce it
        data = make_rng(n)
        a = data.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (data.random(n) < rate).astype(np.uint8)
        bound = math.ceil(math.log2(n)) + 1

        def naive_verify(diff, bob, key, rounds, max_fixups):
            leak = streak = fixups = r = 0
            while streak < rounds and fixups <= max_fixups:
                subset = protocol2._in_subset(key, r, np.arange(n))
                r += 1
                leak += 1
                if not diff[subset].sum() & 1:
                    streak += 1
                    continue
                lo, hi, spent = 0, n, 1
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    spent += 1
                    if diff[lo:mid][subset[lo:mid]].sum() & 1:
                        hi = mid
                    else:
                        lo = mid
                assert spent <= bound
                bob[lo] ^= 1
                diff[lo] ^= 1
                leak, streak, fixups = leak + spent, 0, fixups + 1
            return leak, fixups, streak == rounds

        def run(verify):
            phases, charges = [], []

            def spy_verify(*args):
                phases.append(verify(*args))
                return phases[-1]

            def spy_bisect(flips, lo, hi):
                found = real_bisect(flips, lo, hi)
                charges.append((hi - lo, found[1]))
                return found

            monkeypatch.setattr(protocol2, "_verify", spy_verify)
            monkeypatch.setattr(protocol2, "_bisect", spy_bisect)
            try:
                _, bob, leak = error_correct(a, b, hint, make_rng(99), **kw)
                out = bob.tobytes(), leak
            except NonConvergence as exc:
                out = str(exc)
            for size, spent in charges:
                assert spent <= math.ceil(math.log2(size)) + 1 <= bound
            return out, phases

        real_verify, real_bisect = protocol2._verify, protocol2._bisect
        assert run(real_verify) == run(naive_verify)

    @pytest.mark.parametrize(
        "key, first",
        [(0x5DEECE66D, 0), ((1 << 63) - 1, (1 << 40) - (1 << 16))],
        ids=["small-key", "large-key-top-positions"],
    )
    def test_subsets_are_fair_and_independent_across_rounds(self, key, first):
        # the second case wraps key + counter mod 2**64 and puts round r's
        # last positions next to round r + 1's counter range
        n = 1 << 16
        positions = first + np.arange(n)
        rounds = np.array([protocol2._in_subset(key, r, positions) for r in range(64)])
        five_sigma = 5 * math.sqrt(n / 4)
        assert np.all(np.abs(rounds.sum(axis=1) - n / 2) <= five_sigma)
        agree = (rounds[1:] == rounds[:-1]).sum(axis=1)
        assert np.all(np.abs(agree - n / 2) <= five_sigma)

    def test_phase_2_draws_one_key_per_attempt(self, rng):
        # a clean string: one phase-1 permutation, then the phase-2 key
        a = rng.integers(0, 2, 1024, dtype=np.uint8)
        gen, ref = make_rng(4), make_rng(4)
        error_correct(a, a.copy(), 0.01, gen)
        ref.permutation(1024)
        ref.integers(1 << 63)
        assert gen.integers(1 << 62) == ref.integers(1 << 62)


class TestPrivacyAmplification:
    def test_empty_seed_raises(self, rng):
        # the seed travels unauthenticated; emptying it must not turn
        # compression off
        bits = random_bitstring(100, rng)
        for out_len in (0, 40):
            with pytest.raises(ValueError):
                privacy_amplify(bits, out_len, BitString.zeros(0))

    def test_matches_naive_toeplitz(self, rng):
        # rebuild the matrix from the same seed and multiply it naively
        cases = ((1, 1), (20, 8), (64, 64), (131, 40), (77, 77), (203, 9), (1000, 333))
        for n_in, out_len in cases:
            bits = random_bitstring(n_in, rng)
            seed = random_bitstring(128, rng)
            got = privacy_amplify(bits, out_len, seed)
            gen = make_rng(int.from_bytes(seed.to_bytes(), "big"))
            diag = gen.integers(0, 2, size=n_in + out_len - 1, dtype=np.uint8)
            x = bits.bits
            want = [
                int(np.bitwise_xor.reduce(
                    diag[(n_in - 1) + i - np.arange(n_in)] & x
                ))
                for i in range(out_len)
            ]
            assert got.to01() == "".join(str(v) for v in want)

    def test_reference_size_output_pinned(self):
        # SHA-256 of the output of the strided-popcount routine that the
        # FFT product replaced, at the reference session's PA size
        bits = random_bitstring(285_114, make_rng(1))
        seed = random_bitstring(128, make_rng(2))
        out = privacy_amplify(bits, 125_026, seed)
        assert len(out) == 125_026
        assert hashlib.sha256(out.to_bytes()).hexdigest() == (
            "e298cd59aebc73ca08cbe273c4888d65c2f5ece4139373e1e39517fa29f83fdd"
        )

    def test_inexact_convolution_raises(self, rng, monkeypatch):
        irfft = protocol2.sfft.irfft
        monkeypatch.setattr(
            protocol2.sfft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.5
        )
        with pytest.raises(ArithmeticError):
            privacy_amplify(random_bitstring(300, rng), 100, random_bitstring(128, rng))

    def test_linear_over_xor(self, rng):
        x = random_bitstring(500, rng)
        y = random_bitstring(500, rng)
        seed = random_bitstring(128, rng)
        lhs = privacy_amplify(x.xor(y), 120, seed)
        rhs = privacy_amplify(x, 120, seed).xor(privacy_amplify(y, 120, seed))
        assert lhs == rhs

    def test_deterministic_and_seed_sensitive(self, rng):
        bits = random_bitstring(2000, rng)
        s1 = random_bitstring(128, rng)
        s2 = random_bitstring(128, rng)
        assert privacy_amplify(bits, 500, s1) == privacy_amplify(bits, 500, s1)
        assert privacy_amplify(bits, 500, s1) != privacy_amplify(bits, 500, s2)

    def test_output_is_balanced(self, rng):
        out = privacy_amplify(random_bitstring(2000, rng), 1000, random_bitstring(128, rng))
        assert abs(out.count_ones() - 500) <= 4 * np.sqrt(1000 * 0.25)

    def test_bounds(self, rng):
        bits = random_bitstring(10, rng)
        assert len(privacy_amplify(bits, 0, random_bitstring(8, rng))) == 0
        with pytest.raises(ValueError):
            privacy_amplify(bits, 11, random_bitstring(8, rng))


class TestOutLen:
    def test_reference_point(self):
        assert compute_out_len(REFERENCE, 0.004) == 121_265

    def test_monotone_in_estimate(self):
        outs = [compute_out_len(REFERENCE, e) for e in (0.0, 0.004, 0.02, 0.05)]
        assert outs == sorted(outs, reverse=True)

    def test_floors_at_zero(self):
        assert compute_out_len(REFERENCE, 0.2) == 0

    def test_leak_beyond_the_corrected_length_is_charged(self):
        n_s = expected_sifted_len(REFERENCE)
        allowed = n_s - corrected_len(n_s, 0.004)
        base = compute_out_len(REFERENCE, 0.004)
        assert compute_out_len(REFERENCE, 0.004, math.floor(allowed)) == base
        # the excess is 1000 plus a fraction of a bit
        charged = compute_out_len(REFERENCE, 0.004, math.ceil(allowed) + 1000)
        assert charged in (base - 1001, base - 1000)


class TestHonestSession:
    def test_end_to_end(self):
        pools = make_pools(60_000)
        res = run_protocol2(SMALL, seed=42, alice_pool=pools[0], bob_pool=pools[1])
        assert res.identified and res.aborted_at is None
        assert res.verdict_accept and res.alice_recheck
        assert res.refueled and res.refuel_reason is None
        assert 800 <= res.s_real <= 1200
        assert res.eps_est == res.k / res.s_real
        assert res.n_key > 2000
        assert res.leak > 0
        assert res.out_len > 0
        assert res.distilled is not None and len(res.distilled) == res.out_len
        assert res.gained == res.out_len
        assert res.net == res.out_len - res.consumed_alice
        assert res.consumed_alice == res.consumed_bob == 38_308
        assert [m.kind for m in res.transcript] == [
            MsgKind.POSITIONS,
            MsgKind.BASES_AND_BITS,
            MsgKind.FINAL_VERDICT,
            MsgKind.BASIS_ANNOUNCE,
            MsgKind.COINCIDENCE,
            MsgKind.PA_SEED,
        ]
        assert_pools_mirrored(res)

    def test_default_pools(self):
        res = run_protocol2(SMALL, seed=1)
        assert res.identified and res.refueled
        assert_pools_mirrored(res)

    def test_deterministic(self):
        r1 = run_protocol2(SMALL, seed=5)
        r2 = run_protocol2(SMALL, seed=5)
        assert r1.distilled == r2.distilled
        assert (r1.consumed_alice, r1.out_len, r1.k) == (
            r2.consumed_alice,
            r2.out_len,
            r2.k,
        )

    def test_pointer_sync_before_start(self):
        pools = make_pools(80_000)
        pools[0].consume(1000)  # alice ahead
        res = run_protocol2(SMALL, seed=3, alice_pool=pools[0], bob_pool=pools[1])
        assert res.identified and res.refueled
        assert_pools_mirrored(res)

    def test_session_floor_enforced(self):
        floor = min_initial_secret_bits(100_000, 1000, 61)
        pools = make_pools(floor - 1)
        with pytest.raises(PoolExhausted):
            run_protocol2(SMALL, seed=4, alice_pool=pools[0], bob_pool=pools[1])

    def test_refused_below_the_planned_key_consumption(self):
        # min_initial_secret_bits undercounts the keys' whole encoding
        # words; a session admitted there would run dry at the verdict key
        b_min = min_initial_secret_bits(100_000, 1000, 61)
        assert b_min < planned_key_consumption(100_000, 1000)
        pools = make_pools(b_min)
        with pytest.raises(PoolExhausted):
            run_protocol2(SMALL, seed=4, alice_pool=pools[0], bob_pool=pools[1])
        assert pools[0].pointer == pools[1].pointer == 0

    def test_planned_key_consumption_is_enough(self):
        pools = make_pools(planned_key_consumption(100_000, 1000))
        res = run_protocol2(SMALL, seed=4, alice_pool=pools[0], bob_pool=pools[1])
        assert res.identified and res.consumed_alice == res.consumed_bob == 38_308
        assert res.alice_pool.pointer == 38_308

    def test_verdict_field_width_checked_at_entry(self):
        # k travels in a 16-bit field of the verdict, and k <= 2s
        pools = make_pools(60_000)
        with pytest.raises(ValueError, match="16-bit"):
            run_protocol2(replace(SMALL, s=32_768), seed=4,
                          alice_pool=pools[0], bob_pool=pools[1])
        assert pools[0].pointer == pools[1].pointer == 0
        with pytest.raises(PoolExhausted):  # 2s = 65534 fits; the pools do not
            run_protocol2(replace(SMALL, s=32_767), seed=4,
                          alice_pool=pools[0], bob_pool=pools[1])

    def test_channel_error_rate_of_one_half_rejected_before_any_key(self):
        # BudgetParams admits eps in [0, 1) for the closed form; the
        # channel simulation needs eps < 1/2
        pools = make_pools(60_000)
        with pytest.raises(ValueError, match="below 1/2"):
            run_protocol2(replace(SMALL, eps=0.5), seed=4,
                          alice_pool=pools[0], bob_pool=pools[1])
        assert pools[0].pointer == pools[1].pointer == 0

    def test_key_excludes_the_disclosed_sample(self):
        # honest views agree, so the key is every sifted position outside
        # the sample, whose sifted part is the s_real compared positions
        res = run_protocol2(SMALL, seed=2)
        assert res.refueled
        assert res.n_key == res.n_sifted - res.s_real > 0

    def test_pools_must_come_in_pairs(self):
        pool, _ = make_pools(60_000)
        with pytest.raises(ValueError):
            run_protocol2(SMALL, seed=4, alice_pool=pool)

    def test_tag_width_must_match_production_field(self):
        with pytest.raises(ValueError):
            run_protocol2(replace(SMALL, a=34), seed=4)

    def test_low_sample_count_still_refuels_at_reference_scale(self, monkeypatch):
        # this seed's sample shows k = 2 against a true eps of 0.004; error
        # correction starts from 3 / s_real, and the leak beyond what the
        # budget allows at k / s_real comes off the refuelled length
        hints = spy_on_hints(monkeypatch)
        res = run_protocol2(REFERENCE, seed=7836605422402701693)
        assert res.k == 2
        assert hints == [protocol2.EC_MIN_MISMATCHES / res.s_real]
        assert res.refueled and res.refuel_reason is None
        n_s = expected_sifted_len(REFERENCE)
        assert res.leak > n_s - corrected_len(n_s, res.eps_est)
        assert res.out_len == compute_out_len(REFERENCE, res.eps_est, res.leak)
        assert res.out_len < compute_out_len(REFERENCE, res.eps_est)
        assert res.out_len <= res.n_key - res.leak
        assert res.net > 0
        assert_pools_mirrored(res)

    def test_low_sample_count_keeps_its_hint_on_short_keys(self, monkeypatch):
        # at 1e5 pulses phase 2 alone can repair every error a low hint
        # leaves, so the sampled rate is used as it is
        hints = spy_on_hints(monkeypatch)
        for seed in range(40):
            res = run_protocol2(SMALL, seed=seed)
            if res.k < protocol2.EC_MIN_MISMATCHES and res.refueled:
                break
        else:
            pytest.fail("no refuelled 1e5-pulse session with a low sample count")
        assert hints[-1] == max(res.eps_est, 1e-4)

    @pytest.mark.parametrize("n_pulses, pinned", [
        (100_000, (991, 4, 213, 1633, -36675, "2320eba108b12bff")),
        (3_000_000, (977, 4, 6962, 57513, 9201, "0d881821c0cd6ed5")),
    ], ids=["desk", "mid"])
    def test_honest_canary_sessions_pinned(self, n_pulses, pinned):
        res = run_protocol2(replace(REFERENCE, n_pulses=n_pulses), seed=20260819)
        digest = hashlib.sha256(res.distilled.to_bytes()).hexdigest()[:16]
        assert (res.s_real, res.k, res.leak, res.out_len, res.net, digest) == pinned

    def test_too_few_detections(self):
        tiny = replace(REFERENCE, n_pulses=5000)
        with pytest.raises(InsufficientDetections):
            run_protocol2(tiny, seed=4)


def spy_on_hints(monkeypatch):
    hints = []

    def spy(alice, bob, eps_hint, rng, **kw):
        hints.append(eps_hint)
        return error_correct(alice, bob, eps_hint, rng, **kw)

    monkeypatch.setattr(protocol2, "error_correct", spy)
    return hints


def flip_payload_bit(kind, bit=7):
    def tamper(msg):
        if msg.kind is kind:
            return WireMessage(msg.kind, msg.payload.flipped(bit), msg.tag)
        return None

    return tamper


class TestAdversaries:
    def test_tamper_on_each_authenticated_kind_aborts(self):
        stages = {
            MsgKind.POSITIONS: "positions-auth",
            MsgKind.BASES_AND_BITS: "bases-bits-auth",
            MsgKind.FINAL_VERDICT: "verdict-auth",
        }
        for kind, stage in stages.items():
            script = AdversaryScript(tamper=flip_payload_bit(kind))
            res = run_protocol2(SMALL, seed=6, adversary=script)
            assert res.identified is False
            assert res.refueled is False
            assert res.aborted_at == stage
            assert res.transcript[-1].kind is MsgKind.ABORT
            assert_pools_mirrored(res)

    def test_keys_burned_on_abort(self):
        script = AdversaryScript(tamper=flip_payload_bit(MsgKind.POSITIONS))
        res = run_protocol2(SMALL, seed=6, adversary=script)
        first_key_bits = 61 * auth.words_needed(
            message_bit_lengths(100_000, 1000)[MsgKind.POSITIONS]
        )
        assert res.consumed_alice == res.consumed_bob == first_key_bits
        # what the session never reached keeps its default
        assert res.n_sifted > 0 and res.refuel_reason is None
        assert (res.s_real, res.k, res.eps_est, res.n_key, res.leak, res.out_len,
                res.distilled) == (0, 0, None, 0, 0, 0, None)

    def test_intercept_resend_rejected_by_verdict(self):
        script = AdversaryScript(
            eve=EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=1.0)
        )
        res = run_protocol2(SMALL, seed=8, adversary=script)
        assert res.identified is True  # tags were genuine
        assert res.verdict_accept is False  # the channel was not
        assert res.refueled is False
        assert res.refuel_reason == "verdict-reject"
        assert res.eps_est > 0.15
        # identified peers send no ABORT
        assert [m.kind for m in res.transcript] == list(protocol2.AUTHENTICATED_KINDS)

    def test_sifting_mitm_defeated_at_first_tag(self):
        res = run_protocol2(SMALL, seed=9, adversary=sifting_mitm_script(seed=9))
        assert res.identified is False
        assert res.refueled is False
        assert res.aborted_at == "positions-auth"

    def test_announce_corruption_spoils_refuel_not_identity(self):
        def tamper(msg):
            if msg.kind is MsgKind.BASIS_ANNOUNCE:
                return WireMessage(msg.kind, BitString.zeros(len(msg.payload)))
            return None

        res = run_protocol2(SMALL, seed=10, adversary=AdversaryScript(tamper=tamper))
        assert res.identified is True
        assert res.refueled is False
        assert res.refuel_reason == "announce-structure"
        assert_pools_mirrored(res)

    def test_coincidence_truncation_spoils_refuel_not_identity(self):
        def tamper(msg):
            if msg.kind is MsgKind.COINCIDENCE:
                return WireMessage(msg.kind, msg.payload[:10])
            return None

        res = run_protocol2(SMALL, seed=11, adversary=AdversaryScript(tamper=tamper))
        assert res.identified is True
        assert res.refueled is False
        assert res.refuel_reason == "coincidence-structure"
        assert_pools_mirrored(res)

    def test_pa_seed_tamper_ends_in_key_mismatch(self):
        # each party hashes with its own copy of the seed, so a rewritten
        # seed leaves the keys different and nothing is refuelled
        gen = make_rng(99)

        def tamper(msg):
            if msg.kind is MsgKind.PA_SEED:
                return WireMessage(msg.kind, random_bitstring(len(msg.payload), gen))
            return None

        res = run_protocol2(SMALL, seed=12, adversary=AdversaryScript(tamper=tamper))
        assert res.identified and not res.refueled and res.distilled is None
        assert res.refuel_reason == "key-mismatch"
        assert_pools_mirrored(res)

    @pytest.mark.parametrize("seed_len", [0, 64, 129])
    def test_pa_seed_of_wrong_length_refuses_refuel(self, seed_len):
        # the seed travels unauthenticated; an emptied seed must not leave
        # both pools holding an uncompressed prefix of the sifted key
        def tamper(msg):
            if msg.kind is MsgKind.PA_SEED:
                return WireMessage(msg.kind, BitString.zeros(seed_len))
            return None

        res = run_protocol2(SMALL, seed=12, adversary=AdversaryScript(tamper=tamper))
        assert res.identified is True
        assert res.refueled is False and res.distilled is None
        assert res.refuel_reason == "pa-seed-structure"
        assert_pools_mirrored(res)

    @pytest.mark.parametrize("kind, relabel, tag, stage", [
        (MsgKind.POSITIONS, MsgKind.BASIS_ANNOUNCE, None, "positions-structure"),
        (MsgKind.BASES_AND_BITS, MsgKind.COINCIDENCE, None, "bases-bits-structure"),
        (MsgKind.FINAL_VERDICT, MsgKind.ABORT, None, "verdict-structure"),
        (MsgKind.BASIS_ANNOUNCE, MsgKind.PA_SEED, None, "announce-structure"),
        (MsgKind.COINCIDENCE, MsgKind.POSITIONS, 0, "coincidence-structure"),
        (MsgKind.PA_SEED, MsgKind.BASES_AND_BITS, 0, "pa-seed-structure"),
        (MsgKind.POSITIONS, MsgKind.POSITIONS, (1 << 64) - 1, "positions-structure"),
        (MsgKind.BASES_AND_BITS, MsgKind.BASES_AND_BITS, auth.M61, "bases-bits-structure"),
        (MsgKind.FINAL_VERDICT, MsgKind.FINAL_VERDICT, (1 << 64) - 1, "verdict-structure"),
    ], ids=[f"relabel-{k.name}" for k in MsgKind if k is not MsgKind.ABORT]
        + [f"tag-{k.name}" for k in protocol2.AUTHENTICATED_KINDS])
    def test_relabelled_or_out_of_range_frames_fail_closed(self, kind, relabel, tag, stage):
        def tamper(msg):
            if msg.kind is kind:
                return WireMessage(relabel, msg.payload, tag)
            return None

        res = run_protocol2(SMALL, seed=12, adversary=AdversaryScript(tamper=tamper))
        assert not res.refueled and res.distilled is None
        if kind in protocol2.AUTHENTICATED_KINDS:
            assert not res.identified and res.aborted_at == stage
            assert res.transcript[-1].kind is MsgKind.ABORT
        else:
            assert res.identified and res.refuel_reason == stage
        assert_pools_mirrored(res)
