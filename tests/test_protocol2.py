"""Public-channel identification and refuelling tests.

The privacy-amplification oracle rebuilds the Toeplitz matrix row by
row from the same seed and multiplies it naively; the session tests
pin the exact key-consumption accounting and walk every abort edge.
"""

import hashlib
import heapq
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qident import auth, protocol2
from qident.budget import (
    BudgetParams,
    binary_entropy,
    corrected_len,
    expected_sifted_len,
    min_initial_secret_bits,
    position_bits,
)
from qident.channel import EveParams, EveStrategy
from qident.core import (
    BitString,
    PoolExhausted,
    SecretPool,
    make_rng,
    pack_uints,
    random_bitstring,
    unpack_uints,
)
from qident.estimation import NoSolution, solve_eps_limit
from qident.protocol2 import (
    AdversaryScript,
    InsufficientDetections,
    MsgKind,
    WireFormatError,
    WireMessage,
    _build_announce,
    _parse_announce,
    _parse_positions,
    _parse_verdict,
    compute_out_len,
    default_pool_bits,
    error_correct,
    message_bit_lengths,
    planned_key_consumption,
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

    def test_tag_field_roundtrip(self):
        # the tag travels as 8 big-endian bytes at the end of the frame
        for tag in (0, 1, auth.M61 - 1, 12345678901234567):
            frame = WireMessage(MsgKind.FINAL_VERDICT, BitString.zeros(32), tag).to_bytes()
            assert frame[-8:] == tag.to_bytes(8, "big")
            assert WireMessage.from_bytes(frame).tag == tag

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
        # the second strategy builds frames whose length field mostly
        # agrees; a frame that parses is the one its message writes
        try:
            msg = WireMessage.from_bytes(data)
        except WireFormatError:
            return
        assert msg.to_bytes() == data

    def test_nonzero_padding_bits_do_not_parse(self):
        frame = WireMessage(MsgKind.PA_SEED, BitString.from01("101")).to_bytes()
        assert frame == bytes.fromhex("0700000003a0")
        for last in (0xA1, 0xBF):  # the same three payload bits
            with pytest.raises(WireFormatError, match="padding"):
                WireMessage.from_bytes(frame[:-1] + bytes([last]))


# receivers at n = 12 pulses (4-bit positions) and s = 2: the stage, the
# kind, the payload length expected (the table's entry, a detection count
# of 9, or none for the self-describing announcement) and the parser
LENGTHS = message_bit_lengths(12, 2)
RECEIVERS = {
    "positions": ("positions", MsgKind.POSITIONS, LENGTHS[MsgKind.POSITIONS],
                  lambda p: _parse_positions(p, 4, 12)),
    "bases-bits": ("bases-bits", MsgKind.BASES_AND_BITS, LENGTHS[MsgKind.BASES_AND_BITS],
                   None),
    "verdict": ("verdict", MsgKind.FINAL_VERDICT, LENGTHS[MsgKind.FINAL_VERDICT],
                _parse_verdict),
    "announce": ("announce", MsgKind.BASIS_ANNOUNCE, None, lambda p: _parse_announce(p, 12)),
    "fixed": ("coincidence", MsgKind.COINCIDENCE, 9, None),
}


@pytest.mark.parametrize("name", RECEIVERS)
@given(data=st.data())
def test_arbitrary_payloads_parse_or_raise_wire_format_error(name, data):
    # through the receive path: a genuinely tagged payload reaches its
    # parser only at the length expected, and a payload of any other
    # length, or one its parser refuses, stops the session at
    # <stage>-structure
    stage, kind, n_bits, parse = RECEIVERS[name]
    size = data.draw(st.one_of(st.just(n_bits or 13), st.integers(0, 40)))
    payload = BitString(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    key = tag = None
    if kind in protocol2.AUTHENTICATED_KINDS:
        key = tuple(range(1, auth.words_needed(n_bits) + 1))
        tag = auth.authenticate(payload, key)
    res = SimpleNamespace(transcript=[])
    try:
        protocol2._send(res, None, WireMessage(kind, payload, tag), stage, n_bits, parse, key)
    except protocol2._Stop as stop:
        assert str(stop) == f"{stage}-structure"
        return
    assert n_bits in (None, size)


class TestSizing:
    def test_position_field_bits(self):
        # two s fields, each as wide as the bit length of N
        for n, width in ((6_250_000, 23), (100_000, 17)):
            assert message_bit_lengths(n, 3)[MsgKind.POSITIONS] == 6 * width

    def test_planned_consumption_and_minimum_share_the_position_width(self):
        # exact widths: from 2**49 - 1 on, a float log2 reads one bit more
        s = 1000
        for n in [2**k + d for k in range(2, 63) for d in (-1, 0, 1)]:
            width = n.bit_length()
            assert message_bit_lengths(n, s)[MsgKind.POSITIONS] == 2 * s * width
            assert min_initial_secret_bits(n, s) == 2 * s * (width + 2) + 32 + 3 * 61
        assert planned_key_consumption(2**49 - 1, s) == 102_297

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
            assert planned_key_consumption(n, 1000) >= min_initial_secret_bits(n, 1000)

    def test_default_pool_adds_slack(self):
        assert (
            default_pool_bits(6_250_000, 1000)
            == planned_key_consumption(6_250_000, 1000) + 8 * 61
        )


class TestSubsetSelection:
    def test_sample_properties(self, rng):
        sample = select_subset_positions(9000, 2000, rng)
        assert sample.size == 2000
        assert np.all(np.diff(sample) > 0)  # sorted, no repeats
        assert sample[0] >= 0 and sample[-1] < 9000

    def test_insufficient(self, rng):
        with pytest.raises(InsufficientDetections):
            select_subset_positions(1999, 2000, rng)

    def test_uniform_inclusion(self, rng):
        # every detection is equally likely to be sampled
        hits = np.zeros(1000)
        for _ in range(300):
            hits[select_subset_positions(1000, 500, rng)] += 1
        # inclusion probability 1/2; four-sigma binomial band per cell
        sd = np.sqrt(300 * 0.25)
        assert np.all(np.abs(hits - 150) <= 4 * sd + 1e-9)

    def test_same_draws_as_sampling_the_sorted_positions(self):
        # indices into sorted detections pick what a draw from the
        # positions themselves picks, and leave the generator alike
        detected = np.sort(make_rng(1).choice(100_000, size=9000, replace=False))
        for seed in range(20):
            a, b = make_rng(seed), make_rng(seed)
            pick = select_subset_positions(detected.size, 2000, a)
            drawn = np.sort(b.choice(detected, size=2000, replace=False))
            assert np.array_equal(detected[pick], drawn)
            assert a.bit_generator.state == b.bit_generator.state


class TestAnnounceEncoding:
    def test_map_then_bases_round_trip(self, rng):
        detected = rng.random(100_000) < 0.0915
        bases = rng.integers(0, 2, int(detected.sum()), dtype=np.uint8)
        payload = _build_announce(100_000, np.flatnonzero(detected), bases)
        assert payload.bits.tolist() == detected.tolist() + bases.tolist()
        got_pos, got_bases = _parse_announce(payload, 100_000)
        assert np.array_equal(got_pos, np.flatnonzero(detected))
        assert np.array_equal(got_bases, bases)

    def test_malformed_payloads_raise_wire_format_error(self):
        payload = _build_announce(50, np.array([3, 9, 40]), np.array([1, 0, 1]))
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
        # the block parities of four passes, blocks of 73, 146, 292 and 584
        # bits, then 64 verification rounds
        assert leak == 15 + 8 + 4 + 2 + 64

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

    def test_hint_at_half_the_true_rate_converges(self, rng):
        # a reference-size key at eps = 0.004 whose sample showed k = 2 of
        # 1000: the first blocks are twice too large for ~1,100 errors
        n = 285_000
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (rng.random(n) < 0.004).astype(np.uint8)
        assert (a != b).sum() > 1000
        _, bob, leak = error_correct(a, b, 0.002, rng)
        assert np.array_equal(bob, a)
        assert 0 < leak < n // 10

    def test_bisect_on_ranks_matches_gathered_parities(self, rng):
        # reference: halve the segment and gather the parity of the lower
        # half from the difference vector, as the protocol announces it;
        # the segment's own parity is known before the search starts
        def gathered(diff, order):
            lo, hi, spent = 0, order.size, 0
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
            (20_000, 0.004, 0.004, {"EC_VERIFY_ROUNDS": 3}),
            (20_000, 0.01, 0.001, {}),
            (60_000, 0.004, 0.003, {}),
            (20_000, 0.3, 0.01, {}),
        ],
    )
    def test_subsets_computed_as_if_drawn_in_full(self, monkeypatch, n, rate, hint, kw):
        # both phases against references that gather every parity straight
        # from diff: Cascade finds the block holding a repaired bit by
        # searching each pass's order, and phase 2 builds every round's
        # subset in full and bisects [0, n) on the parity of diff over each
        # lower half, as the parties announce it
        data = make_rng(n)
        a = data.integers(0, 2, n, dtype=np.uint8)
        b = a ^ (data.random(n) < rate).astype(np.uint8)
        bound = math.ceil(math.log2(n))
        for name, value in kw.items():
            monkeypatch.setattr(protocol2, name, value)
        rounds = protocol2.EC_VERIFY_ROUNDS

        def naive_cascade(diff, block, rng):
            orders, sizes, leak = [], [], 0

            def odd(q, lo, hi):
                return diff[orders[q][lo:hi]].sum() & 1

            def push(heap, q, lo):
                heapq.heappush(heap, (q, lo // sizes[q]))

            for p in range(protocol2.EC_PASSES):
                orders.append(rng.permutation(n))
                sizes.append(block << p)
                heap = []
                for lo in range(0, n, sizes[p]):
                    leak += 1
                    if odd(p, lo, lo + sizes[p]):
                        push(heap, p, lo)
                while heap:
                    q, c = heapq.heappop(heap)
                    lo = c * sizes[q]
                    hi = min(lo + sizes[q], n)
                    if not odd(q, lo, hi):
                        continue
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        leak += 1
                        if odd(q, lo, mid):
                            hi = mid
                        else:
                            lo = mid
                    j = orders[q][lo]
                    diff[j] ^= 1
                    for r in range(p + 1):
                        at = int(np.flatnonzero(orders[r] == j)[0])
                        lo = at - at % sizes[r]
                        if odd(r, lo, lo + sizes[r]):
                            push(heap, r, lo)
            return leak

        def naive_verify(diff, key):
            leak = streak = r = 0
            while streak < rounds:
                subset = protocol2._in_subset(key, r, np.arange(n))
                r += 1
                leak += 1
                if not diff[subset].sum() & 1:
                    streak += 1
                    continue
                lo, hi, spent = 0, n, 0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    spent += 1
                    if diff[lo:mid][subset[lo:mid]].sum() & 1:
                        hi = mid
                    else:
                        lo = mid
                assert spent <= bound
                diff[lo] ^= 1
                leak, streak = leak + spent, 0
            return leak

        def run(cascade, verify):
            phases, charges = [], []

            def spy(phase):
                def call(diff, *args):
                    phases.append(phase(diff, *args))
                    phases.append(diff.tobytes())
                    return phases[-2]
                return call

            def spy_bisect(flips, lo, hi):
                found = real_bisect(flips, lo, hi)
                charges.append((hi - lo, found[1]))
                return found

            monkeypatch.setattr(protocol2, "_cascade", spy(cascade))
            monkeypatch.setattr(protocol2, "_verify", spy(verify))
            monkeypatch.setattr(protocol2, "_bisect", spy_bisect)
            _, bob, leak = error_correct(a, b, hint, make_rng(99))
            assert np.array_equal(bob, a)
            for size, spent in charges:
                assert spent <= math.ceil(math.log2(size)) <= bound
            return bob.tobytes(), leak, phases

        real = protocol2._cascade, protocol2._verify
        real_bisect = protocol2._bisect
        assert run(*real) == run(naive_cascade, naive_verify)

    @pytest.mark.parametrize("hint, f_max", [(0.002, 1.2), (0.004, 1.2), (0.008, None)])
    def test_leak_near_the_shannon_limit_on_reference_size_keys(self, hint, f_max):
        # synthetic 285k-bit keys at eps = 0.004: at the true rate or half
        # of it the mean leak is within 1.2 of n * H2(errors / n); at twice
        # the rate the first blocks are too small to be efficient, but
        # every error is still corrected
        leaks, limits = [], []
        for seed in range(4):
            data = make_rng(seed)
            n = 285_000
            a = data.integers(0, 2, n, dtype=np.uint8)
            b = a ^ (data.random(n) < 0.004).astype(np.uint8)
            limits.append(n * binary_entropy(np.count_nonzero(a != b) / n))
            _, bob, leak = error_correct(a, b, hint, data)
            assert np.array_equal(bob, a)
            leaks.append(leak)
        if f_max is not None:
            assert np.mean(leaks) <= f_max * np.mean(limits)

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

    def test_draws_four_permutations_then_one_key(self, rng):
        # one permutation per Cascade pass, then the phase-2 key; repairs
        # draw nothing
        a = rng.integers(0, 2, 1024, dtype=np.uint8)
        b = a.copy()
        b[::100] ^= 1
        gen, ref = make_rng(4), make_rng(4)
        error_correct(a, b, 0.01, gen)
        for _ in range(4):
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
        assert compute_out_len(REFERENCE, 0.004, 0) == 121_265

    def test_monotone_in_estimate(self):
        outs = [compute_out_len(REFERENCE, e, 0) for e in (0.0, 0.004, 0.02, 0.05)]
        assert outs == sorted(outs, reverse=True)

    def test_floors_at_zero(self):
        assert compute_out_len(REFERENCE, 0.2, 0) == 0

    def test_leak_beyond_the_corrected_length_is_charged(self):
        n_s = expected_sifted_len(REFERENCE)
        allowed = n_s - corrected_len(n_s, 0.004)
        base = compute_out_len(REFERENCE, 0.004, 0)
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
        floor = min_initial_secret_bits(100_000, 1000)
        pools = make_pools(floor - 1)
        with pytest.raises(PoolExhausted):
            run_protocol2(SMALL, seed=4, alice_pool=pools[0], bob_pool=pools[1])

    def test_refused_below_the_planned_key_consumption(self):
        # min_initial_secret_bits undercounts the keys' whole encoding
        # words; a session admitted there would run dry at the verdict key
        b_min = min_initial_secret_bits(100_000, 1000)
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

    def test_low_sample_count_still_refuels_at_reference_scale(self, monkeypatch):
        # this seed's sample shows k = 2 against a true eps of 0.004; error
        # correction starts from 3 / s_real, and its leak fits within what
        # the budget allows at k / s_real, so none comes off the refuel
        hints = spy_on_hints(monkeypatch)
        res = run_protocol2(REFERENCE, seed=3182991027182304544)
        assert res.k == 2
        assert hints == [protocol2.EC_MIN_MISMATCHES / res.s_real]
        assert res.refueled and res.refuel_reason is None
        n_s = expected_sifted_len(REFERENCE)
        assert res.leak <= n_s - corrected_len(n_s, res.eps_est)
        assert res.out_len == compute_out_len(REFERENCE, res.eps_est, res.leak)
        assert res.out_len == compute_out_len(REFERENCE, res.eps_est, 0)
        assert res.out_len <= res.n_key - res.leak
        assert res.net > 0
        assert_pools_mirrored(res)

    def test_hint_is_the_sample_rate_floored_at_three_mismatches(self, monkeypatch):
        # one rule at every scale: max(k, 3) / s_real
        hints = spy_on_hints(monkeypatch)
        ks = set()
        for seed in range(40):
            before = len(hints)
            res = run_protocol2(SMALL, seed=seed)
            if len(hints) > before:
                assert hints[before:] == [max(res.k, protocol2.EC_MIN_MISMATCHES) / res.s_real]
                ks.add(res.k)
        assert min(ks) < protocol2.EC_MIN_MISMATCHES < max(ks)

    @pytest.mark.parametrize("n_pulses, pinned", [
        (100_000, (1011, 4, 245, 1637, -36671, "876dacc07635340c")),
        (3_000_000, (999, 6, 5947, 54617, 6305, "83849632dfa823d3")),
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

    def spy(alice, bob, eps_hint, rng):
        hints.append(eps_hint)
        return error_correct(alice, bob, eps_hint, rng)

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

    @pytest.mark.parametrize("make_script, pinned", [
        (lambda: AdversaryScript(tamper=flip_payload_bit(MsgKind.POSITIONS)),
         ("positions-auth", None, 0, 0, 34099)),
        (lambda: AdversaryScript(tamper=flip_payload_bit(MsgKind.BASES_AND_BITS)),
         ("bases-bits-auth", None, 0, 0, 38186)),
        (lambda: AdversaryScript(tamper=flip_payload_bit(MsgKind.FINAL_VERDICT)),
         ("verdict-auth", None, 1011, 4, 38308)),
        (lambda: AdversaryScript(
            eve=EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=1.0)),
         (None, "verdict-reject", 1011, 260, 38308)),
        (lambda: sifting_mitm_script(20260819), ("positions-auth", None, 0, 0, 34099)),
    ], ids=["tamper-positions", "tamper-bases-bits", "tamper-verdict",
            "intercept-resend", "sifting-mitm"])
    def test_adversarial_desk_sessions_pinned(self, make_script, pinned):
        res = run_protocol2(SMALL, seed=20260819, adversary=make_script())
        assert (res.aborted_at, res.refuel_reason, res.s_real, res.k,
                res.consumed_alice) == pinned

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

    @pytest.mark.parametrize("seed", [10, 11])
    def test_announce_naming_undetected_pulses_spoils_refuel_not_identity(self, seed):
        # the map keeps its detection count, so the frame parses, but its
        # first five detection bits move onto the last five undetected
        # pulses, pulse n - 1 among them.  Alice reads her own values at
        # pulses Bob never detected, and each announced basis now sits
        # five detections away from its pulse.
        n = SMALL.n_pulses
        moved = []

        def tamper(msg):
            if msg.kind is not MsgKind.BASIS_ANNOUNCE:
                return None
            bits = msg.payload.bits.copy()
            undetected = np.flatnonzero(bits[:n] == 0)[-5:]
            moved.append(undetected)
            bits[np.flatnonzero(bits[:n])[:5]] = 0
            bits[undetected] = 1
            return WireMessage(msg.kind, BitString(bits))

        res = run_protocol2(SMALL, seed=seed, adversary=AdversaryScript(tamper=tamper))
        assert moved[0][-1] == n - 1
        assert res.identified and res.aborted_at is None
        assert not res.refueled and res.distilled is None
        # Alice and Bob now count different key lengths
        assert res.refuel_reason == "no-key-bits"
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


def sample_then(on_kind, rewrite):
    """Tamper hook that reads the sample positions off POSITIONS, then
    rewrites the payload of each on_kind frame as rewrite(payload bits,
    sample positions, announced positions)."""
    seen = {}

    def tamper(msg):
        bits = msg.payload.bits
        if msg.kind is MsgKind.POSITIONS:
            seen["sample"] = unpack_uints(bits, position_bits(SMALL.n_pulses))
        if msg.kind is MsgKind.BASIS_ANNOUNCE:
            seen["announced"] = np.flatnonzero(bits[: SMALL.n_pulses])
        if msg.kind is on_kind:
            return WireMessage(msg.kind, BitString(
                rewrite(bits.copy(), seen["sample"], seen.get("announced"))))
        return None

    return tamper


class TestFailClosed:
    """Stops that an honest session or a one-bit tamper never reaches:
    each leaves the session unrefuelled, the pools mirrored and nothing
    raised."""

    def assert_stops_unrefuelled(self, res, stop, identified=True):
        assert res.identified is identified
        assert (res.refuel_reason if identified else res.aborted_at) == stop
        assert not res.refueled and res.distilled is None
        assert_pools_mirrored(res)

    def test_announce_hiding_the_sample_fails_alice_recheck(self):
        # the map drops the sample positions, and their bases with them,
        # so it stays consistent, yet Alice finds none of her sample in it
        n = SMALL.n_pulses

        def hide(bits, sample, _):
            pos = np.flatnonzero(bits[:n])
            keep = ~np.isin(pos, sample)
            return _build_announce(n, pos[keep], bits[n:][keep]).bits

        res = run_protocol2(SMALL, seed=10, adversary=AdversaryScript(
            tamper=sample_then(MsgKind.BASIS_ANNOUNCE, hide)))
        assert res.verdict_accept and not res.alice_recheck
        self.assert_stops_unrefuelled(res, "alice-recheck")

    def test_coincidence_naming_unmatched_bases_leaves_no_budget(self):
        # a mask of the right weight that swaps 1,000 matched detections
        # outside the sample for unmatched ones: Bob's key is a coin toss
        # there, and error correction leaks more than the budget holds
        def swap(bits, sample, announced):
            free = ~np.isin(announced, sample)
            ones = np.flatnonzero(free & (bits == 1))[:1000]
            zeros = np.flatnonzero(free & (bits == 0))[:1000]
            bits[ones], bits[zeros] = 0, 1
            return bits

        res = run_protocol2(SMALL, seed=10, adversary=AdversaryScript(
            tamper=sample_then(MsgKind.COINCIDENCE, swap)))
        assert res.leak > 0 and res.out_len <= 0
        self.assert_stops_unrefuelled(res, "budget-nonpositive")

    def test_budget_above_the_available_key_is_refused(self):
        # at 25,000 pulses the budget's closed form counts on the expected
        # sifted length, while the 2,000-position sample leaves ~150 bits
        res = run_protocol2(replace(REFERENCE, n_pulses=25_000), seed=0)
        assert res.out_len > res.n_key - res.leak > 0
        self.assert_stops_unrefuelled(res, "budget-exceeds-available")

    def test_sample_without_an_eps_limit_is_rejected(self):
        # s = 5: no Bayesian limit exists for so few basis-matched bits
        # (solve_eps_limit raises NoSolution), so the verdict is reject
        params = replace(SMALL, s=5)
        res = run_protocol2(params, seed=10)
        with pytest.raises(NoSolution):
            solve_eps_limit(res.s_real, params.delta, params.eps_max)
        assert res.s_real > 0 and not res.verdict_accept
        self.assert_stops_unrefuelled(res, "verdict-reject")

    def test_genuinely_tagged_unsorted_sample_fails_structure(self, monkeypatch):
        # Bob's own sample, out of order: its tag verifies, its parse fails
        pick = protocol2.select_subset_positions
        monkeypatch.setattr(protocol2, "select_subset_positions",
                            lambda n, two_s, rng: pick(n, two_s, rng)[::-1])
        res = run_protocol2(SMALL, seed=10)
        self.assert_stops_unrefuelled(res, "positions-structure", identified=False)
        assert res.transcript[-1].kind is MsgKind.ABORT

    def test_genuinely_tagged_verdict_with_reserved_bits_fails_structure(self, monkeypatch):
        monkeypatch.setattr(protocol2, "_build_verdict",
                            lambda accept, k: pack_uints([accept << 31 | 1 << 20 | k], 32))
        res = run_protocol2(SMALL, seed=10)
        self.assert_stops_unrefuelled(res, "verdict-structure", identified=False)
        assert res.transcript[-1].kind is MsgKind.ABORT
