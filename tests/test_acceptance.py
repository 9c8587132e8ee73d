"""Acceptance suite: eleven end-to-end checks of the library's headline
numbers and security behaviors.

Each test prints one verdict line ("criterion N: PASS/FAIL — detail");
the same lines are echoed in a summary section after the run.  Verdicts
are computed and reported before the assert so a failing criterion
still documents exactly what was measured.
"""

import itertools
import math
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
from scipy import stats

import conftest
from qident import auth, budget, cli, estimation, protocol1, protocol2
from qident.budget import BudgetParams
from qident.channel import EveParams, EveStrategy
from qident.core import make_rng, random_bitstring
from qident.protocol1 import IdentOutcome


def verdict(n: int, ok: bool, detail: str) -> bool:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    return ok


def test_criterion_1_error_acceptance_limit():
    t0 = time.perf_counter()
    lim = estimation.solve_eps_limit(s=1000, delta=1e-10, eps_max=0.07)
    dt = time.perf_counter() - t0
    ok = abs(lim - 0.024) <= 0.001 and dt < 1.0
    assert verdict(
        1, ok,
        f"eps_limit(s=1000, delta=1e-10, eps_max=0.07) = {lim:.5f} "
        f"(want 0.024 +/- 0.001) in {dt * 1e3:.0f} ms",
    )


def test_criterion_2_defendable_error_rate_bound():
    t0 = time.perf_counter()
    ub = budget.error_rate_upper_bound()
    dt = time.perf_counter() - t0
    ok = abs(ub - 0.066) <= 0.002 and dt < 1.0
    assert verdict(
        2, ok,
        f"defendable error-rate upper bound = {ub:.5f} "
        f"(want 0.066 +/- 0.002) in {dt * 1e3:.0f} ms",
    )


def test_criterion_3_attack_guess_probability_anchor():
    p_bar = budget.guess_probability_from_info(budget.optimal_attack_info(0.01))
    ok = abs(p_bar - 0.60) <= 0.01
    assert verdict(
        3, ok,
        f"per-bit guess probability of the optimal attack at eps=0.01: "
        f"{p_bar:.4f} (want 0.60 +/- 0.01)",
    )


def test_criterion_4_budget_figures():
    t0 = time.perf_counter()
    params = BudgetParams.reference()
    sifted = budget.expected_sifted_len(params)
    b_min = budget.min_initial_secret_bits(params.n_pulses, params.s)
    distilled = budget.distilled_len(params)
    dt = time.perf_counter() - t0
    ok = (
        sifted == 300_000.0
        and b_min == 50_215
        and abs(distilled - 117_000) <= 0.10 * 117_000
        and dt < 1.0
    )
    assert verdict(
        4, ok,
        f"sifted = {sifted:.1f} (want 300000 exactly), b_min = {b_min} "
        f"(want 50215 exactly), distilled = {distilled:.1f} "
        f"(want within 10% of 117000) in {dt * 1e3:.0f} ms",
    )


def test_criterion_5_intensity_optimum_and_break_even():
    t0 = time.perf_counter()
    params = BudgetParams.reference()
    mu_star, _ = budget.optimize_intensity(params)
    break_even = budget.break_even_pulses(params)
    dt = time.perf_counter() - t0
    mu_ok = 0.7 <= mu_star <= 0.9
    be_ok = 3.1e6 / 1.5 <= break_even <= 3.1e6 * 1.5
    ok = mu_ok and be_ok and dt < 10.0
    assert verdict(
        5, ok,
        f"mu* = {mu_star:.2f} (want within [0.7, 0.9]: "
        f"{'ok' if mu_ok else 'MISS'}), break-even = {break_even:.3g} pulses "
        f"(want within 1.5x of 3.1e6: {'ok' if be_ok else 'MISS'}) "
        f"in {dt:.1f} s",
    )


def test_criterion_6_production_scale_authentication():
    t0 = time.perf_counter()
    rng = make_rng(6)
    lengths = [0, 1, auth.max_message_bits(auth.PRODUCTION_WORDS)]
    lengths += [int(v) for v in rng.integers(0, 45_018, size=97)]
    n_ok = n_rej = 0
    for i, n_bits in enumerate(lengths):
        msg = random_bitstring(n_bits, rng)
        key, _ = auth.key_from_bits(
            random_bitstring(auth.PRODUCTION_KEY_BITS + 610, rng),
            auth.PRODUCTION_WORDS,
        )
        tag = auth.authenticate(msg, key)
        n_ok += auth.verify(msg, tag, key)
        if i % 2 == 0 and n_bits > 0:  # flip one message bit
            bad = msg.flipped(int(rng.integers(0, n_bits)))
            n_rej += not auth.verify(bad, tag, key)
        else:  # flip one tag bit
            bad_tag = tag ^ (1 << int(rng.integers(0, 61)))
            n_rej += not auth.verify(msg, bad_tag, key)
    dt = time.perf_counter() - t0
    ok = n_ok == 100 and n_rej == 100 and dt < 10.0
    assert verdict(
        6, ok,
        f"{n_ok}/100 production-size tags verified, {n_rej}/100 single-bit "
        f"tampers rejected in {dt:.1f} s",
    )


def test_criterion_7_orthogonal_array_structure():
    t0 = time.perf_counter()
    cases = [(2, 2), (3, 2), (5, 2), (3, 3)]
    balanced = substitution_exact = True
    for p, d in cases:
        keys = list(itertools.product(range(p), repeat=d))
        messages = [(1, *rest) for rest in itertools.product(range(p), repeat=d - 1)]
        for msg in messages:
            by_tag = defaultdict(list)
            for key in keys:
                by_tag[auth.tag_message(key, msg, p)].append(key)
            # every (message, tag) pair produced by exactly p^(d-1) keys
            balanced &= set(by_tag) == set(range(p))
            balanced &= all(len(ks) == p ** (d - 1) for ks in by_tag.values())
            # substitution: whatever Eve saw, each forgery passes on
            # exactly a 1/p fraction of the keys consistent with it
            for consistent in by_tag.values():
                for forged in messages:
                    if forged == msg:
                        continue
                    for forged_tag in range(p):
                        hits = sum(
                            auth.tag_message(key, forged, p) == forged_tag
                            for key in consistent
                        )
                        substitution_exact &= hits * p == len(consistent)
    dt = time.perf_counter() - t0
    ok = balanced and substitution_exact and dt < 30.0
    assert verdict(
        7, ok,
        f"key balance {'exact' if balanced else 'BROKEN'} and substitution "
        f"rate {'exactly 1/p' if substitution_exact else 'BROKEN'} at "
        f"(p,d) in {{(2,2),(3,2),(5,2),(3,3)}} in {dt:.1f} s",
    )


def brute_force_deception(probs, k: int) -> float:
    """Independent oracle: sum over all 2^n correctness patterns."""
    n = len(probs)
    total = 0.0
    for mask in range(1 << n):
        if n - bin(mask).count("1") > k:
            continue
        prob = 1.0
        for i in range(n):
            prob *= probs[i] if (mask >> i) & 1 else 1.0 - probs[i]
        total += prob
    return total


def test_criterion_8_deception_oracle_equivalence():
    t0 = time.perf_counter()
    rng = make_rng(8)
    n_equal = n_dominated = 0
    max_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        eps = float(rng.uniform(0.005, 0.35))
        p_bar = float(rng.uniform(0.5, 0.999))
        k = budget.tolerance(n, eps)
        exact = budget.deception_probability_exact([p_bar] * n, k)
        gap = abs(exact - brute_force_deception([p_bar] * n, k))
        # same instance with heterogeneous per-bit probabilities
        probs = [float(v) for v in rng.uniform(0.0, 1.0, size=n)]
        gap = max(gap, abs(
            budget.deception_probability_exact(probs, k)
            - brute_force_deception(probs, k)
        ))
        max_gap = max(max_gap, gap)
        n_equal += gap <= 1e-12
        bound = math.exp(budget.log_deception_probability_bound(n, eps, p_bar))
        n_dominated += bound >= exact - 1e-12
    params = protocol1.Protocol1Params(n_is=20, eps=0.01)
    exact_mc = budget.deception_probability_exact([0.6] * 20, params.k)
    freq = protocol1.eve_impersonation_frequency(
        [0.6] * 20, params, 1_000_000, rng=make_rng(88)
    )
    sigma = math.sqrt(exact_mc * (1.0 - exact_mc) / 1_000_000)
    z = abs(freq - exact_mc) / sigma
    dt = time.perf_counter() - t0
    ok = n_equal == 100 and n_dominated == 100 and z <= 4.0 and dt < 60.0
    assert verdict(
        8, ok,
        f"exact matches 2^N enumeration on {n_equal}/100 instances "
        f"(max gap {max_gap:.1e}), bound dominates {n_dominated}/100, "
        f"Monte-Carlo off by {z:.2f} sigma at N=20 over 1e6 trials "
        f"in {dt:.0f} s",
    )


def test_criterion_9_protocol2_security():
    t0 = time.perf_counter()
    small = replace(BudgetParams.reference(), n_pulses=100_000)

    # (a) single-bit tamper of each authenticated message, random position
    kinds = list(protocol2.AUTHENTICATED_KINDS)
    tamper_caught = 0
    for i in range(100):
        srng = make_rng(900 + i)
        kind = kinds[int(srng.integers(0, len(kinds)))]

        def tamper(msg, kind=kind, srng=srng):
            if msg.kind is kind:
                pos = int(srng.integers(0, len(msg.payload)))
                return protocol2.WireMessage(
                    msg.kind, msg.payload.flipped(pos), msg.tag
                )
            return None

        r = protocol2.run_protocol2(
            small, seed=10_000 + i,
            adversary=protocol2.AdversaryScript(tamper=tamper),
        )
        tamper_caught += not r.identified

    # (b) full intercept-resend must be refused fresh key material
    ir = protocol2.AdversaryScript(
        eve=EveParams(strategy=EveStrategy.INTERCEPT_RESEND, fraction=1.0)
    )
    root = make_rng(91)
    denied = 0
    for _ in range(1000):
        denied += not protocol2.run_protocol2(small, seed=root, adversary=ir).refueled

    # (c) man-in-the-middle running separate photon exchanges
    root = make_rng(92)
    defeated = 0
    for i in range(1000):
        r = protocol2.run_protocol2(
            small, seed=root, adversary=protocol2.sifting_mitm_script(seed=i)
        )
        defeated += not r.identified
    dt_desk = time.perf_counter() - t0

    t1 = time.perf_counter()
    spot = protocol2.run_protocol2(BudgetParams.reference(), seed=20260819)
    dt_spot = time.perf_counter() - t1
    spot_ok = spot.identified and spot.refueled and spot.net > 0

    ok = (
        tamper_caught == 100
        and denied >= 999
        and defeated >= 999
        and dt_desk < 300.0
        and spot_ok
        and dt_spot < 600.0
    )
    assert verdict(
        9, ok,
        f"tampering caught {tamper_caught}/100, intercept-resend denied "
        f"{denied}/1000, sifting MITM defeated {defeated}/1000 "
        f"in {dt_desk:.0f} s; full-scale spot check "
        f"{'refuels +' + str(spot.net) + ' bits' if spot_ok else 'FAILED'} "
        f"in {dt_spot:.0f} s",
    )


def test_criterion_10_protocol1_rates():
    t0 = time.perf_counter()
    params = protocol1.Protocol1Params()  # 50-bit sequences, one miss allowed
    n = 10_000

    honest = protocol1.run_trials(params, n, seed=11)
    p_h = float(stats.binom.cdf(params.k, params.n_is, params.eps)) ** 3
    succ = honest[IdentOutcome.SUCCESS]
    z_h = abs(succ - n * p_h) / math.sqrt(n * p_h * (1.0 - p_h))

    impostor = protocol1.run_trials(params, n, seed=12, impostor="initiator")
    # the initiator impostor must sneak past both of Bob's checks
    p_i = protocol1.impostor_pass_probability(params) ** 2
    failures = n - impostor[IdentOutcome.SUCCESS]
    z_i = abs(failures - n * (1.0 - p_i)) / math.sqrt(max(n * p_i * (1.0 - p_i), 1e-300))
    dt = time.perf_counter() - t0

    ok = z_h <= 4.0 and failures == n and z_i <= 4.0 and dt < 30.0
    assert verdict(
        10, ok,
        f"honest successes {succ}/{n} vs binomial oracle {n * p_h:.0f} "
        f"({z_h:.2f} sigma); impostor failures {failures}/{n} "
        f"(oracle pass rate {p_i:.1e}) in {dt:.1f} s",
    )


def test_criterion_11_csv_determinism(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("n_pulses = 100000\n", encoding="utf-8")
    runs = [
        ("simulate-qkd", "--config", str(cfg), "--seed", "3", "--trials", "2"),
        ("protocol1", "--seed", "4", "--trials", "30"),
        ("protocol2", "--config", str(cfg), "--seed", "5"),
        ("deception", "--seed", "6"),
        ("epslim", "--seed", "7"),
        ("budget", "--config", str(cfg), "--seed", "8"),
        ("optimize-mu", "--seed", "9"),
    ]
    identical = 0
    for i, argv in enumerate(runs):
        first = tmp_path / f"{i}-first.csv"
        second = tmp_path / f"{i}-second.csv"
        cli.main([*argv, "--out", str(first)])
        cli.main([*argv, "--out", str(second)])
        identical += first.read_bytes() == second.read_bytes()
    ok = identical == len(runs)
    assert verdict(
        11, ok,
        f"repeat with identical config+seed byte-identical for "
        f"{identical}/{len(runs)} subcommands",
    )
