"""One run of one qident benchmark workload, inside its own process.

run.py starts this file in a fresh, single-threaded child process, one
per workload run, and prints what it reports.  The library is driven
only through its public entry points (``protocol2.run_protocol2``,
``cli.main`` and ``protocol1.run_trials``) with inputs generated here
from the workload seed.  Why each workload and metric exists is written
down in README.md beside this file.

Modes:

    measure   untraced: set-up, then whole passes for --seconds, then
              the fixed-seed canaries; end-to-end figures
    setup     set-up only (import, parameters, one warm-up); one
              setup_s sample
    trace     the same passes run untraced, then again with every layer
              wrapped (tracing.py); per-layer figures per pass
    record    print the current output digests, the contents of
              digests.json after a deliberate behaviour change

The other modes end standard output with one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from collections import Counter, defaultdict, namedtuple
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("full-session", "desk-mix", "analysis-cli")

DESK_PULSES = 100_000
# Above break-even (~2.5e6 pulses), so net > 0 keeps its meaning, at a
# quarter of the reference's PA work: the size of smoke full sessions and
# of the full-path canary.
MID_PULSES = 3_000_000
# One 10-slot cycle is 40% honest, 20% single-bit tamper, 20% full
# intercept-resend, 20% sifting man-in-the-middle; a desk pass is three
# cycles so that the tamper rotates once over the three authenticated kinds.
DESK_CYCLE = ("honest", "tamper", "honest", "intercept-resend", "mitm",
              "honest", "tamper", "intercept-resend", "honest", "mitm")
DESK_CYCLES_PER_PASS = 3
PROTOCOL1_TRIALS = 10_000
SMOKE_PROTOCOL1_TRIALS = 1_000
# The honest protocol1 rate is checked against its binomial oracle on
# every pass of every run; 5 sigma keeps a false alarm below 1e-6 per check.
PROTOCOL1_MAX_Z = 5.0
# The criterion-11 commands at their fixed seeds; {cfg} is a 1e5-pulse config.
CLI_RUNS = (
    ("simulate-qkd", ("--config", "{cfg}", "--seed", "3", "--trials", "2")),
    ("protocol1", ("--seed", "4", "--trials", "30")),
    ("protocol2", ("--config", "{cfg}", "--seed", "5")),
    ("deception", ("--seed", "6")),
    ("epslim", ("--seed", "7")),
    ("budget", ("--config", "{cfg}", "--seed", "8")),
    ("optimize-mu", ("--seed", "9")),
)
CANARY_SEED = 20260819
# A window that ends before any unit completed correctly is extended up to
# this many passes so that there is something to time.
MAX_UNTIMED_PASSES = 8
# Some honest full sessions refuse to refuel (ec-nonconvergence, README.md),
# so a full-session run is not timed but counted: one session per this many
# seconds of --seconds.  Its units, and so its failures, then depend on the
# seed alone, and two runs on one seed agree on both.
FULL_SESSION_SLOT_S = 8.0

Unit = namedtuple("Unit", "label run check")
Row = namedtuple("Row", "label seconds status reason digest")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_library():
    """Import qident from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "qident" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library sources at {src / 'qident'}")
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    from scipy import stats

    from qident import auth, budget, channel, cli, core, estimation, protocol1, protocol2

    if Path(core.__file__).resolve().parent != src / "qident":
        raise SystemExit(f"benchmark: qident was imported from {core.__file__}")
    return types.SimpleNamespace(
        numpy=numpy, scipy=scipy, stats=stats, auth=auth, budget=budget,
        channel=channel, cli=cli, core=core, estimation=estimation,
        protocol1=protocol1, protocol2=protocol2)


class Context:
    """What one run shares: the library, sizes, recorded digests, the
    temporary directory for CLI output and the behaviour changes seen."""

    def __init__(self, lib, workload: str, seed: int, smoke: bool):
        self.lib, self.workload, self.seed, self.smoke = lib, workload, seed, smoke
        reference = lib.budget.BudgetParams.reference()
        self.full_params = (replace(reference, n_pulses=MID_PULSES)
                            if smoke else reference)
        self.desk_params = replace(reference, n_pulses=DESK_PULSES)
        self.recorded = (json.loads(DIGESTS.read_text(encoding="utf-8"))
                         if DIGESTS.is_file() else {})
        self.changes: set[str] = set()
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = self.workdir / "desk.cfg"
        self.cfg.write_text(f"n_pulses = {DESK_PULSES}\n", encoding="utf-8")

    def compare(self, group: str, name: str, digest: str) -> None:
        if self.recorded.get(group, {}).get(name) != digest:
            self.changes.add(f"{group}.{name}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- units of work ------------------------------------------------------------


def session_digest(r) -> str:
    distilled = "-" if r.distilled is None else sha256(r.distilled.to_bytes())
    fields = (r.identified, r.aborted_at, r.refueled, r.refuel_reason, r.s_real,
              r.k, r.leak, r.out_len, r.net, distilled)
    return sha256("|".join(map(str, fields)).encode())


def check_session(cls: str, r, need_net: bool) -> tuple[str, str]:
    """(status, reason) of one session against its class.

    "violation" is a wrong security outcome and makes the run incorrect;
    "fail" is a session that stayed safe but did not do its job (an
    honest session that refused to refuel).  Both count as failed.
    """
    if (r.consumed_alice != r.consumed_bob or r.alice_pool.pointer != r.bob_pool.pointer
            or r.alice_pool.size != r.bob_pool.size):
        return "violation", "pools-diverged"
    if cls == "honest":
        if not r.identified:
            return "violation", f"honest-not-identified:{r.aborted_at}"
        if not r.refueled:
            return "fail", f"honest-not-refueled:{r.refuel_reason}"
        if need_net and r.net <= 0:
            return "fail", "honest-net-not-positive"
    elif cls in ("tamper", "mitm"):
        if r.identified:
            return "violation", f"{cls}-identified"
    elif cls == "intercept-resend":
        if r.refueled:
            return "violation", "intercept-resend-refueled"
    return "ok", ""


def adversary(ctx: Context, cls: str, rng: random.Random, kind):
    p2 = ctx.lib.protocol2
    if cls == "honest":
        return None
    if cls == "intercept-resend":
        ch = ctx.lib.channel
        return p2.AdversaryScript(
            eve=ch.EveParams(strategy=ch.EveStrategy.INTERCEPT_RESEND, fraction=1.0),
            name="intercept-resend")
    if cls == "mitm":
        return p2.sifting_mitm_script(seed=rng.getrandbits(32))
    flips = random.Random(rng.getrandbits(64))

    def tamper(msg):
        if msg.kind is not kind:
            return None
        pos = flips.randrange(len(msg.payload))
        return p2.WireMessage(msg.kind, msg.payload.flipped(pos), msg.tag)

    return p2.AdversaryScript(tamper=tamper, name=f"tamper-{kind.name}")


def session_unit(ctx: Context, params, cls: str, seed: int, adv, need_net=False) -> Unit:
    def run():
        return ctx.lib.protocol2.run_protocol2(params, seed=seed, adversary=adv)

    def check(r):
        return (*check_session(cls, r, need_net), session_digest(r))

    return Unit(cls, run, check)


def cli_unit(ctx: Context, name: str, args) -> Unit:
    out = ctx.workdir / f"{name}.csv"
    argv = [name, *(a.format(cfg=ctx.cfg) for a in args), "--out", str(out)]

    def run():
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = ctx.lib.cli.main(argv)
        return code, err.getvalue()

    def check(result):
        code, err = result
        if code != 0:
            sys.stderr.write(err)
            return "violation", f"cli-{name}-exit-{code}", ""
        digest = sha256(out.read_bytes())
        ctx.compare("cli_csv", name, digest)
        return "ok", "", digest

    return Unit(f"cli.{name}", run, check)


def trials_unit(ctx: Context, impostor, seed: int, n: int) -> Unit:
    p1 = ctx.lib.protocol1
    params = p1.Protocol1Params()

    def run():
        return p1.run_trials(params, n, seed=seed, impostor=impostor)

    def check(counts):
        succ = counts[p1.IdentOutcome.SUCCESS]
        digest = sha256(json.dumps([counts[o] for o in p1.IdentOutcome]).encode())
        if impostor is not None:  # criterion 10: no impostor trial may pass
            ok = succ == 0
        else:
            p = float(ctx.lib.stats.binom.cdf(params.k, params.n_is, params.eps)) ** 3
            ok = abs(succ - n * p) <= PROTOCOL1_MAX_Z * math.sqrt(n * p * (1.0 - p))
        label = "impostor" if impostor else "honest"
        return ("ok", "", digest) if ok else ("violation", f"protocol1-{label}-rate", digest)

    return Unit("protocol1.impostor" if impostor else "protocol1.honest", run, check)


def make_pass(ctx: Context, index: int) -> list[Unit]:
    """The units of pass ``index``; the same (seed, index) always gives
    the same inputs, and every call builds fresh adversary state."""
    rng = random.Random(f"{ctx.workload}/{ctx.seed}/{index}")
    if ctx.workload == "full-session":
        return [session_unit(ctx, ctx.full_params, "honest", rng.getrandbits(63), None,
                             need_net=True)]
    if ctx.workload == "desk-mix":
        kinds = ctx.lib.protocol2.AUTHENTICATED_KINDS
        units, n_tamper = [], 0
        for _ in range(DESK_CYCLES_PER_PASS):
            for cls in DESK_CYCLE:
                kind = kinds[n_tamper % len(kinds)] if cls == "tamper" else None
                n_tamper += cls == "tamper"
                seed = rng.getrandbits(63)
                units.append(session_unit(ctx, ctx.desk_params, cls, seed,
                                          adversary(ctx, cls, rng, kind)))
        return units
    n = SMOKE_PROTOCOL1_TRIALS if ctx.smoke else PROTOCOL1_TRIALS
    units = [cli_unit(ctx, name, args) for name, args in CLI_RUNS]
    units.append(trials_unit(ctx, None, rng.getrandbits(63), n))
    units.append(trials_unit(ctx, "initiator", rng.getrandbits(63), n))
    return units


def warmup_unit(ctx: Context) -> Unit:
    if ctx.workload == "analysis-cli":
        return cli_unit(ctx, *CLI_RUNS[5])  # budget: the cheapest command
    return canary_units(ctx)[0][1]


def canary_units(ctx: Context, full=False) -> list[tuple[str, Unit]]:
    """Fixed-seed sessions whose result digests are recorded in
    digests.json; the first one is the session workloads' warm-up."""
    rng = random.Random(CANARY_SEED)
    kinds = ctx.lib.protocol2.AUTHENTICATED_KINDS
    out = [(f"desk-{cls}", session_unit(ctx, ctx.desk_params, cls, CANARY_SEED,
                                         adversary(ctx, cls, rng, kinds[-1])))
           for cls in ("honest", "tamper", "intercept-resend", "mitm")]
    if full:
        mid = replace(ctx.desk_params, n_pulses=MID_PULSES)
        out.append(("mid-honest", session_unit(ctx, mid, "honest", CANARY_SEED, None,
                                               need_net=True)))
    return out


# -- running ------------------------------------------------------------------


def run_pass(units, tracer=None, request="") -> list[Row]:
    rows = []
    for i, unit in enumerate(units):
        fn = unit.run
        if tracer is not None:
            tracer.request = f"{request}.{i}"
            fn = tracer.root(fn)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the run goes on; the unit counts as failed
            seconds = time.perf_counter() - start
            traceback.print_exc()
            rows.append(Row(unit.label, seconds, "violation", "exception", ""))
            continue
        seconds = time.perf_counter() - start
        rows.append(Row(unit.label, seconds, *unit.check(result)))
    return rows


def has_ok(passes) -> bool:
    return any(row.status == "ok" for rows in passes for row in rows)


def planned_passes(workload: str, seconds: float) -> int | None:
    """The fixed pass count of a workload, or None when it is timed."""
    if workload == "full-session":
        return max(1, round(seconds / FULL_SESSION_SLOT_S))
    return None


def run_window(ctx: Context, seconds: float) -> list[list[Row]]:
    """Whole passes, a closed loop with one client (at least one pass):
    the planned number, or else as many as ``seconds`` hold."""
    passes, start = [], time.perf_counter()
    planned = planned_passes(ctx.workload, seconds)

    def more() -> bool:
        if planned is not None:
            return len(passes) < planned
        return time.perf_counter() - start < seconds

    while (not passes or more()
           or (not has_ok(passes) and len(passes) < MAX_UNTIMED_PASSES)):
        passes.append(run_pass(make_pass(ctx, len(passes))))
    return passes


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def outcome_summary(passes) -> dict:
    rows = [row for rows in passes for row in rows]
    failed = [row for row in rows if row.status != "ok"]
    ok_seconds = defaultdict(list)
    for row in rows:
        if row.status == "ok":
            ok_seconds[row.label].append(row.seconds)
    stream = hashlib.sha256()
    for row in rows:
        stream.update(f"{row.label}:{row.digest}\n".encode())
    return {
        "attempted": len(rows),
        "failed": len(failed),
        "violations": sum(row.status == "violation" for row in rows),
        "failures": dict(Counter(row.reason for row in failed)),
        "units": dict(Counter(row.label for row in rows)),
        "unit_ms_p50": {label: percentile(v, 50) * 1e3 for label, v in ok_seconds.items()},
        "stream_sha256": stream.hexdigest(),
    }


def end_to_end(passes) -> tuple[dict, dict]:
    """Timing metrics over units that completed correctly; failed units
    are left out of every timing and counted by fail_rate instead."""
    ok = [row.seconds for rows in passes for row in rows if row.status == "ok"]
    clean = [sum(r.seconds for r in rows) for rows in passes
             if all(r.status == "ok" for r in rows)]
    if not clean:
        clean = [sum(r.seconds for r in rows if r.status == "ok") for rows in passes]
    metrics = {
        "session_ms_p50": (percentile(ok, 50) * 1e3, "ms"),
        "session_ms_p95": (percentile(ok, 95) * 1e3, "ms"),
        "sessions_per_s": (len(ok) / sum(ok), "1/s"),
        "pass_s": (statistics.median(clean), "s"),
    }
    samples = {"sessions": len(ok), "passes": len(passes), "clean_passes": len(clean),
               "beyond_p95": sum(s * 1e3 > metrics["session_ms_p95"][0] for s in ok)}
    return metrics, samples


def check_canaries(ctx: Context, canaries) -> int:
    """Run fixed-seed canaries, compare their digests; returns violations."""
    violations = 0
    for name, unit in canaries:
        (row,) = run_pass([unit])
        violations += row.status == "violation"
        ctx.compare("sessions", name, row.digest)
    return violations


def setup(workload: str, seed: int, smoke: bool) -> tuple[Context, float, int]:
    """Import, parameters and one warm-up unit; returns (context,
    seconds, warm-up violations)."""
    start = time.perf_counter()
    lib = load_library()
    ctx = Context(lib, workload, seed, smoke)
    (row,) = run_pass([warmup_unit(ctx)])
    seconds = time.perf_counter() - start
    if ctx.workload != "analysis-cli":
        ctx.compare("sessions", "desk-honest", row.digest)
    return ctx, seconds, int(row.status == "violation")


def mode_measure(ctx, setup_s, violations, seconds) -> dict:
    passes = run_window(ctx, seconds)
    if not has_ok(passes):
        raise SystemExit("benchmark: no unit completed correctly, nothing to time")
    metrics, samples = end_to_end(passes)
    summary = outcome_summary(passes)
    violations += check_canaries(ctx, canary_units(
        ctx, full=ctx.workload == "full-session")[1:])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return {"metrics": metrics, "samples": samples, "setup_s": setup_s,
            "canary_violations": violations, **summary}


# Spans every pass of a workload must reach.  Zero calls means a wrapper is
# no longer where the caller looks the name up, so its figures would be empty.
_SESSION_SPANS = ("protocol2.run_protocol2", "channel.run_qkd", "auth.key_from_pool",
                  "auth.encode_message", "auth.tag_message", "auth.authenticate",
                  "auth.verify", "core.SecretPool.consume", "protocol2.wire",
                  "estimation.solve_eps_limit", "protocol2.error_correct")
EXPECTED_SPANS = {
    "full-session": _SESSION_SPANS,
    "desk-mix": _SESSION_SPANS + ("protocol2.privacy_amplify", "budget.distilled_len",
                                  "core.SecretPool.refuel"),
    "analysis-cli": ("cli.main", "protocol1.run_trials", "protocol1.run_protocol1",
                     "estimation.solve_eps_limit", "budget.optimize_intensity",
                     "budget.break_even_pulses", "budget.distilled_len",
                     "channel.run_qkd", "protocol2.run_protocol2"),
}


def mode_trace(ctx, violations, seconds) -> dict:
    import tracing

    plain = run_window(ctx, seconds)
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_sites(ctx.lib))
    try:
        traced = [run_pass(make_pass(ctx, i), tracer, f"p{i}") for i in range(len(plain))]
    finally:
        tracer.uninstall()
    missing = [name for name in EXPECTED_SPANS[ctx.workload] if not tracer.calls[name]]
    if missing:
        raise SystemExit("traced run: no calls reached the wrappers of "
                         f"{', '.join(missing)}; their callers no longer look them up there")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"trace-{ctx.workload}-seed{ctx.seed}.csv"
    tracer.write_spans(spans_file)
    untraced_s = sum(r.seconds for rows in plain for r in rows)
    traced_s = sum(r.seconds for rows in traced for r in rows)
    summary = outcome_summary(traced)
    return {"metrics": layer_metrics(tracer, len(traced), untraced_s, traced_s),
            "samples": {"passes": len(traced)}, "spans_file": str(spans_file.relative_to(ROOT)),
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
            "canary_violations": violations, **summary}


def layer_metrics(tr, n_passes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures, each per pass of the workload."""
    def calls(name):
        return tr.calls[name] / n_passes, "count/pass"

    def self_s(name):
        return tr.self_s[name] / n_passes, "s/pass"

    def count(name, unit):
        return tr.counts[name] / n_passes, unit

    def share(seconds):
        return (seconds / root if root else 0.0), "ratio"

    root = tr.root_seconds
    ec_base = tr.counts["protocol2.ec_key_bits"]
    return {
        "channel.run_qkd.calls": calls("channel.run_qkd"),
        "channel.run_qkd.self_s": self_s("channel.run_qkd"),
        "channel.pulses": count("channel.pulses", "pulse/pass"),
        "auth.key_from_pool.calls": calls("auth.key_from_pool"),
        "auth.key_from_pool.self_s": self_s("auth.key_from_pool"),
        "auth.key_bits_drawn": count("auth.key_bits_drawn", "bit/pass"),
        "auth.encode_message.self_s": self_s("auth.encode_message"),
        "auth.tag_message.self_s": self_s("auth.tag_message"),
        "auth.authenticate.self_s": self_s("auth.authenticate"),
        "auth.verify.calls": calls("auth.verify"),
        "auth.verify.rejects": count("auth.verify.rejects", "count/pass"),
        "auth.share": share(tr.layer_s["auth"]),
        "core.SecretPool.consume.calls": calls("core.SecretPool.consume"),
        "core.SecretPool.consume.bits": count("core.SecretPool.consume.bits", "bit/pass"),
        "core.SecretPool.consume.self_s": self_s("core.SecretPool.consume"),
        "core.SecretPool.refuel.calls": calls("core.SecretPool.refuel"),
        "estimation.solve_eps_limit.calls": calls("estimation.solve_eps_limit"),
        "estimation.solve_eps_limit.self_s": self_s("estimation.solve_eps_limit"),
        "protocol2.privacy_amplify.calls": calls("protocol2.privacy_amplify"),
        "protocol2.privacy_amplify.self_s": self_s("protocol2.privacy_amplify"),
        "protocol2.privacy_amplify.share": share(tr.self_s["protocol2.privacy_amplify"]),
        "protocol2.pa_bits_in": count("protocol2.pa_bits_in", "bit/pass"),
        "protocol2.pa_bits_out": count("protocol2.pa_bits_out", "bit/pass"),
        "protocol2.pa_bit_ops": count("protocol2.pa_bit_ops", "op/pass-computed"),
        "protocol2.error_correct.calls": calls("protocol2.error_correct"),
        "protocol2.error_correct.self_s": self_s("protocol2.error_correct"),
        "protocol2.ec_key_bits": count("protocol2.ec_key_bits", "bit/pass"),
        "protocol2.ec_leak_bits": count("protocol2.ec_leak_bits", "bit/pass"),
        "protocol2.ec_leak_per_key_bit": (
            tr.counts["protocol2.ec_leak_bits"] / ec_base if ec_base else 0.0, "bit/bit"),
        "protocol2.wire.self_s": self_s("protocol2.wire"),
        "protocol2.run_protocol2.self_s": self_s("protocol2.run_protocol2"),
        "budget.distilled_len.calls": calls("budget.distilled_len"),
        "budget.optimize_intensity.self_s": self_s("budget.optimize_intensity"),
        "budget.break_even_pulses.self_s": self_s("budget.break_even_pulses"),
        "protocol1.run_protocol1.calls": calls("protocol1.run_protocol1"),
        "protocol1.run_trials.self_s": self_s("protocol1.run_trials"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.untraced_s": (untraced_s / n_passes, "s/pass"),
        "trace.traced_s": (traced_s / n_passes, "s/pass"),
        "trace.overhead_s": ((traced_s - untraced_s) / n_passes, "s/pass"),
        "trace.overhead_share": (traced_s / untraced_s - 1.0, "ratio"),
    }


def mode_record(ctx) -> dict:
    digests = {"cli_csv": {}, "sessions": {}}
    for name, args in CLI_RUNS:
        (row,) = run_pass([cli_unit(ctx, name, args)])
        digests["cli_csv"][name] = row.digest
    for name, unit in canary_units(ctx, full=True):
        (row,) = run_pass([unit])
        digests["sessions"][name] = row.digest
    return digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("measure", "setup", "trace", "record"),
                    default="measure")
    ap.add_argument("--workload", choices=WORKLOADS, default="desk-mix")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: 3e6-pulse full sessions, 1,000 protocol1 "
                         "trials, one pass")
    args = ap.parse_args(argv)
    ctx, setup_s, violations = setup(args.workload, args.seed, args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        if args.mode == "setup":
            out = {"setup_s": setup_s}
        elif args.mode == "measure":
            out = mode_measure(ctx, setup_s, violations, seconds)
        elif args.mode == "trace":
            out = mode_trace(ctx, violations, seconds)
        else:
            out = mode_record(ctx)
    finally:
        ctx.close()
    if args.mode in ("measure", "trace"):
        out["behaviour_changes"] = sorted(ctx.changes)
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": ctx.lib.numpy.__version__,
                           "scipy": ctx.lib.scipy.__version__}
    print(json.dumps(out, sort_keys=True, indent=2 if args.mode == "record" else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
