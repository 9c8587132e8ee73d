"""The qident benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads, metrics and the reasons for them are in perfbench/README.md
and BENCHMARK.json.  Each run starts worker.py in a fresh child process
(one per workload run, for peak_rss_mb and isolation) with every
numeric-library thread pool limited to one thread; nothing runs in
parallel.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run.  The last line of standard
output is the result object; the lines before it name every metric with
its unit and sample count, the machine, the seeds, the failures and any
behaviour change (an output digest that differs from digests.json).

Exit status is 0 when a result was printed, otherwise nonzero (for
instance when the checkout has no src/qident to benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("full-session", "desk-mix", "analysis-cli")
# Extra fresh processes that only set up, so setup_s is a median.  With the
# timeouts below a run ends within 165 s, inside the 180 s a run may take.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 120
TRACE_TIMEOUT_S = 165
PROBE_TIMEOUT_S = 10


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model or platform.processor(), "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qident benchmark, one workload run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one pass, for the benchmark's own test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qident" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {ROOT / 'src' / 'qident'}", file=sys.stderr)
        return 2

    if args.trace:
        out = run_worker(args, "trace", TRACE_TIMEOUT_S)
        samples = [f"per pass of {out['samples']['passes']} passes"]
    else:
        out = run_worker(args, "measure", WORKER_TIMEOUT_S)
        setups = [out["setup_s"]]
        for _ in range(1 if args.smoke else SETUP_PROBES):
            setups.append(run_worker(args, "setup", PROBE_TIMEOUT_S)["setup_s"])
        out["metrics"]["setup_s"] = (statistics.median(setups), "s")
        s = out["samples"]
        samples = [f"median of {len(setups)} set-ups in fresh processes",
                   f"{s['sessions']} sessions ({s['beyond_p95']} beyond p95)",
                   f"{s['clean_passes']} of {s['passes']} passes fully correct"]

    correct = out["violations"] == 0 and out["canary_violations"] == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "versions": out["versions"], "samples": out["samples"],
        "fail_rate": out["failed"] / out["attempted"], "failures": out["failures"],
        "units": out["units"], "unit_ms_p50": out["unit_ms_p50"],
        "stream_sha256": out["stream_sha256"],
        "behaviour_changes": out["behaviour_changes"],
    }
    for key in ("spans_file", "spans_kept", "spans_dropped"):
        if key in out:
            report[key] = out[key]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          + "; ".join(samples))
    for name, (value, unit) in out["metrics"].items():
        print(f"{name:38s} {value:16.6f} {unit}")
    print(f"{'fail_rate':38s} {report['fail_rate']:16.6f} ratio "
          f"({out['failed']} of {out['attempted']}: {out['failures'] or 'none'})")
    print("behaviour changes (digests differ from perfbench/digests.json): "
          + (", ".join(out["behaviour_changes"]) or "none"))
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
