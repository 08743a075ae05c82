"""twotower benchmark: one seeded workload per call.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

With --trace 0 it measures set-up time, then runs the workload for
--seconds of op time in a fresh worker process and prints the end-to-end
metrics.  With --trace 1 it runs the workload's fixed trace-size op list
twice in fresh workers, plain and traced, and prints per-layer metrics,
the CLI wall times and the tracing overhead.  Every output is checked;
the last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from calibration import kernel, scale  # noqa: E402
from workloads import WORKLOADS, golden_stream  # noqa: E402

SETUP_SAMPLES = 9
CLI_SAMPLES = 3
DEADLINE_S = 170.0

# Kernel samples bracket the timed import so they see the same host speed.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from calibration import kernel\n"
    "k = [kernel() for _ in range(3)]\n"
    "t0 = time.perf_counter()\n"
    "import twotower\n"
    "twotower.redei.catalog_cases()\n"
    "dt = time.perf_counter() - t0\n"
    "k += [kernel() for _ in range(3)]\n"
    "print(dt, sum(k) / len(k))\n"
)


class BenchError(Exception):
    pass


def _child(cmd, deadline: float, **kw) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left, **kw)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {cmd[:4]}") from exc


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median time for a fresh interpreter to import twotower and parse the
    catalog, raw and scaled to the reference host."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = _child([sys.executable, "-c", SETUP_CODE, HERE, SRC], deadline)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()}")
        if i:  # the first sample also compiles bytecode
            dt, k = map(float, proc.stdout.split())
            raw.append(dt)
            scaled.append(dt * scale(k))
    return statistics.median(raw), statistics.median(scaled)


def worker(workload: str, seed: int, deadline: float, seconds=None, ops=None, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--src", SRC]
    cmd += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    if spans:
        cmd += ["--spans", spans]
    proc = _child(cmd, deadline)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_commands() -> dict[str, list[str]]:
    """One CLI call per command on the first golden input of its workload."""

    def first(name):
        return next(golden_stream(WORKLOADS[name]))

    def discs(values):
        return "--discs=" + ",".join(f"{v:+d}" for v in values)

    tag, partial, bound = first("complete")
    return {
        "analyze": ["analyze", discs(first("census"))],
        "classgroup": ["classgroup", str(first("classgroup"))],
        "search_complete": [
            "search",
            "complete",
            "--case",
            tag,
            "--partial=" + ",".join("_" if v is None else str(v) for v in partial),
            "--bound",
            str(bound),
        ],
        "explore": ["explore", discs(first("sweep")[1]), "--bound", str(WORKLOADS["sweep"].prime_bound)],
    }


def cli_wall_seconds(deadline: float) -> dict[str, float]:
    """Median wall time per CLI command, scaled by kernel samples taken
    right before and after each call."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = {}
    for name, argv in cli_commands().items():
        ok_codes = (0, 10) if name == "analyze" else (0,)  # analyze exits 10 on Open
        samples = []
        for _ in range(CLI_SAMPLES):
            k = [kernel() for _ in range(3)]
            t0 = time.perf_counter()
            proc = _child([sys.executable, "-m", "twotower.cli", *argv], deadline, env=env)
            dt = time.perf_counter() - t0
            k += [kernel() for _ in range(3)]
            if proc.returncode not in ok_codes:
                raise BenchError(f"cli {name} exited {proc.returncode}: {proc.stderr.strip()}")
            samples.append(dt * scale(sum(k) / len(k)))
        out[name] = statistics.median(samples)
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def check_worker(res: dict) -> list[str]:
    out = list(res["problems"])
    if res["digest_pinned"] is not None and res["digest"] != res["digest_pinned"]:
        out.append(f"golden digest {res['digest']} != pinned {res['digest_pinned']}")
    return out


def timed_run(args, deadline: float):
    setup_raw, setup = setup_seconds(deadline)
    res = worker(args.workload, args.seed, deadline, seconds=args.seconds)
    k = WORKLOADS[args.workload].latency_ops
    scaled, lat = res["scaled_latencies_s"], res["latencies_s"]
    tail_s, tail_pct, beyond = tail(scaled[:k])
    raw = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat[:k]),
        "op_tail_ms": 1000 * tail(lat[:k])[0],
        "setup_s": setup_raw,
    }
    metrics = {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (1000 * statistics.median(scaled[:k]), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        "setup_s": (setup, "s"),
    }
    print(f"# {res['ops']} ops in {res['busy_s']:.3f} s of op time")
    print(f"# host: kernel {1000 * res['calib_s']:.4f} ms on average over {res['calib_n']} samples")
    print(f"# unscaled: {json.dumps(raw)}")
    print(f"# op_p50_ms and op_tail_ms (p{tail_pct:.2f}, {beyond} beyond it) are over the first {k} ops")
    return res, metrics


def trace_run(args, deadline: float):
    w = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{w.name}.tsv.gz")
    plain = worker(w.name, args.seed, deadline, ops=w.trace_ops)
    res = worker(w.name, args.seed, deadline, ops=w.trace_ops, spans=spans_path)
    f = scale(res["calib_s"])
    metrics = {}
    for name, (value, unit) in res["layers"].items():
        metrics[name] = (value * f if unit == "s" else value, unit)
    for name, wall in cli_wall_seconds(deadline).items():
        metrics[f"cli.{name}.wall_s"] = (wall, "s")
    overhead = res["busy_s"] * f / (plain["busy_s"] * scale(plain["calib_s"]))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"# {res['ops']} ops traced; {res['spans']} spans written to {os.path.relpath(spans_path, ROOT)}")
    res["problems"] = plain["problems"] + res["problems"]
    res["failed"] = max(plain["failed"], res["failed"])
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "twotower", "__init__.py")):
        print(f"bench: no twotower package under {SRC}", file=sys.stderr)
        return 2
    try:
        res, metrics = (trace_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    problems = check_worker(res)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}; op = {WORKLOADS[args.workload].op}")
    print(f"# inputs {json.dumps(res['inputs'])}")
    print(f"# golden sha256 {res['digest']} (pinned {res['digest_pinned']})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(f"{'failed_ratio':40s} {res['failed'] / res['ops']:>16.6f} ratio")
    for p in problems:
        print(f"# FAILED CHECK {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": res["ops"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
