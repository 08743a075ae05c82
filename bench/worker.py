"""One workload process of the twotower benchmark.

Runs one seeded workload as a closed loop with a single caller in a fresh
interpreter, so the package's caches start empty as they do for a user's
command.  The first ops are the workload's golden prefix: their outputs
are hashed for the byte-identity digest, and peak RSS is read when they
end.  Every output is checked after the loop.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import kernel, scale  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, op_stream  # noqa: E402

CALIB_SHARE = 0.04  # seconds of calibration owed per second of op time
CALIB_WINDOW_S = 0.5  # kernel samples this close to an op scale its time


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def scaled_latencies(starts, latencies, calib_t, calib_k) -> list[float]:
    """Each op's latency at reference-host speed, from the mean of the kernel
    samples taken within CALIB_WINDOW_S of it; the host's speed changes
    within seconds, so one factor per run leaves bursts in the quantiles."""
    prefix = [0.0]
    for k in calib_k:
        prefix.append(prefix[-1] + k)
    out = []
    for t0, dt in zip(starts, latencies):
        lo = bisect.bisect_left(calib_t, t0 - CALIB_WINDOW_S)
        hi = bisect.bisect_right(calib_t, t0 + dt + CALIB_WINDOW_S)
        if hi == lo:  # no sample that close: take the nearest one
            lo = min(lo, len(calib_t) - 1)
            hi = lo + 1
        out.append(dt * scale((prefix[hi] - prefix[lo]) / (hi - lo)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory that holds the twotower package")
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float, help="run ops until they have taken this long")
    limit.add_argument("--ops", type=int, help="run exactly this many ops")
    ap.add_argument("--spans", help="trace the ops and write their spans to this file")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import twotower as tt

    if not os.path.abspath(tt.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"worker: twotower imported from {tt.__file__}, not {args.src}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    stream = op_stream(w, args.seed)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    def more() -> bool:
        if args.ops is not None:
            return len(inputs) < args.ops
        n = len(inputs)
        if n < w.latency_ops or n % w.block:
            return True
        # Whole blocks only, so every run has the same mix of ops; stop at
        # the block boundary nearest to the time limit.
        return busy + busy / n * w.block / 2 < args.seconds

    inputs, outputs, latencies, starts = [], [], [], []
    busy, peak_rss_mib = 0.0, None
    calib_t, calib_k, owed = [], [], 0.0

    def calibrate():
        calib_k.append(kernel())
        calib_t.append(time.perf_counter() - calib_k[-1] / 2)

    calibrate()
    digest = hashlib.sha256()
    while more():
        x = next(stream)  # input generation stays outside the timed span
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(w.run, tt, x) if tracer else w.run(tt, x)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        dt = time.perf_counter() - t0
        busy += dt
        inputs.append(x)
        outputs.append(out)
        latencies.append(dt)
        starts.append(t0)
        owed += CALIB_SHARE * dt
        while owed > 0:
            calibrate()
            owed -= calib_k[-1]
        if len(inputs) <= w.golden_ops:
            digest.update(repr(out).encode() if isinstance(out, Exception) else w.canon(x, out).encode())
            digest.update(b"\n")
            if len(inputs) == w.golden_ops:
                peak_rss_mib = max_rss_mib()

    layers, spans = None, 0
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        spans = tracer.write(args.spans)

    failed, problems = 0, []
    for x, out in zip(inputs, outputs):
        bad = [f"raised {out!r}"] if isinstance(out, Exception) else w.check(tt, x, out)
        if bad:
            failed += 1
            if len(problems) < 10:
                problems.append(f"{x!r}: {'; '.join(bad)}")

    with open(os.path.join(HERE, "digests.json")) as fh:
        pinned = json.load(fh)["sha256"].get(w.name)
    print(
        json.dumps(
            {
                "ops": len(inputs),
                "busy_s": busy,
                "latencies_s": latencies,
                "scaled_latencies_s": scaled_latencies(starts, latencies, calib_t, calib_k),
                "peak_rss_mib": peak_rss_mib if peak_rss_mib is not None else max_rss_mib(),
                "calib_s": sum(calib_k) / len(calib_k),
                "calib_n": len(calib_k),
                "failed": failed,
                "problems": problems,
                "digest": digest.hexdigest() if len(inputs) >= w.golden_ops else None,
                "digest_pinned": pinned,
                "inputs": w.props(inputs),
                "layers": layers,
                "spans": spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
