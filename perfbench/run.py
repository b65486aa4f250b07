"""Benchmark of the idcalc kernel.

    python3 perfbench/run.py --workload <catalogue|words|germs|sphere>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ./src.

A run builds a fixed list of operations from the seed (whole rounds of
the workload; the count follows from --seconds, with at least MIN_OPS
distinct operations) and runs it in WORKERS fresh single-threaded
processes, one after another, each a closed loop doing one operation at
a time.  The host's CPU speed swings by up to 1.7x for seconds or
minutes at a time, so every timing is bracketed by two runs of a fixed
exact-arithmetic probe and scaled to a machine on which the probe takes
REF_PROBE_S; an operation's latency is the least of its scaled timings.
Separate processes keep any in-process cache from carrying over between
the timings.  The first worker checks every answer; the others must
return identical answers.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (one traced pass over the
list in this process, unscaled).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
MIN_OPS = 100      # the fewest distinct operations that give a 90th percentile
SETUP_REPS = 3     # set-ups per run; setup_s is their median
WORKERS = 2        # timed passes over the operation list, one process each
REF_PROBE_S = 1e-3  # times are scaled to a machine on which probe_s() is 1 ms
IMPORT = "import idcalc, idcalc.cli, idcalc.sphere"
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); t = time.perf_counter(); "
            f"{IMPORT}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout)


def timed(op):
    t0 = time.perf_counter()
    try:
        answer = op.call()
    except Exception as exc:  # an operation that raises gives a wrong answer
        answer = exc
    return answer, time.perf_counter() - t0


def probe_s() -> float:
    """Median time of three runs of a fixed exact-arithmetic loop: the
    machine's current speed for work like the kernel's."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(work) -> tuple:
    """Run work(), which returns (result, seconds), between two probes;
    the seconds come back scaled to a machine on which the probe takes
    REF_PROBE_S."""
    before = probe_s()
    result, dt = work()
    return result, dt * REF_PROBE_S / ((before + probe_s()) / 2)


def verdict(op, answer):
    """None, ["failed", kind] or ["wrong", message]."""
    import workloads
    v = f"raised {answer!r}" if isinstance(answer, Exception) else op.check(answer)
    if isinstance(v, workloads.Failed):
        return ["failed", v.kind]
    return None if v is None else ["wrong", f"{op.cls}: {v}"]


def worker(wl, rounds: int, index: int) -> dict:
    """One timed pass; the first worker also checks each answer."""
    for op in wl.warmup_ops():
        timed(op)
    ops = [op for r in range(rounds) for op in wl.round_ops(r)]
    lat, digests, verdicts = [], [], []
    for op in ops:
        answer, dt = scaled(lambda: timed(op))
        lat.append(dt)
        digests.append(repr(answer) if isinstance(answer, Exception) else op.digest(answer))
        if index == 0:
            verdicts.append(verdict(op, answer))
    return {"lat": lat, "digests": digests, "verdicts": verdicts,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def setup(cls, seed: int) -> tuple:
    """Set up SETUP_REPS times: import in a fresh interpreter, build the
    inputs, run one warm-up per operation class.  Returns the median
    set-up time, the median import time, the workload and its first
    round."""
    def once():
        imp = child_import_s()
        t0 = time.perf_counter()
        wl = cls(seed)
        for op in wl.warmup_ops():
            timed(op)
        return (imp, wl, wl.round_ops(0)), imp + time.perf_counter() - t0

    setups, imports = [], []
    for _ in range(SETUP_REPS):
        (imp, wl, first), seconds = scaled(once)
        setups.append(seconds)
        imports.append(imp)
    return statistics.median(setups), statistics.median(imports), wl, first


def traced_run(wl, first: list, rounds: int, import_s: float) -> tuple[dict, int, list]:
    import spans
    import workloads
    tracer = spans.Tracer()
    tracer.install()
    busy, verdicts = 0.0, []
    for r in range(rounds):
        spent = 0.0
        for op in (first if r == 0 else wl.round_ops(r)):
            tracer.active = True
            sid = tracer.open(spans.OP)
            answer, dt = timed(op)
            tracer.close(sid)
            tracer.active = False
            spent += dt
            verdicts.append(verdict(op, answer))
        if r == 0:
            traced_first = spent
        busy += spent
    tracer.uninstall()
    untraced = sum(timed(op)[1] for op in first)  # after, so tracing sees no repeat
    metrics = tracer.metrics(1000 * import_s, len(verdicts) / busy, traced_first / untraced)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(workloads.OUT_DIR, f"trace-{wl.name}-{wl.seed}.npz"))
    units = dict(spans.PER_LAYER)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, len(verdicts), verdicts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "idcalc", "__init__.py")):
        fail(f"no idcalc package under {SRC}; run from the root of a checkout")
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    cls = workloads.WORKLOADS[args.workload]

    if args.worker is not None:
        print(json.dumps(worker(cls(args.seed), args.rounds, args.worker)))
        return 0

    setup_s, import_s, wl, first = setup(cls, args.seed)
    per_round = len(first)
    # the traced pass runs the same list as each timed worker
    rounds = max(math.ceil(MIN_OPS / per_round), round(args.seconds / (WORKERS * wl.round_s)))

    if args.trace:
        metrics, n_ops, verdicts = traced_run(wl, first, rounds, import_s)
        attempted = n_ops
        errors = [v[1] for v in verdicts if v and v[0] == "wrong"]
        kinds = [v[1] for v in verdicts if v and v[0] == "failed"]
    else:
        runs = []
        for k in range(WORKERS):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--worker", str(k),
                   "--rounds", str(rounds)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            if out.returncode != 0:
                fail(f"worker {k} failed:\n{out.stderr[-3000:]}")
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        lat = [min(ts) for ts in zip(*(r["lat"] for r in runs))]
        n = len(lat)
        errors = [v[1] for v in runs[0]["verdicts"] if v and v[0] == "wrong"]
        errors += [f"operation {i} answered differently in worker {k}"
                   for k, r in enumerate(runs[1:], start=1)
                   for i, (a, b) in enumerate(zip(runs[0]["digests"], r["digests"])) if a != b]
        kinds = [v[1] for v in runs[0]["verdicts"] if v and v[0] == "failed"] * WORKERS
        attempted = n * WORKERS
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": n / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            # the checking worker also holds the reference's memory
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs[1:]),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        n_ops = n

    for e in errors[:20]:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)
    by_kind = {k: kinds.count(k) for k in sorted(set(kinds))}
    result = {"correct": not errors, "attempted": attempted, "failed": len(kinds),
              "metrics": metrics}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(workloads.OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "distinct_ops": n_ops, "failed_by_kind": by_kind, **result}, fh, indent=1)
    print(json.dumps({"rounds": rounds, "distinct_ops": n_ops, "failed_by_kind": by_kind}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
