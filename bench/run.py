"""talex benchmark: one seeded workload, single-threaded, in one process.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics (tracing
off); with ``--trace 1`` it prints the per-layer metrics of a traced run
and writes the spans to ``.bench_out/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
LIMITS = (
    "wall time (time.perf_counter) and peak RSS (ru_maxrss) only; no CPU "
    "counters or system-wide tracing; one process, one thread"
)


def _require_source():
    if not (ROOT / "src" / "talex" / "__init__.py").is_file():
        sys.exit(f"bench: no talex source tree at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def environment(seed, workload):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "limits": LIMITS,
    }


def prepare(workload_name, seed):
    """Build the inputs and run the untimed warm-up items, which fill the
    representation caches."""
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    for item in workload.warmup:
        item.run()
    return workload


def measure_setup(workload_name, seed):
    """Median over fresh processes of the time from process start until
    the first timed item is ready: interpreter start, ``import talex``,
    input generation and the warm-up items."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
        samples.append(ready - start)
    return statistics.median(samples)


class Outcome:
    """What timed passes produced: per-pass wall times, per-item times,
    first-pass outputs, and failures classified by exception type."""

    def __init__(self, items):
        self.walls = []
        self.times = {item.key: [] for item in items}
        self.raw = {}  # key -> first-pass output
        self.texts = {}  # key -> its canonical text
        self.returned = {}  # key -> calls that returned an output
        self.attempted = 0
        self.failures = {}  # reason -> count

    def fail(self, reason, count=1):
        self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def failed(self):
        return sum(self.failures.values())


def run_passes(items, seconds, min_passes, tracer=None):
    """Timed passes over the items until ``seconds`` have elapsed (at
    least ``min_passes``).  Only the calls into talex are timed; an
    exception fails the item and is recorded by type, never taken for a
    finding."""
    outcome = Outcome(items)
    clock = time.perf_counter
    begin = clock()
    while len(outcome.walls) < min_passes or clock() - begin < seconds:
        results = []
        pass_start = clock()
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = index
            t0 = clock()
            try:
                out = item.run()
            except Exception as e:
                out = e
            results.append((item, out, clock() - t0))
        outcome.walls.append(clock() - pass_start)
        for item, out, dt in results:
            outcome.attempted += 1
            outcome.times[item.key].append(dt)
            if isinstance(out, Exception):
                outcome.fail(f"{type(out).__name__} in {item.key}")
                continue
            outcome.returned[item.key] = outcome.returned.get(item.key, 0) + 1
            text = item.canon(out)
            if item.key not in outcome.texts:
                outcome.raw[item.key] = out
                outcome.texts[item.key] = text
            elif outcome.texts[item.key] != text:
                outcome.fail(f"output of {item.key} changed between passes")
    return outcome


def check_outputs(items, outcome):
    """Run each item's output check once, outside the timed region; a
    check that does not hold fails every call of that item that returned."""
    for item in items:
        if item.key in outcome.raw:
            reason = item.check(outcome.raw[item.key])
            if reason:
                outcome.fail(f"{item.key}: {reason}", outcome.returned[item.key])


def run_goldens(goldens, outcome):
    for item in goldens:
        outcome.attempted += 1
        try:
            reason = item.check(item.run())
        except Exception as e:
            reason = type(e).__name__
        if reason:
            outcome.fail(f"golden {item.key}: {reason}")


def tail_index(n):
    """Index into n sorted values of the highest percentile with at least
    ten values beyond it (the maximum when n < 11), and that percentile."""
    if n < 11:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def item_latencies(outcome):
    """Per item, the median of its timed calls in milliseconds, sorted."""
    return sorted(1000 * statistics.median(ts) for ts in outcome.times.values() if ts)


def end_to_end(workload_name, seed, seconds):
    setup_s = measure_setup(workload_name, seed)
    workload = prepare(workload_name, seed)
    outcome = run_passes(workload.items, seconds, min_passes=3)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_outputs(workload.items, outcome)
    run_goldens(workload.goldens, outcome)
    lat = item_latencies(outcome)
    idx, pct = tail_index(len(lat))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(outcome.walls), "s"),
        "item_ms_p50": (statistics.median(lat), "ms"),
        "item_ms_tail": (lat[idx], "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    notes = {
        "pass_walls_s": [round(w, 4) for w in outcome.walls],
        "items_per_pass": len(lat),
        "item_ms_tail_percentile": round(pct, 1),
        "digest": workloads_digest(outcome),
    }
    return outcome, metrics, notes


def workloads_digest(outcome):
    import workloads

    return workloads.digest(outcome.texts.items())


def traced(workload_name, seed, seconds):
    """Half the time untraced, then half traced, on the same inputs; the
    difference of the median pass walls is the tracing overhead."""
    from tracer import Tracer

    workload = prepare(workload_name, seed)
    plain = run_passes(workload.items, seconds / 2, min_passes=2)
    with Tracer() as tr:
        under = run_passes(workload.items, seconds / 2, min_passes=2, tracer=tr)
    for outcome in (plain, under):
        check_outputs(workload.items, outcome)
    for reason, n in under.failures.items():
        plain.fail(f"traced: {reason}", n)
    plain.attempted += under.attempted
    d_plain, d_traced = workloads_digest(plain), workloads_digest(under)
    if d_plain != d_traced:
        plain.fail("traced and untraced outputs differ")
    metrics = tr.metrics(len(under.walls), len(workload.items))
    t_wall, u_wall = statistics.median(under.walls), statistics.median(plain.walls)
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["trace.untraced_wall_s"] = (u_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s")
    notes = {
        "digest": d_plain,
        "traced_digest": d_traced,
        "absent": tr.absent,
        "layer_self_share": layer_shares(tr, sum(under.walls)),
        "spans_file": write_spans(tr, workload_name, seed),
    }
    return plain, metrics, notes


def layer_shares(tr, wall):
    """Self time per talex module as a share of the traced wall time."""
    shares = {}
    for name, stat in tr.stats.items():
        module = name.partition(".")[0]
        shares[module] = shares.get(module, 0.0) + stat.self_time / wall
    return {k: round(v, 4) for k, v in shares.items()}


def write_spans(tr, workload_name, seed):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(tr.span_records(), fh, separators=(",", ":"))
    return str(path.relative_to(ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_source()
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    env = environment(args.seed, args.workload)
    if args.trace:
        outcome, metrics, notes = traced(args.workload, args.seed, args.seconds)
    else:
        outcome, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
    notes["fail_ratio"] = outcome.failed / outcome.attempted
    notes["failures"] = outcome.failures
    print("env " + json.dumps(env))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


WORKLOAD_NAMES = ("alpha_sweep", "nqp_det", "census")

if __name__ == "__main__":
    sys.exit(main())
