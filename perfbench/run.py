"""symfa benchmark: closed-loop timing of the public API, layer by layer.

    python3 perfbench/run.py --workload interval-minimize --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The benchmark imports symfa from
./src (never an installed copy) and launches the CLI as `python -m symfa`
with PYTHONPATH pointing at the same tree.  Load is closed-loop: one
process, one thread, one call or one CLI child at a time.

--trace 0 makes a fixed number of sweeps over all rounds of ops (one per
10 s of --seconds), each after a fresh set-up (setup_s is the median),
times every call, and reports the end-to-end metrics; an untimed pass under
tracemalloc gives peak_heap_mb.  --trace 1 runs round 0
alternately untraced and traced and reports the per-layer metrics.  Both check every output against symfa.oracle, print one line per
metric and per mismatch, write the full record (tail percentiles, sample
counts, host-speed probe, run metadata) to perfbench/out/, and print one
JSON object as the last line.  See perfbench/README.md for the metrics.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("interval-minimize", "prop-decide")
# A run makes one sweep over all rounds per SWEEP_SECONDS of --seconds, so
# every op gets the same number of calls whatever the host's speed.  A CLI
# child costs ~0.1 s of interpreter start-up, so CLI ops run only in every
# CLI_EVERY-th sweep.
SWEEP_SECONDS = 10.0
CLI_EVERY = 2
# peak_heap_mb averages the decisions and constructions of the first
# HEAP_ROUNDS rounds; with round 0 alone it moved 0.21 between seeds
HEAP_ROUNDS = 3
TAIL_RUNGS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_LOOPS = 200_000

END_TO_END = {
    "setup_s": "s",
    "decide_ms_p50": "ms",
    "decide_ms_tail": "ms",
    "decisions_per_s": "1/s",
    "construct_ms_p50": "ms",
    "construct_ms_tail": "ms",
    "member_us_per_letter": "us",
    "io_mb_per_s": "MB/s",
    "cli_ms_p50": "ms",
    "cli_ms_tail": "ms",
    "out_edges": "count",
    "peak_heap_mb": "MB",
}

# per-layer metric -> traced function whose self time it reports
SELF_TIMES = {
    "algebra.sat_ms": "algebra.sat",
    "algebra.evaluate_ms": "algebra.evaluate",
    "intervals.to_dnf_ms": "intervals.to_dnf",
    "propositional.prop_sat_ms": "propositional.prop_sat",
    "propositional.mask_of_ms": "propositional.mask_of",
    "propositional.disjoint_monomials_ms": "propositional.disjoint_monomials",
    "sfa.is_deterministic_ms": "sfa.is_deterministic",
    "sfa.is_complete_ms": "sfa.is_complete",
    "sfa.membership_ms": "sfa.membership",
    "transforms.complete_ms": "transforms.complete",
    "transforms.to_feasible_ms": "transforms.to_feasible",
    "transforms.canonical_minimal_neat_ms": "transforms.canonical_minimal_neat",
    "operations.minimize_ms": "operations.minimize",
    "operations.determinize_ms": "operations.determinize",
    "operations.product_ms": "operations.product",
    "operations.complement_ms": "operations.complement",
    "operations.is_empty_ms": "operations.is_empty",
    "serialize.parse_ms": "serialize.parse_sfa",
    "serialize.emit_ms": "serialize.emit_sfa",
    "dot.export_dot_ms": "dot.export_dot",
}
PER_LAYER_UNITS = {
    "algebra.sat_calls": "count",
    "algebra.conj_built": "count",
    "algebra.disj_built": "count",
    "algebra.sat_hit_frac": "fraction",
    **{name: "ms" for name in SELF_TIMES},
    "operations.determinize_states": "count",
    "operations.product_states": "count",
    "cli.inner_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def probe_ms():
    """Fixed pure-Python loop: a reading of host speed, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def bench_modules():
    return {
        name: module
        for name, module in sys.modules.items()
        if name in ("gen", "workloads", "symfa") or name.startswith("symfa.")
    }


def load_rounds(workload, seed, workdir):
    """One full set-up: fresh imports, input generation, oracle answers."""
    for name in bench_modules():
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    rounds = importlib.import_module("workloads").setup(workload, seed, workdir)
    return time.perf_counter() - t0, rounds


class Tally:
    """Samples, work and failures of the ops run so far."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.seconds = defaultdict(list)
        self.by_label = defaultdict(list)
        self.work = Counter()
        self.counts = Counter()
        self.edges = {}
        self.cli_inner_ms = []
        self.cli_overhead_ms = []

    def fail(self, op, err):
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {self.workload} {op.label} input_seed={op.input_seed}: {err}", flush=True)

    def record(self, op, t):
        """Every successful call is one sample of its family."""
        if t.err is not None:
            self.fail(op, t.err)
            return
        self.attempted += 1
        self.seconds[op.family].append(t.seconds)
        self.by_label[op.label].append(t.seconds)
        self.work[op.family] += op.work
        self.counts.update(t.counts)
        if t.edges is not None:
            self.edges.setdefault(op.key, t.edges)
        if t.inner_ms is not None:
            self.cli_inner_ms.append(t.inner_ms)
            self.cli_overhead_ms.append(t.seconds * 1000.0 - t.inner_ms)


@dataclass
class Try:
    """One checked call; the output itself is dropped once it is checked."""

    seconds: float
    err: str | None
    counts: dict
    edges: int | None = None  # transitions of a construction output
    inner_ms: float | None = None  # the CLI report's own time


def run_pass(ops, tracer=None):
    """Closed loop over the ops, one call at a time."""
    new_counters = sys.modules["symfa"].OpCounters
    out = []
    for op in ops:
        counters = new_counters()
        if tracer is not None:
            tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            result, err = op.call(counters), None
        except Exception as e:  # a crash is a failed op, not a failed run
            result, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if err is None:
            try:
                err = op.check(result)
            except Exception as e:
                err = f"check raised {type(e).__name__}: {e}"
        t = Try(dt, err, counters.as_dict())
        if err is None and op.key is not None:
            t.edges = len(result.transitions)
        if err is None and op.family == "cli":
            t.inner_ms = float(result.report["ms"])
        out.append(t)
    return out


def in_process_seconds(ops, tries):
    return sum(t.seconds for op, t in zip(ops, tries) if op.family != "cli")


def tail(xs):
    """Highest rung with at least ten samples beyond it: (percentile, value)."""
    xs = sorted(xs)
    n = len(xs)
    for p in TAIL_RUNGS:
        if n * (100.0 - p) / 100.0 >= 10:
            if p == 50.0:
                return p, statistics.median(xs)
            rank = max(1, -(-p * n // 100))  # nearest rank, ceil(p/100 * n)
            return p, xs[int(rank) - 1]
    return None, xs[-1]


def ratio(num, den):
    """num / den, or 0 when a family has no successful samples (the run then
    reports correct: false)."""
    return num / den if den else 0.0


def end_to_end(tally, setup_times):
    m = {"setup_s": statistics.median(setup_times)}
    info = {}
    for family, stem in (("decide", "decide_ms"), ("construct", "construct_ms"), ("cli", "cli_ms")):
        xs = tally.seconds[family] or [0.0]
        p, v = tail(xs)
        m[f"{stem}_p50"] = statistics.median(xs) * 1000.0
        m[f"{stem}_tail"] = v * 1000.0
        info[f"{stem}_tail"] = {"percentile": p, "samples": len(tally.seconds[family])}
    m["decisions_per_s"] = ratio(len(tally.seconds["decide"]), sum(tally.seconds["decide"]))
    m["member_us_per_letter"] = ratio(sum(tally.seconds["member"]), tally.work["member"]) * 1e6
    info["member_us_per_letter"] = {"letters": tally.work["member"]}
    m["io_mb_per_s"] = ratio(tally.work["io"], sum(tally.seconds["io"])) / 1e6
    info["io_mb_per_s"] = {"bytes": tally.work["io"]}
    m["out_edges"] = sum(tally.edges.values())
    info["out_edges"] = {"outputs": len(tally.edges)}
    return m, info


def heap_peaks(ops, tally):
    """Peak heap growth of each decision and construction during one call, in
    MB, from an untimed pass under tracemalloc (started after set-up, so the
    inputs do not count)."""
    new_counters = sys.modules["symfa"].OpCounters
    peaks = []
    tracemalloc.start()
    try:
        for op in ops:
            if op.family not in ("decide", "construct"):
                continue
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                result = op.call(new_counters())
            except Exception as e:
                tally.fail(op, f"{type(e).__name__}: {e}")
                continue
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            del result
    finally:
        tracemalloc.stop()
    return peaks


def measure(args, workdir):
    sweeps = max(1, round(args.seconds / SWEEP_SECONDS))
    tally = Tally(args.workload)
    setup_times, probes = [], []
    start = time.perf_counter()
    for sweep in range(sweeps):
        # one set-up before every sweep, so that set-ups sample the host over
        # the whole run as the ops do; the ops of the first one are timed
        dt, fresh = load_rounds(args.workload, args.seed, workdir)
        setup_times.append(dt)
        if sweep == 0:
            rounds, modules = fresh, bench_modules()
            gc.collect()
            gc.freeze()  # keep the inputs and the harness out of the collector's scans
        else:
            # symfa resolves some names through sys.modules at call time, so
            # the timed ops need the modules they were built with
            sys.modules.update(modules)
        del fresh
        for ops in rounds:
            if sweep % CLI_EVERY:
                ops = [op for op in ops if op.family != "cli"]
            probes.append(probe_ms())
            for op, t in zip(ops, run_pass(ops)):
                tally.record(op, t)
    wall = time.perf_counter() - start
    metrics, info = end_to_end(tally, setup_times)
    peaks = [mb for ops in rounds[:HEAP_ROUNDS] for mb in heap_peaks(ops, tally)]
    metrics["peak_heap_mb"] = statistics.mean(peaks) if peaks else 0.0
    info.update(
        peak_heap_mb={"ops": len(peaks), "max": max(peaks, default=0.0)},
        sweeps=sweeps,
        measured_s=wall,
        setup_runs_s=setup_times,
        op_ms_p50={k: statistics.median(v) * 1000.0 for k, v in sorted(tally.by_label.items())},
    )
    return tally, metrics, info, probes, None


def measure_traced(args, workdir):
    _, rounds = load_rounds(args.workload, args.seed, workdir)
    import tracer as tracing

    gc.collect()
    gc.freeze()
    tracer = tracing.Tracer()
    ops = rounds[0]
    tally = Tally(args.workload)
    probes, overheads, reps = [], [], []
    counts = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probes.append(probe_ms())
        plain_tries = run_pass(ops)
        tracer.reset()
        tracer.install(sys.modules["workloads"])
        try:
            traced_tries = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        plain, traced = Counter(), Counter()
        for op, p, t in zip(ops, plain_tries, traced_tries):
            tally.record(op, p)
            tally.record(op, t)
            plain.update(p.counts)
            traced.update(t.counts)
        if counts is None:
            counts = plain
        if traced != plain:
            tally.attempted += 1
            tally.failed += 1
            print(f"FAIL {args.workload}: traced counts {dict(traced)} != {dict(plain)}")
        overheads.append(
            ratio(in_process_seconds(ops, traced_tries), in_process_seconds(ops, plain_tries)) - 1.0
        )
        calls = tracer.calls["algebra.sat"]
        reps.append(
            {
                **{m: tracer.self_s[fn] * 1000.0 for m, fn in SELF_TIMES.items()},
                "algebra.sat_hit_frac": tracer.sat_hits / calls if calls else 0.0,
                "operations.determinize_states": tracer.out_states["operations.determinize"],
                "operations.product_states": tracer.out_states["operations.product"],
            }
        )
        now = time.perf_counter()
        if now + (now - t0) - start > args.seconds:
            break
    metrics = {
        "algebra.sat_calls": counts["sat_calls"],
        "algebra.conj_built": counts["conj_built"],
        "algebra.disj_built": counts["disj_built"],
        **{m: statistics.median(r[m] for r in reps) for m in reps[0]},
        "cli.inner_ms": statistics.median(tally.cli_inner_ms or [0.0]),
        "cli.overhead_ms": statistics.median(tally.cli_overhead_ms or [0.0]),
        "trace.overhead_frac": statistics.median(overheads),
    }
    info = {
        "reps": len(reps),
        "measured_s": time.perf_counter() - start,
        "calls": dict(tracer.calls),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return tally, metrics, info, probes, [s for s in tracer.spans if s is not None]


def metadata(args):
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "symfa_file": sys.modules["symfa"].__file__,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "symfa" / "__init__.py").is_file():
        print(f"error: no symfa source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import symfa

    if not Path(symfa.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported symfa from {symfa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            tally, metrics, info, probes, spans = measure_traced(args, workdir)
            units = PER_LAYER_UNITS
        else:
            tally, metrics, info, probes, spans = measure(args, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **result,
        "fail_frac": tally.failed / tally.attempted,
        "info": info,
        "host_probe_ms": {"median": statistics.median(probes), "samples": probes},
        "metadata": meta,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, f)
    for k, unit in units.items():
        print(f"{k:40s} {metrics[k]:14.4f} {unit}")
    print(f"{'fail_frac':40s} {record['fail_frac']:14.4f} ({tally.failed}/{tally.attempted})")
    print(f"{'host_probe_ms':40s} {record['host_probe_ms']['median']:14.4f} ms (median of {len(probes)})")
    print(f"info: {json.dumps(info)}")
    print(f"metadata: {json.dumps(meta)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
