"""Benchmark of semicircleqm: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload evolve-cold --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's `src/` (never from an
installed copy); the `cli` workload starts it as `python -m semicircleqm`
with `PYTHONPATH=src`, one process at a time.  Every output is checked
against `reference.py`, outside the timed spans and outside set-up.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics.
Details and span files go to `bench/results/`.

Times are reported at a nominal machine speed (see `SpeedScale`).
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every program process it starts;
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import Reference
from tracer import LAYERS, PACKAGE, SPECFUN_NAMES, THETA_NAMES, Tracer
from workloads import CLI_COMMANDS, EDGE_SLICE, EVOLVE_MIX, VERIFY_SUITES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10
# The measurement may run past --seconds to collect the tail samples, up to
# this multiple of --seconds of wall time.
MAX_STRETCH = 3.0
IMPORT_SAMPLES = 5
CALIB_ITERS = 10_000
CALIB_NOMINAL_NS = 800_000
CALIB_EVERY_S = 0.05


def calibration_ns() -> int:
    """Median of three timings of a fixed pure-Python loop."""
    samples = []
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(CALIB_ITERS):
            acc += i * i % 7
        samples.append(time.perf_counter_ns() - start)
    return sorted(samples)[1]


@dataclass
class Record:
    kind: str
    ns: int
    error: str | None
    fault: str | None
    scale: float = 1.0

    @property
    def scaled_ns(self) -> float:
        return self.ns * self.scale


class SpeedScale:
    """Scales measured times to a machine of fixed speed.

    The speed of a shared host drifts by 15% and more over seconds and
    minutes, alike for wall and CPU time.  Between operations, at most
    every CALIB_EVERY_S, the benchmark times a fixed pure-Python loop.
    Each operation's time is multiplied by CALIB_NOMINAL_NS over the mean
    of the loop times taken just before and just after it: the time the
    operation would take where the loop takes CALIB_NOMINAL_NS.  The loop
    shares no code with the program, so the program's own changes show in
    full.
    """

    def __init__(self) -> None:
        self.samples = [calibration_ns()]
        self._since = time.perf_counter()
        self._pending: list[Record] = []

    def add(self, rec: Record) -> None:
        self._pending.append(rec)
        if time.perf_counter() - self._since >= CALIB_EVERY_S:
            self.flush()

    def flush(self) -> float:
        """Calibrate now; give the pending records their scale and return it."""
        now = calibration_ns()
        scale = CALIB_NOMINAL_NS / (0.5 * (self.samples[-1] + now))
        for rec in self._pending:
            rec.scale = scale
        self._pending.clear()
        self.samples.append(now)
        self._since = time.perf_counter()
        return scale


def load_package():
    """Import the package afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    origin = Path(pkg.__file__).resolve().parent
    if origin != SRC / PACKAGE:
        raise RuntimeError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return pkg


def run_rotation(ops, records: list[Record], speed: SpeedScale, tracer=None) -> None:
    """Time each operation alone, then check its output outside the timing."""
    for op in ops:
        error = None
        out = None
        start = time.perf_counter_ns()
        try:
            out = tracer.op(len(records), op.kind, op.run) if tracer else op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if error is None:
            error = op.check(out)
        rec = Record(op.kind, elapsed, error, op.fault)
        records.append(rec)
        speed.add(rec)
    speed.flush()


def tail_index(n: int, pct: float) -> int:
    """0-based nearest-rank index of the pct-th percentile of n samples."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def measure(workload, first_rotation: int, seconds: float, speed: SpeedScale) -> tuple[list[Record], int]:
    """Whole rotations until `seconds` of operation time and the tail samples are in."""
    records: list[Record] = []
    timed = 0
    r = first_rotation
    wall_start = time.perf_counter()
    while True:
        before = len(records)
        run_rotation(workload.rotation(r), records, speed)
        timed += sum(rec.ns for rec in records[before:])
        r += 1
        n = len(records)
        beyond = n - 1 - tail_index(n, workload.tail_pct)
        if timed >= seconds * 1e9 and beyond >= TAIL_MIN_BEYOND:
            break
        if time.perf_counter() - wall_start > MAX_STRETCH * seconds:
            break
    return records, r - first_rotation


def end_to_end(records: list[Record], tail_pct: float, setup_s: list[float], rss_mb: float, raw: bool = False) -> dict:
    ns = sorted(rec.ns if raw else rec.scaled_ns for rec in records)
    return {
        "ops_per_s": {"value": len(ns) / (sum(ns) / 1e9), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ns) / 1e6, "unit": "ms"},
        "op_tail_ms": {"value": ns[tail_index(len(ns), tail_pct)] / 1e6, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def by_kind(records: list[Record]) -> dict[str, dict]:
    kinds: dict[str, dict] = {}
    for rec in records:
        entry = kinds.setdefault(rec.kind, {"attempted": 0, "failed": 0, "ns": [], "fault": rec.fault,
                                            "first_error": None})
        entry["attempted"] += 1
        entry["ns"].append(rec.scaled_ns)
        if rec.error is not None:
            entry["failed"] += 1
            entry["first_error"] = entry["first_error"] or rec.error
    for entry in kinds.values():
        entry["p50_ms"] = statistics.median(entry.pop("ns")) / 1e6
    return kinds


def run_untimed(ops) -> None:
    for op in ops:
        try:
            op.run()
        except Exception:  # untimed calls are not checked
            pass


def set_up(workload_cls, args, ref, speed: SpeedScale):
    """Import, input generation and one warm-up rotation; returns the scaled time."""
    start = time.perf_counter()
    workload = workload_cls(args.seed, str(ROOT), ref)
    if workload.in_process or args.trace:
        workload.bind(load_package())
    run_untimed(workload.warm_up())
    elapsed = time.perf_counter() - start
    return workload, elapsed * speed.flush()


def cached_functions(module) -> list:
    return [obj for obj in vars(module).values() if callable(getattr(obj, "cache_info", None))]


def reset_caches(workload) -> None:
    """Empty every cache of the program; an in-process workload refills them by its warm-up.

    A `cli` call starts a fresh process, so its in-process calls start empty.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith(PACKAGE + "."):
            for fn in cached_functions(module):
                fn.cache_clear()
    if workload.in_process:
        run_untimed(workload.warm_up())


def cache_counts(evolution) -> tuple[int, int]:
    """Hits and misses summed over every cached function in `evolution`."""
    stats = [fn.cache_info() for fn in cached_functions(evolution)]
    return sum(s.hits for s in stats), sum(s.misses for s in stats)


def import_ms(env: dict, speed: SpeedScale) -> float:
    """Median scaled wall time of a bare `import semicircleqm` in a fresh process."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {PACKAGE}"], cwd=ROOT, env=env, check=True, timeout=60)
        samples.append((time.perf_counter() - start) * 1e3 * speed.flush())
    return statistics.median(samples)


def traced_phase(workload, speed: SpeedScale):
    """Traced rotations, then the same rotations untraced to price the tracing.

    Both passes start from the same cache state, so they make the same calls.
    """
    rotations = workload.traced_rotations
    evolution = workload.pkg.evolution
    reset_caches(workload)
    tracer = Tracer()
    hits0, misses0 = cache_counts(evolution)
    tracer.install()
    traced: list[Record] = []
    try:
        for r in range(1, rotations + 1):
            run_rotation(workload.traced_rotation(r), traced, speed, tracer)
    finally:
        tracer.uninstall()
    hits1, misses1 = cache_counts(evolution)
    reset_caches(workload)
    untraced: list[Record] = []
    for r in range(1, rotations + 1):
        run_rotation(workload.traced_rotation(r), untraced, speed)
    return tracer, traced, untraced, (hits1 - hits0, misses1 - misses0)


def layer_metrics(workload, tracer, traced, untraced, measured, cache_delta, speed, seed) -> tuple[dict, dict]:
    """Counts and self times from the traced phase, per-kind medians from the measurement."""
    n_ops = len(traced)
    # self times are scaled by the traced phase's mean scale
    scale = sum(rec.scaled_ns for rec in traced) / sum(rec.ns for rec in traced)
    self_ns = tracer.self_ns_by_layer()
    counts = {}
    absent: list[str] = []
    for metric, names in (
        ("specfun.calls", [f"specfun.{n}" for n in SPECFUN_NAMES]),
        ("combinatorics.theta_calls", [f"combinatorics.{n}" for n in THETA_NAMES]),
        ("orthopoly.phi_all_calls", ["orthopoly.phi_all"]),
        ("oracle.expm_calls", ["oracle.expm_matrix"]),
    ):
        counts[metric], missing = tracer.count(names)
        absent += missing
    counts["combinatorics.words"] = tracer.words
    counts["hilbert.pv_nodes"] = tracer.pv_nodes
    counts["oracle.expm_dim3_sum"] = tracer.expm_dim3
    counts["evolution.cache_hits"], counts["evolution.cache_misses"] = cache_delta

    medians = by_kind(measured)

    def p50(kind: str) -> dict:
        return {"value": medians[kind]["p50_ms"] if kind in medians else 0.0, "unit": "ms"}

    metrics: dict[str, dict] = {}
    for kind in [*EVOLVE_MIX, *(edge[0] for edge in EDGE_SLICE)]:
        metrics[f"evolution.{kind}_p50_ms"] = p50(kind)
    for name, value in counts.items():
        metrics[name] = {"value": value / n_ops, "unit": "count/op"}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = {"value": self_ns[layer] * scale / n_ops / 1e6, "unit": "ms"}
    for suite in VERIFY_SUITES:
        metrics[f"checks.{suite}_ms"] = p50(suite)
    cli_import = import_ms(workload.env, speed) if workload.name == "cli" else 0.0
    metrics["cli.import_ms"] = {"value": cli_import, "unit": "ms"}
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = p50(command)
    traced_ns = sum(rec.scaled_ns for rec in traced)
    untraced_ns = sum(rec.scaled_ns for rec in untraced)
    metrics["trace.overhead_pct"] = {"value": (traced_ns / untraced_ns - 1.0) * 100.0, "unit": "%"}
    metrics["trace.spans"] = {"value": len(tracer.span_name) / n_ops, "unit": "count/op"}

    span_file = RESULTS / f"trace-{workload.name}-seed{seed}.npz"
    tracer.save(str(span_file))
    details = {"traced_ops": n_ops, "traced_rotations": workload.traced_rotations,
               "absent": absent, "span_file": span_file.name}
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("evolve-cold", "evolve-warm", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = Reference()
    speed = SpeedScale()
    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload, seconds = set_up(WORKLOADS[args.workload], args, ref, speed)
        setup_s.append(seconds)
    RESULTS.mkdir(exist_ok=True)

    if args.trace:
        tracer, traced, untraced, cache_delta = traced_phase(workload, speed)
        measured, rotations = measure(workload, workload.traced_rotations + 1, args.seconds, speed)
        records = traced + untraced + measured
        metrics, details = layer_metrics(workload, tracer, traced, untraced, measured, cache_delta,
                                         speed, args.seed)
    else:
        records, rotations = measure(workload, 1, args.seconds, speed)
        rss = peak_rss_mb(workload.in_process)
        metrics = end_to_end(records, workload.tail_pct, setup_s, rss)
        ranked = sorted(records, key=lambda rec: rec.scaled_ns)
        tail_kind = ranked[tail_index(len(ranked), workload.tail_pct)].kind
        details = {"tail_pct": workload.tail_pct, "tail_kind": tail_kind, "setup_s": setup_s,
                   "unscaled": end_to_end(records, workload.tail_pct, setup_s, rss, raw=True)}
    details.update(rotations=rotations, samples=len(records), calibration_ns=speed.samples)
    if args.trace:
        print(f"# absent from the program: {', '.join(details['absent']) or 'none'}")

    kinds = by_kind(records)
    failed = sum(k["failed"] for k in kinds.values())
    correct = all(rec.error is None or rec.fault is not None for rec in records)
    for kind, entry in sorted(kinds.items()):
        tag = f" fault={entry['fault']}" if entry["fault"] else ""
        print(f"# {args.workload} {kind}: attempted={entry['attempted']} failed={entry['failed']}{tag}")
        if entry["first_error"]:
            print(f"#   first failure: {entry['first_error']}")
    result = {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
    detail_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_file.write_text(json.dumps({**result, "kinds": kinds, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
