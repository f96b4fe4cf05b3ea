"""Benchmark of epsmult: seeded workloads timed end to end through the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload powers_3d4d --seed 1 --seconds 40 --trace 0

One process, one closed-loop client: each operation starts only after the
previous one returns, on the calling thread.  The run imports the program
from ``src/`` of the checkout, builds the seeded operations of one pass
(``workloads.py``), and repeats the pass until ``--seconds`` is spent.
Every report is checked (``checks.py``); the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
repeated set-ups of importing ``epsmult.cli``, generating the inputs and
loading the reference), ``wall_ref_s`` (time to produce all reports of a
pass) and ``peak_rss_mb`` (``ru_maxrss`` of this process, which ran only this
workload).  ``failed_frac`` and, where a pass holds at least 100
operations, ``op_p50_ms``/``op_p90_ms`` are printed on the lines above.

Times are in reference seconds.  On a shared host the speed of a core
swings by up to 1.7x for seconds at a time, and all of the program's
operations slow down with it, so raw times of the same run spread by
15-35% across runs.  The run therefore times a fixed probe of the
benchmark's own (a brute-force count from ``checks.py``, which never
calls the program) between operations, at least every
``PROBE_EVERY_S``, and scales each operation's time by ``PROBE_REF_S``
over the median of the last five probes: the time the operation would
have taken on a core that runs the probe in ``PROBE_REF_S``.  A change
that makes the program slower moves these figures as much as raw times;
a slower core does not.  ``wall_ref_s`` sums each operation's median
over the run's passes; ``setup_s`` is scaled the same way.  The raw
figures are printed on the summary lines.

``--trace 1`` spends half the time untraced and half with ``spans.Tracer``
installed, and reports the per-layer metrics (medians over traced passes)
and ``trace.overhead_frac``.  It also fails the run unless the traced
reports are byte-identical to the untraced ones and every layer the
workload declares shows calls.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one closed-loop client.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 15
PERCENTILE_MIN_OPS = 100
PROBE_EVERY_S = 0.05
PROBE_REF_S = 0.0025  # the probe's time on an unloaded core of a 2-vCPU Xeon VM
PROBE_IDEAL = workloads.shape3(2, 3, 4)

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{
        f"{layer}.{what}": unit
        for layer in workloads.LAYERS
        for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
    },
    "ideals.minimal_vectors.calls": "count",
    "ideals.minimal_vectors.self_s": "s",
    "ideals.minimal_vectors.cands_in": "count",
    "ideals.minimal_vectors.gens_out": "count",
    "ideals.minimal_vectors.kept_ratio": "ratio",
    "ideals.product.self_s": "s",
    "ideals.saturate.self_s": "s",
    "ideals.intersect.self_s": "s",
    "ideals.colon.self_s": "s",
    "colength.colength.calls": "count",
    "colength.colength.self_s": "s",
    "colength.difference_max_degree.calls": "count",
    "colength.difference_max_degree.self_s": "s",
    "colength.monomials": "count",
    "okounkov.count_staircase_in_simplex.calls": "count",
    "okounkov.count_staircase_in_simplex.self_s": "s",
    "okounkov.points": "count",
    "semigroups.count.calls": "count",
    "semigroups.count.self_s": "s",
    "semigroups.k_fold_sum_count.calls": "count",
    "semigroups.k_fold_sum_count.self_s": "s",
    "families.cache_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


class SetupError(Exception):
    pass


@dataclass
class Program:
    cli: object
    semigroups: object


@dataclass
class Result:
    stdout: str
    code: object  # exit code, or a description of the exception raised
    seconds: float
    ref_seconds: float  # `seconds` on the reference core (see HostClock)


def probe_seconds() -> float:
    """Time of the benchmark's own fixed probe, with the collector off.

    The collector is off so that objects the program leaves alive cannot
    slow the probe down.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        checks.brute_saturation_length(PROBE_IDEAL, 2)
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """The speed of this core just now, from probes taken between operations."""

    def __init__(self):
        self.recent: collections.deque[float] = collections.deque(maxlen=5)
        self.last = -math.inf

    def scale(self) -> float:
        """PROBE_REF_S over the median of the recent probes; probes first if the last one is stale."""
        if time.perf_counter() - self.last > PROBE_EVERY_S:
            self.recent.append(probe_seconds())
            self.last = time.perf_counter()
        return PROBE_REF_S / statistics.median(self.recent)


def load_program() -> Program:
    """Import epsmult afresh from the checkout's src/."""
    if not (SRC / "epsmult" / "__init__.py").is_file():
        raise SetupError(f"no epsmult sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "epsmult" or n.startswith("epsmult.")]:
        del sys.modules[name]
    cli = importlib.import_module("epsmult.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"epsmult was imported from {cli.__file__}, not from {SRC}")
    return Program(cli, sys.modules["epsmult.semigroups"])


def set_up(workload: str, seed: int):
    program = load_program()
    ops = workloads.make_ops(workload, seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return program, ops, reference


def run_sumsets(semigroups, meta: dict, out) -> int:
    sg = semigroups.semigroup_from_json_dict(meta["semigroup"])
    for p in meta["levels"]:
        for k in range(1, meta["kmax"] + 1):
            out.write(f"{p},{k},{semigroups.k_fold_sum_count(sg, p, k)}\n")
    return 0


def execute(program: Program, op, clock: HostClock) -> Result:
    scale = clock.scale()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is None:
                code = run_sumsets(program.semigroups, op.meta, out)
            else:
                code = program.cli.main(list(op.argv))
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Result(out.getvalue(), code, seconds, seconds * scale)


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def op_ref_seconds(passes, raw: bool = False) -> list[float]:
    """Each operation's median time over the passes, in reference seconds (or raw)."""
    return [
        statistics.median(p[i].seconds if raw else p[i].ref_seconds for p in passes)
        for i in range(len(passes[0]))
    ]


def measure(program: Program, ops, budget: float, tracer: Tracer | None = None):
    """Repeat whole passes while another one is expected to fit in `budget` seconds.

    Returns the passes and, when traced, the layer metrics of each pass.
    """
    passes, layer_records = [], []
    clock = HostClock()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append([execute(program, op, clock) for op in ops])
        if tracer is not None:
            layer_records.append(tracer.layer_metrics())
        typical = statistics.median(pass_seconds(p) for p in passes)
        if time.perf_counter() - start + typical > budget:
            return passes, layer_records


def evaluate(workload: str, seed: int, ops, passes, reference: dict):
    """(attempted, failed, problems) over every operation of every pass.

    The first pass is checked in full; every later pass must reproduce
    its reports byte for byte, with the same exit codes.
    """
    digests = reference["digests"][workload] if seed == workloads.DEFAULT_SEED else None
    attempted = failed = 0
    problems = []
    for i, op in enumerate(ops):
        first = passes[0][i]
        problem = checks.check_report(op, first.stdout, first.code, reference, digests)
        if problem is not None:
            problems.append(f"{op.name}: {problem}")
        for number, results in enumerate(passes):
            attempted += 1
            same = (results[i].stdout, results[i].code) == (first.stdout, first.code)
            if problem is not None or not same:
                failed += 1
                if problem is None:
                    problems.append(f"{op.name}: pass {number} differs from pass 0")
    return attempted, failed, problems


def op_percentiles(passes):
    """(p50, p90) in reference ms of the operations' median latencies, or None below 100 operations."""
    if len(passes[0]) < PERCENTILE_MIN_OPS:
        return None
    per_op = [s * 1000 for s in op_ref_seconds(passes)]
    return statistics.median(per_op), statistics.quantiles(per_op, n=10)[8]


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not imported"),
        "git": git_revision(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name} {value:.6g} {unit}" + (f" ({note})" if note else "")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the summary lines and returns the result object."""
    setups, raw_setups, clock = [], [], HostClock()
    for _ in range(SETUP_REPEATS):
        scale = clock.scale()
        start = time.perf_counter()
        program, ops, reference = set_up(workload, seed)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * scale)
    declared = workloads.WORKLOADS[workload].layers
    lines = [f"# workload {workload}, seed {seed}, {len(ops)} operations per pass, trace {int(trace)}"]
    if not trace:
        passes, _ = measure(program, ops, seconds)
        attempted, failed, problems = evaluate(workload, seed, ops, passes, reference)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref_s": sum(op_ref_seconds(passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(raw_setups):.6g} s",
            "wall_ref_s": f"median of {len(passes)} passes per operation; raw {sum(op_ref_seconds(passes, raw=True)):.6g} s",
        }
        lines += [_metric_line(k, v, units[k], notes.get(k, "")) for k, v in metrics.items()]
        lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
        percentiles = op_percentiles(passes)
        if percentiles is not None:
            for label, value in zip(("op_p50_ms", "op_p90_ms"), percentiles):
                lines.append(_metric_line(label, value, "ms", f"{len(ops)} operations, each median of {len(passes)}"))
    else:
        plain, _ = measure(program, ops, seconds / 2)
        tracer = Tracer(workloads.LAYERS)
        tracer.install()
        try:
            traced, records = measure(program, ops, seconds / 2, tracer)
        finally:
            tracer.restore()
        attempted, failed, problems = evaluate(workload, seed, ops, plain + traced, reference)
        metrics = {k: statistics.median(r[k] for r in records) for k in records[0]}
        metrics["trace.overhead_frac"] = sum(op_ref_seconds(traced)) / sum(op_ref_seconds(plain)) - 1
        for layer in declared:
            if metrics[f"{layer}.calls"] == 0:
                problems.append(f"traced passes show no calls in declared layer {layer}")
        units = PER_LAYER_UNITS
        lines.append(f"# {len(plain)} untraced and {len(traced)} traced passes")
        lines += [_metric_line(k, v, units[k]) for k, v in metrics.items()]
    lines.append("# env " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
