"""ptsim benchmark: one workload per invocation, run from a checkout's root.

    python3 bench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Builds nothing: imports ptsim from ``src/`` of the checkout.  Repeats whole
passes over the workload's operation list until ``--seconds`` have passed,
checks every output, and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and the metrics.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends half the time on
untraced passes and half on traced ones and reports the per-layer metrics.
Scratch outputs go to ``.bench_tmp/`` and span files to ``.bench_out/``.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Runs in a fresh interpreter: import cost can be paid only once per process.
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ptsim, ptsim.cli
elapsed = time.perf_counter() - start
if not ptsim.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported ptsim from {ptsim.__file__}")
print(elapsed)
"""


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _import_seconds():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(workload):
    """Median import time of ptsim plus median input generation time."""
    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    generation = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.generate()
        generation.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(generation)


def _run_passes(workload, seconds, tracer, problems, reported):
    """Whole passes over the operation list until ``seconds`` have passed."""
    from workloads import OperationFailed, Outcome

    passes, stats = [], []
    start = time.perf_counter()
    while True:
        outcomes = []
        for op in workload.ops():
            workload.prepare(op)
            span = tracer.span(f"op:{op.group}") if tracer else nullcontext()
            value, ok, error = None, True, None
            t0 = time.perf_counter()
            try:
                with span:
                    value = op.fn()
            except OperationFailed as exc:
                value, ok, error = exc.value, False, str(exc)
            except Exception as exc:   # a crash counts as a failed operation
                ok, error = False, f"{type(exc).__name__}: {exc}"
                if op.label not in reported:
                    traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if not ok and op.label not in reported:
                reported.add(op.label)
                print(f"bench: {op.label} failed: {error}", file=sys.stderr)
            outcomes.append(Outcome(op, elapsed, ok, value))
        try:
            found, pass_stats = workload.check(outcomes)
        except Exception as exc:   # output the checks cannot read is wrong output
            traceback.print_exc(file=sys.stderr)
            found = [f"checks raised {type(exc).__name__}: {exc}"]
            pass_stats = {"outputs": 0, "series_points": 0}
        problems.extend(found)
        passes.append(outcomes)
        stats.append(pass_stats)
        if time.perf_counter() - start >= seconds:
            return passes, stats


def _pass_walls(passes):
    return [sum(oc.seconds for oc in p if oc.op.kind != "fault") for p in passes]


def _pass_mean_ms(passes, kind):
    """Mean time of one operation of a kind within a pass, median over passes."""
    return statistics.median(
        statistics.fmean(oc.seconds for oc in p if oc.op.kind == kind and oc.ok)
        for p in passes) * 1e3


def _end_to_end(passes, stats, setup_s):
    walls = _pass_walls(passes)
    qubit = [oc.seconds for p in passes for oc in p if oc.op.kind == "qubit" and oc.ok]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs_per_s": statistics.median(s["outputs"] / w for s, w in zip(stats, walls)),
        "qubit_ms": _pass_mean_ms(passes, "qubit"),
        "qubit_p90_ms": float(np.percentile(qubit, 90)) * 1e3,
        "dilation_ms": _pass_mean_ms(passes, "dilation"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "ptsim" / "__init__.py", ROOT / "configs", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            _fail(f"{needed.relative_to(ROOT)} is missing; run from a ptsim checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    end_to_end, per_layer = _declared_metrics()

    sys.path.insert(0, str(SRC))
    import ptsim
    if not Path(ptsim.__file__).resolve().is_relative_to(SRC):
        _fail(f"imported ptsim from {ptsim.__file__}, not from {SRC}")
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent))
    problems, reported = [], set()
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_dir)
        setup_s = _setup_seconds(workload)
        if args.trace:
            plain, _ = _run_passes(workload, args.seconds / 2, None, problems, reported)
            tracer = Tracer()
            tracer.install(ptsim)
            try:
                traced, traced_stats = _run_passes(
                    workload, args.seconds / 2, tracer, problems, reported)
            finally:
                tracer.uninstall()
            spans_dir = ROOT / ".bench_out"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
            passes = plain + traced
            series_points = sum(s["series_points"] for s in traced_stats)
            values = workloads.per_layer(args.workload, tracer.spans(), len(traced),
                                         traced, series_points)
            values["trace.overhead_s"] = (statistics.median(_pass_walls(traced))
                                          - statistics.median(_pass_walls(plain)))
            declared = per_layer
        else:
            passes, stats = _run_passes(workload, args.seconds, None, problems, reported)
            values = _end_to_end(passes, stats, setup_s)
            declared = end_to_end
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in problems[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    missing = [name for name, _ in declared if name not in values]
    if missing:
        _fail(f"metrics not computed: {missing}")
    result = {
        "correct": not problems,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(not oc.ok for p in passes for oc in p),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
