"""Benchmark runner for hypam.

Usage (from the repository root):

    python3 perfbench/run.py --workload quenched-fk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each run spawns fresh child interpreters (``child.py``), one at a time, that
import ``hypam`` from ``src/``, run the workload's fixed operation sequence once
and check its outputs; children start until ``--seconds`` have passed (at least
two).  With ``--trace 0`` every child is untraced and the end-to-end metrics are
reported as medians; with ``--trace 1`` traced and untraced children alternate
and the per-layer metrics come from the traced ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs every workload at reduced size, traced and untraced, and
asserts that every metric in ``BENCHMARK.json`` is emitted with its unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from spans import LAYER_METRICS, OVERHEAD_METRIC, TIME_STATS, metric_units  # noqa: E402
from workloads import SIZES, operations  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_CHILDREN = 2          # same-seed runs per kind (untraced, traced) for the repeat checks
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 150         # start no child that would likely end past this
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def child_env():
    """Parent environment without HYPAM_* overrides, hypam from src/, capped BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPAM_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(base, run_dir, index, traced):
    """Run one child to completion; returns its result dict or None on failure."""
    out_dir = os.path.join(run_dir, f"child{index:03d}")
    os.makedirs(out_dir)
    spec = dict(base, traced=traced, out_dir=out_dir,
                result_path=os.path.join(out_dir, "result.json"))
    argv = [sys.executable, os.path.join(HERE, "child.py")]
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(argv + [json.dumps(spec)], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child {index} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(spec["result_path"]):
        print(f"child {index} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    with open(spec["result_path"]) as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["out_dir"] = out_dir
    return result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Run children for one workload; returns the aggregated report.

    Children start one after another while the next one would still end
    mostly inside the ``seconds`` window (judged by the previous child's
    duration).  At least ``MIN_CHILDREN`` of each kind start in any case, so
    that outputs and counts can be compared between same-seed children.
    """
    run_dir = os.path.join(ROOT, ".perfbench_out", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    base = {"workload": workload, "seed": seed, "scale": scale}
    n_ops = len(operations(workload, seed, scale))
    start = time.monotonic()
    min_children = MIN_CHILDREN * (2 if trace else 1)
    children, crashed, last = [], 0, 0.0
    while len(children) + crashed < min_children or (
            time.monotonic() - start + 0.5 * last < seconds
            and time.monotonic() - start + last < RUN_LIMIT_S):
        index = len(children) + crashed
        t0 = time.monotonic()
        res = spawn(base, run_dir, index, traced=bool(trace) and index % 2 == 1)
        last = time.monotonic() - t0
        if res is None:
            crashed += 1
        else:
            children.append(res)
    report = aggregate(children, crashed, n_ops)
    report.update(workload=workload, seed=seed, trace=trace, scale=scale,
                  elapsed_s=time.monotonic() - start)
    keep_spans(children, workload, seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    return report


def keep_spans(children, workload, seed):
    traced = [c for c in children if c["traced"]]
    if traced:
        dest = os.path.join(ROOT, ".perfbench_out", "results", f"{workload}-seed{seed}-spans.json")
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(os.path.join(traced[-1]["out_dir"], "spans.json"), dest)


def aggregate(children, crashed, n_ops):
    attempted = n_ops * (len(children) + crashed)
    failed = n_ops * crashed
    problems = []
    reference = {}
    for child in children:
        for op in child["ops"]:
            if op["error"] is not None:
                failed += 1
                problems.append(f"{op['name']}: {op['error']}")
            elif reference.setdefault(op["name"], op["digest"]) != op["digest"]:
                failed += 1
                problems.append(f"{op['name']}: outputs differ between same-seed runs")
    stats = {}
    untraced = [c for c in children if not c["traced"]]
    if untraced:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            stats[key] = quartiles([c[key] for c in untraced]) + (len(untraced),)
    if children:
        stats["setup_s"] = quartiles([c["setup_s"] for c in children]) + (len(children),)
    layers = {}
    traced = [c for c in children if c["traced"]]
    if traced:
        for span, stat, _ in LAYER_METRICS:
            name = f"{span}.{stat}"
            values = [c["layers"][name] for c in traced]
            if stat in TIME_STATS:
                layers[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    problems.append(f"{name}: count differs between same-seed runs {values}")
                layers[name] = values[0]
        if untraced:
            layers[OVERHEAD_METRIC[0]] = (statistics.median(c["wall_s"] for c in traced)
                                          - statistics.median(c["wall_s"] for c in untraced))
    samples = {key: [c[key] for c in (children if key == "setup_s" else untraced)]
               for key in END_TO_END_UNITS}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "stats": stats, "samples": samples, "layers": layers,
            "n_children": len(children),
            "n_traced": len(traced), "crashed": crashed,
            "machine": children[0]["machine"] if children else None}


def result_line(report, trace):
    """The final JSON object, or None when a metric could not be measured."""
    metrics = {}
    if trace:
        units = metric_units()
        if set(report["layers"]) != set(units):
            return None
        for name, unit in units.items():
            metrics[name] = {"value": report["layers"][name], "unit": unit}
    else:
        for name, unit in END_TO_END_UNITS.items():
            if name not in report["stats"]:
                return None
            metrics[name] = {"value": report["stats"][name][1], "unit": unit}
    correct = report["failed"] == 0 and not report["problems"]
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report):
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']} "
          f"scale {report['scale']}: {report['n_children']} runs "
          f"({report['n_traced']} traced, {report['crashed']} crashed) "
          f"in {report['elapsed_s']:.1f} s")
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}  unit")
    for name, unit in END_TO_END_UNITS.items():
        if name in report["stats"]:
            q1, med, q3, n = report["stats"][name]
            print(f"{name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{n:>5}  {unit}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"{'fail_frac':<14}{frac:>12.4f}  ({report['failed']} of {report['attempted']} "
          f"operations)  frac")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    if report["layers"]:
        units = metric_units()
        print(f"per-layer (median of {report['n_traced']} traced runs):")
        for name, val in report["layers"].items():
            print(f"  {name:<52}{val:>16.6g}  {units[name]}")


def write_detail(report):
    path = os.path.join(ROOT, ".perfbench_out", "results",
                        f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


def smoke():
    """Every workload once at reduced size, traced and untraced; assert all metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    if declared_e2e != END_TO_END_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from the emitted metrics")
    if declared_layer != metric_units():
        failures.append("BENCHMARK.json per_layer differs from the emitted metrics")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(SIZES):
        failures.append("BENCHMARK.json workloads differ from workloads.SIZES")
    for workload in SIZES:
        report = run_workload(workload, seed=0, seconds=0, trace=1, scale="smoke")
        print_report(report)
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            line = result_line(report, trace)
            if line is None or not line["correct"]:
                failures.append(f"{workload} trace {trace}: incomplete or incorrect result")
                continue
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != declared:
                failures.append(f"{workload} trace {trace}: metrics or units differ")
    for failure in failures:
        print(f"SMOKE FAIL: {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypam", "cli.py")):
        print(f"no hypam sources under {ROOT}/src: nothing to benchmark", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    write_detail(report)
    print_report(report)
    line = result_line(report, args.trace)
    if line is None:
        print("no complete measurement: every run of the workload failed", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
