"""One benchmark child: import hypam, run a workload's sequence once, check it.

Run by ``run.py`` as ``python3 perfbench/child.py '<json spec>'``.  The spec
names the workload, seed, size, whether to trace, the parent's monotonic clock
reading just before the spawn, and where to write outputs and the result.
Only the standard library is imported before ``hypam.cli``, so the set-up time
is the interpreter start plus hypam's own import cost.
"""

import json
import os
import resource
import sys
import time


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob
    import numpy
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed):
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main():
    spec = json.loads(sys.argv[1])
    import hypam.cli  # noqa: F401  (the set-up being measured)
    from workloads import operations
    ops = operations(spec["workload"], spec["seed"], spec["scale"])
    result = {"setup_s": time.monotonic() - spec["t_spawn"]}
    if spec["traced"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    outs = [os.path.join(spec["out_dir"], op.name) for op in ops]
    returned, errors = [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for op, out in zip(ops, outs):
        try:
            returned.append(op.run(out))
            errors.append(None)
        except (Exception, SystemExit) as exc:
            returned.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(wall_s=wall, cpu_s=_cpu(ru1) - _cpu(ru0),
                  peak_rss_mb=ru1.ru_maxrss / 1024.0)
    if spec["traced"]:
        result["layers"] = tracer.metrics()
        with open(os.path.join(spec["out_dir"], "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    reports = []
    for op, out, ret, err in zip(ops, outs, returned, errors):
        digest = None
        if err is None:
            try:
                digest = op.verify(out, ret)
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        reports.append({"name": op.name, "error": err, "digest": digest})
    result["ops"] = reports
    result["machine"] = machine_record(spec["seed"])
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
