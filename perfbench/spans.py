"""Span tracing around the public functions of each ``hypam`` layer.

The tracer lives entirely in the benchmark: it replaces module attributes (and
every ``from .x import y`` binding of them) and class methods with wrappers
that record a span -- name, start, end, parent span -- plus the work counts
each layer reports.  Spans stay in memory until the child process writes them
out at the end of its run.
"""

import functools
import math
import os
import sys
import time
from collections import defaultdict


def _rows(points):
    import numpy as np
    return math.prod(np.shape(points)[:-1])


def _broadcast_pairs(args, kwargs, out, pre):
    import numpy as np
    x, y = args[0], args[1]
    return {"pairs": math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))}


def _cov_matrix(args, kwargs, out, pre):
    import numpy as np
    return {"entries": out.size, "nonzero": int(np.count_nonzero(out))}


def _nearest_site(args, kwargs, out, pre):
    return {"query_site_pairs": _rows(args[1]) * args[0].n_sites}


def _values_at(args, kwargs, out, pre):
    return {"queries": _rows(args[1]), "new_sites": args[0].n_sites - pre}


def _bm_steps(args, kwargs, out, pre):
    times, pts = out
    return {"path_steps": (len(times) - 1) * (pts.shape[1] if pts.ndim == 3 else pts.shape[0])}


def _radial_steps(args, kwargs, out, pre):
    final = out[0] if isinstance(out, tuple) else out
    t, dt = args[1], args[2]
    return {"path_steps": int(round(t / dt)) * len(final)}


def _bridge_steps(args, kwargs, out, pre):
    times, pts = out
    n_candidates = kwargs.get("n_candidates", args[4] if len(args) > 4 else 16)
    return {"candidate_steps": (len(times) - 2) * pts.shape[1] * n_candidates}


def _fk_steps(args, kwargs, out, pre):
    return {"path_steps": out.n_paths * int(round(out.t / out.dt))}


def _write_bytes(args, kwargs, out, pre):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, work counter, pre-call probe)
TARGETS = [
    ("geometry", "cosh_distance", _broadcast_pairs, None),
    ("geometry", "greedy_packing",
     lambda a, k, out, pre: {"centers": len(out.centers)}, None),
    ("field", "make_spec", None, None),
    ("field", "CovarianceSpec.cov_matrix", _cov_matrix, None),
    ("field", "CovarianceSpec.cov", None, None),
    ("field", "sample_field", lambda a, k, out, pre: {"sites": out.n_sites}, None),
    ("field", "max_scan", None, None),
    ("field", "extend_field",
     lambda a, k, out, pre: {"new_sites": out.n_sites - a[0].n_sites}, None),
    ("field", "FieldRealization.nearest_site", _nearest_site, None),
    ("field", "detect_islands", None, None),
    ("field", "build_clusters", None, None),
    ("feynman_kac", "fk_estimate", _fk_steps, None),
    ("feynman_kac", "LazyFieldEvaluator.values_at", _values_at,
     lambda a, k: a[0].n_sites),
    ("feynman_kac", "annealed_moment_estimate", None, None),
    ("brownian", "simulate_bm_batch", _bm_steps, None),
    ("brownian", "simulate_radial_batch", _radial_steps, None),
    ("brownian", "simulate_bridge_batch", _bridge_steps, None),
    ("brownian", "energy_excess_check", None, None),
    ("brownian", "path_energy", None, None),
    ("heatkernel", "log_kernel", None, None),
    ("cli", "write_csv", _write_bytes, None),
    ("cli", "write_json", None, None),
]

# reported per-layer metrics: (span name, stat, unit)
LAYER_METRICS = [
    ("geometry.cosh_distance", "calls", "count"),
    ("geometry.cosh_distance", "pairs", "count"),
    ("geometry.cosh_distance", "self_s", "s"),
    ("geometry.greedy_packing", "time_s", "s"),
    ("geometry.greedy_packing", "centers", "count"),
    ("field.make_spec", "time_s", "s"),
    ("field.CovarianceSpec.cov_matrix", "time_s", "s"),
    ("field.CovarianceSpec.cov_matrix", "entries", "count"),
    ("field.CovarianceSpec.cov_matrix", "nonzero_frac", "frac"),
    ("field.CovarianceSpec.cov", "calls", "count"),
    ("field.CovarianceSpec.cov", "time_s", "s"),
    ("field.sample_field", "time_s", "s"),
    ("field.sample_field", "sites", "count"),
    ("field.max_scan", "self_s", "s"),
    ("field.extend_field", "calls", "count"),
    ("field.extend_field", "self_s", "s"),
    ("field.extend_field", "new_sites", "count"),
    ("field.FieldRealization.nearest_site", "calls", "count"),
    ("field.FieldRealization.nearest_site", "time_s", "s"),
    ("field.FieldRealization.nearest_site", "query_site_pairs", "count"),
    ("field.detect_islands", "time_s", "s"),
    ("field.build_clusters", "time_s", "s"),
    ("feynman_kac.fk_estimate", "self_s", "s"),
    ("feynman_kac.fk_estimate", "path_steps", "count"),
    ("feynman_kac.LazyFieldEvaluator.values_at", "time_s", "s"),
    ("feynman_kac.LazyFieldEvaluator.values_at", "snap_hit_frac", "frac"),
    ("feynman_kac.annealed_moment_estimate", "self_s", "s"),
    ("brownian.simulate_bm_batch", "time_s", "s"),
    ("brownian.simulate_bm_batch", "path_steps", "count"),
    ("brownian.simulate_radial_batch", "time_s", "s"),
    ("brownian.simulate_radial_batch", "path_steps", "count"),
    ("brownian.simulate_bridge_batch", "self_s", "s"),
    ("brownian.simulate_bridge_batch", "candidate_steps", "count"),
    ("brownian.energy_excess_check", "time_s", "s"),
    ("brownian.path_energy", "calls", "count"),
    ("heatkernel.log_kernel", "calls", "count"),
    ("heatkernel.log_kernel", "time_s", "s"),
    ("cli.write_csv", "time_s", "s"),
    ("cli.write_csv", "bytes", "count"),
    ("cli.write_json", "time_s", "s"),
]
OVERHEAD_METRIC = ("trace.overhead_s", "s")
TIME_STATS = {"time_s", "self_s"}


def metric_units():
    units = {f"{span}.{stat}": unit for span, stat, unit in LAYER_METRICS}
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


class Tracer:
    """In-memory spans plus per-span-name work counts."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self._stack = []
        self.counts = defaultdict(lambda: defaultdict(int))

    def wrap(self, name, fn, counter=None, probe=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = probe(args, kwargs) if probe else None
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][2], spans[sid][3] = start, end
            if counter:
                for key, val in counter(args, kwargs, out, pre).items():
                    counts[name][key] += val
            return out

        return traced

    def install(self):
        """Wrap every target, including each ``hypam`` module that re-binds it."""
        for mod_name, path, counter, probe in TARGETS:
            module = sys.modules[f"hypam.{mod_name}"]
            name = f"{mod_name}.{path}"
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter, probe))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counter, probe)
            for other_name, other in list(sys.modules.items()):
                if (other_name == "hypam" or other_name.startswith("hypam.")) and \
                        getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)

    def metrics(self):
        """Aggregate spans and counts into the reported per-layer metrics."""
        inclusive = defaultdict(float)
        child_time = defaultdict(float)
        calls = defaultdict(int)
        for name, parent, start, end in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[self.spans[parent][0]] += end - start
        out = {}
        for span, stat, _ in LAYER_METRICS:
            counts = self.counts.get(span, {})
            if stat == "time_s":
                val = inclusive[span]
            elif stat == "self_s":
                val = inclusive[span] - child_time[span]
            elif stat == "calls":
                val = calls[span]
            elif stat == "nonzero_frac":
                val = counts["nonzero"] / counts["entries"] if counts.get("entries") else 0.0
            elif stat == "snap_hit_frac":
                val = 1.0 - counts["new_sites"] / counts["queries"] if counts.get("queries") else 0.0
            else:
                val = counts.get(stat, 0)
            out[f"{span}.{stat}"] = val
        return out
