"""The benchmark's workloads: fixed sequences of CLI invocations and library calls.

Every input is derived from the workload seed, and every parameter that matters
is passed explicitly (``--set`` / ``--seed``), so a change of defaults cannot
silently change a workload.  Each operation carries an output check that runs
untimed after the timed section.

This module imports only the standard library at import time; ``hypam`` and
``numpy`` are imported inside the functions that need them, after the child has
finished its set-up.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# full-size and reduced (smoke) parameters, per workload
SIZES = {
    "quenched-fk": {
        "full": {"fk_calls": 4, "n_paths": 60},
        "smoke": {"fk_calls": 1, "n_paths": 8},
    },
    "field-lattice": {
        "full": {"cluster_cap": 2048, "scan_cap": 1024, "scan_reps": 48},
        "smoke": {"cluster_cap": 256, "scan_cap": 128, "scan_reps": 8},
    },
    "path-ensemble": {
        "full": {"exit_paths": 100000, "bridge_paths": 800, "annealed_paths": 400},
        "smoke": {"exit_paths": 20000, "bridge_paths": 200, "annealed_paths": 10},
    },
}

ANNEALED = {"sigma2": 0.25, "d": 2, "t": 1.0, "dt": 0.01}


class CheckFailed(Exception):
    """An operation's output violates its expected invariant."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class CliOp:
    """One ``hypam.cli.main`` invocation with explicit parameters."""
    name: str
    subcommand: str
    params: dict
    seed: int
    check: Callable = field(compare=False)

    def argv(self, out):
        sets = []
        for key, val in self.params.items():
            sets += ["--set", f"{key}={val!r}" if isinstance(val, float) else f"{key}={val}"]
        return [self.subcommand, *sets, "--seed", str(self.seed), "--out", out]

    def run(self, out):
        from hypam import cli
        rc = cli.main(self.argv(out))
        if rc != 0:
            raise CheckFailed(f"{self.subcommand} exited with code {rc}")
        return None

    def verify(self, out, result):
        """Manifest, then output invariants; returns the determinism digest."""
        from dataclasses import replace
        from hypam.config import RunConfig, format_config
        expected = replace(RunConfig(), **self.params, seed=self.seed, out=out)
        with open(os.path.join(out, "manifest.cfg")) as fh:
            manifest = fh.read()
        _require(manifest == format_config(expected, self.subcommand),
                 "manifest.cfg differs from the intended parameters")
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        self.check(self, out, summary)
        digest = hashlib.sha256()
        for fname in ("data.csv", "summary.json"):
            with open(os.path.join(out, fname), "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()


@dataclass(frozen=True)
class CallOp:
    """One direct library call; ``call(seed)`` returns the result to check."""
    name: str
    seed: int
    call: Callable = field(compare=False)
    check: Callable = field(compare=False)

    def run(self, out):
        return self.call(self.seed)

    def verify(self, out, result):
        return self.check(self, result)


def _read_csv(out):
    with open(os.path.join(out, "data.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


# --- quenched-fk ---------------------------------------------------------------

def _check_fk(op, out, summary):
    from hypam.config import MAX_FIELD_SITES
    mean, se = summary["mean"], summary["se"]
    _require(math.isfinite(mean) and math.isfinite(se), "mean or se not finite")
    _require(mean > 0, "mean not positive")
    header, rows = _read_csv(out)
    col = header.index("log_weight")
    lw = [float(r[col]) for r in rows]
    _require(len(lw) == op.params["n_paths"], "log_weight count differs from n_paths")
    _require(all(math.isfinite(v) for v in lw), "non-finite log_weight")
    _require(summary["params"]["n_field_sites"] <= MAX_FIELD_SITES,
             "n_field_sites above MAX_FIELD_SITES")


def _quenched_fk(seed, size):
    return [CliOp(f"fk{i}", "fk",
                  {"sigma2": 0.25, "t": 2.0, "dt": 0.01, "n_paths": size["n_paths"],
                   "mode": "quenched"},
                  seed * size["fk_calls"] + i, _check_fk)
            for i in range(size["fk_calls"])]


# --- field-lattice -------------------------------------------------------------

def _check_clusters(op, out, summary):
    import numpy as np
    header, rows = _read_csv(out)
    data = np.array(rows, dtype=float)
    pts, values = data[:, 1:-1], data[:, -1]
    # -<x, y>_Minkowski = cosh d(x, y); centres are more than one spacing apart
    gram = pts[:, :1] @ pts[:, :1].T - pts[:, 1:] @ pts[:, 1:].T
    np.fill_diagonal(gram, np.inf)
    spacing = op.params["spacing_factor"] * op.params["R0"]
    _require(np.min(gram) > math.cosh(spacing), "packed sites closer than one spacing")
    thr = op.params["delta"] * op.params["t"] ** (2.0 / 3.0)
    super_sites = int(np.sum(values > thr))
    clusters = summary["clusters"]
    _require(sum(c["n_sites"] for c in clusters) == super_sites,
             "clusters do not partition the super-threshold sites")
    for c in clusters:
        at = np.flatnonzero(np.all(pts == np.asarray(c["center"]), axis=1))
        _require(at.size == 1 and values[at[0]] > thr,
                 "cluster centre is not a super-threshold site")


def _check_scan(op, out, summary):
    rows = sorted(summary["rows"], key=lambda r: r["R"])
    exceed = [r["exceedance"]["0.5"] for r in rows]
    _require(all(a >= b for a, b in zip(exceed, exceed[1:])),
             "max-scan exceedance increases with R")


def _field_lattice(seed, size):
    # two packings: the island count, hence build_clusters' cost, varies by seed
    return [
        *(CliOp(f"clusters{i}", "clusters",
                {"delta": 0.5, "t": 3.0, "eta": 5e-4, "lam": 1e-4, "R0": 1.0,
                 "spacing_factor": 0.25, "site_cap": size["cluster_cap"]},
                2 * seed + i, _check_clusters)
          for i in range(2)),
        CliOp("field-max-scan", "field-max-scan",
              {"R_list": "5,10,20", "n_reps": size["scan_reps"],
               "site_cap": size["scan_cap"]},
              seed, _check_scan),
    ]


# --- path-ensemble -------------------------------------------------------------

def _check_exit(op, out, summary):
    fit = summary["fit"]
    _require(fit is not None, "exit fit missing")
    _require(fit["slope"] < 0 and fit["r2"] >= 0.9, "exit fit slope/r2 out of range")
    p = [r["p_hat"] for r in sorted(summary["rows"], key=lambda r: r["R"])]
    _require(all(a > b for a, b in zip(p, p[1:])), "p_hat does not decrease with R")


def _check_bridge(op, out, summary):
    fit = summary["fit"]
    _require(fit is not None, "bridge fit missing")
    _require(summary["kappa_hat"] > 0 and fit["r2"] >= 0.9,
             "bridge kappa_hat/r2 out of range")


def _check_energy(op, out, summary):
    _require(summary["holds"] is True, "energy bound does not hold")


def _annealed_call(n_paths):
    def call(seed):
        from hypam import feynman_kac, field
        spec = field.make_spec(ANNEALED["sigma2"], 1.0)
        return feynman_kac.annealed_moment_estimate(
            spec, ANNEALED["d"], ANNEALED["t"], ANNEALED["dt"], n_paths, seed)
    return call


def _check_annealed(op, est):
    import numpy as np
    lw = np.asarray(est.log_weights)
    # 0 <= C <= sigma2 and the trapezoid weights sum to t
    top = ANNEALED["sigma2"] * ANNEALED["t"] ** 2 / 2.0
    _require(np.all(np.isfinite(lw)) and np.all(lw >= 0.0) and np.all(lw <= top),
             "annealed log-weight outside [0, sigma2 t^2 / 2]")
    return hashlib.sha256(lw.tobytes() + repr(est.mean).encode()).hexdigest()


def _path_ensemble(seed, size):
    return [
        CliOp("exit-check", "exit-check",
              {"R_list": "5,7,9", "t": 2.0, "dt": 0.01, "d": 2,
               "n_paths": size["exit_paths"]},
              seed, _check_exit),
        CliOp("bridge-ldp", "bridge-ldp",
              {"delta": 1.0, "s_list": "0.4,0.2,0.1,0.05",
               "n_paths": size["bridge_paths"]},
              seed, _check_bridge),
        CliOp("energy-bound", "energy-bound",
              {"K": 1.0, "delta": 0.5, "eta": 0.02, "zeta": 0.001, "d": 2},
              seed, _check_energy),
        CallOp("annealed-moment", seed, _annealed_call(size["annealed_paths"]),
               _check_annealed),
    ]


WORKLOADS = {
    "quenched-fk": _quenched_fk,
    "field-lattice": _field_lattice,
    "path-ensemble": _path_ensemble,
}


def operations(workload, seed, scale="full"):
    """The workload's fixed operation sequence for ``seed``."""
    return WORKLOADS[workload](seed, SIZES[workload][scale])
