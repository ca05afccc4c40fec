#!/usr/bin/env python3
"""Print one sha256 of ``data.csv`` + ``summary.json`` per fixed same-seed run.

Runs a fixed list of small ``hypam`` CLI calls, each with every parameter that
matters passed explicitly, in a temporary directory.  Run it on two checkouts
and diff the output to check that a change keeps same-seed results
byte-identical.  The script runs BLAS on one thread whatever the environment
says, as the outputs depend on the thread count::

    PYTHONPATH=src python scripts/same_seed_digest.py > before.txt
    # ... switch checkout ...
    PYTHONPATH=src python scripts/same_seed_digest.py > after.txt
    diff before.txt after.txt
"""

import hashlib
import os
import sys
import tempfile

# set before numpy loads: OpenBLAS reads them once, at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypam import cli  # noqa: E402

# (name, subcommand, --set pairs, seed)
CALLS = [
    ("fk-quenched", "fk",
     {"sigma2": 0.25, "t": 1.0, "dt": 0.01, "n_paths": 24, "mode": "quenched"}, 3),
    # the farthest paths pass radius 8, deep in the Poincare ball's rim
    ("fk-quenched-t4", "fk",
     {"sigma2": 0.25, "t": 4.0, "dt": 0.01, "n_paths": 20, "mode": "quenched"}, 3),
    # a three-dimensional lazy lattice large enough to hit the 96-site
    # conditioning cap and to thin new sites greedily in d = 3
    ("fk-quenched-d3", "fk",
     {"d": 3, "sigma2": 0.25, "t": 1.0, "dt": 0.01, "n_paths": 24,
      "mode": "quenched"}, 3),
    # the benchmark's quenched shape
    ("fk-quenched-bench", "fk",
     {"sigma2": 0.25, "t": 2.0, "dt": 0.01, "n_paths": 60, "mode": "quenched"}, 6004),
    # about 1600 sites in d = 3: the lazy field's neighbour index rebuilds
    # its k-d tree a dozen times and scans a tail in between
    ("fk-quenched-d3-long", "fk",
     {"d": 3, "sigma2": 0.25, "t": 2.0, "dt": 0.01, "n_paths": 24,
      "mode": "quenched"}, 7),
    ("fk-annealed", "fk",
     {"sigma2": 0.25, "t": 1.0, "dt": 0.01, "n_paths": 32, "mode": "annealed"}, 3),
    ("fk-localized", "fk-localized",
     {"t": 1.0, "dt": 0.01, "n_paths": 200, "eps": 0.2, "K": 1.0,
      "delta_tube": 1.0, "r_peak": 1.0, "peak_height": 2.0,
      "peak_distance": 1.5}, 5),
    ("fk-localized-accepting", "fk-localized",
     {"t": 1.0, "dt": 0.01, "n_paths": 300, "eps": 0.25, "K": 4.0,
      "delta_tube": 1.2, "r_peak": 1.0}, 5),
    # accepted weights near 1e235, whose squares overflow: se from the
    # scaled log-weights keeps summary.json strict JSON
    ("fk-localized-large-weights", "fk-localized",
     {"t": 1.0, "dt": 0.01, "n_paths": 300, "eps": 0.25, "K": 4.0,
      "delta_tube": 1.2, "r_peak": 1.0, "peak_height": 1200.0,
      "peak_distance": 1.5}, 5),
    ("clusters", "clusters",
     {"delta": 0.5, "t": 3.0, "eta": 5e-4, "lam": 1e-4, "R0": 1.0,
      "spacing_factor": 0.25, "site_cap": 512}, 2),
    # the benchmark's field-lattice size: a few hundred islands to group
    ("clusters-2048", "clusters",
     {"delta": 0.5, "t": 3.0, "eta": 5e-4, "lam": 1e-4, "R0": 1.0,
      "spacing_factor": 0.25, "site_cap": 2048}, 3),
    ("field-max-scan", "field-max-scan",
     {"R_list": "5,10", "n_reps": 8, "site_cap": 256}, 1),
    # rim-radius packings and a 1024-site covariance assembly
    ("field-max-scan-1024", "field-max-scan",
     {"R_list": "5,10,20", "n_reps": 8, "site_cap": 1024}, 1),
    # a three-dimensional one-shot lattice: packing, covariance and factor
    # in d = 3
    ("field-max-scan-d3", "field-max-scan",
     {"d": 3, "R_list": "2,4", "n_reps": 8, "site_cap": 256}, 1),
    ("exit-check", "exit-check",
     {"R_list": "5,7,9", "t": 2.0, "dt": 0.01, "d": 2, "n_paths": 20000}, 1),
    # the radial SDE with drift 2 coth(r)
    ("exit-check-d3", "exit-check",
     {"R_list": "5,7,9", "t": 2.0, "dt": 0.01, "d": 3, "n_paths": 20000}, 1),
    # a two-point fit: its infinite interval is written as null
    ("exit-check-two-radii", "exit-check",
     {"R_list": "5,7", "t": 2.0, "dt": 0.01, "d": 2, "n_paths": 20000}, 1),
    ("bridge-ldp", "bridge-ldp",
     {"delta": 1.0, "s_list": "0.4,0.2,0.1", "n_paths": 200}, 1),
    # the benchmark's bridge shape: 800 paths of 16-candidate fans, s down
    # to 0.05
    ("bridge-ldp-bench", "bridge-ldp",
     {"delta": 1.0, "s_list": "0.4,0.2,0.1,0.05", "n_paths": 800}, 1),
    ("route-budget", "route-budget",
     {"K0": 40.0, "alpha": 0.05, "mu_factor": 1.05, "delta": 9.1537,
      "C_R0_hat": 4.8216, "eta": 2.0, "lam": 0.05, "t": 20.0, "n_reps": 8}, 7),
    ("optimize", "optimize", {"d": 3, "sigma2": 0.5}, 1),
    ("radial-check", "radial-check",
     {"d": 2, "t": 1.0, "dt": 0.01, "n_paths": 200}, 4),
    ("energy-bound", "energy-bound",
     {"K": 1.0, "delta": 0.5, "eta": 0.02, "zeta": 0.001, "d": 2}, 115),
    # the closed-form minimum depends on neither d nor the seed, so this
    # digest equals energy-bound's; a change that makes them differ shows here
    ("energy-bound-d3", "energy-bound",
     {"K": 1.0, "delta": 0.5, "eta": 0.02, "zeta": 0.001, "d": 3}, 115),
    ("hk-calibrate", "hk-calibrate", {"d": 3, "n_paths": 1000}, 1),
    ("hk-calibrate-d2", "hk-calibrate", {"d": 2}, 1),
    ("long-route-tail", "long-route-tail",
     {"eta": 2.0, "t": 4.0, "K0": 2.0, "N_hops": 6}, 1),
]


def digest(out):
    h = hashlib.sha256()
    for fname in ("data.csv", "summary.json"):
        with open(os.path.join(out, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, sub, params, seed in CALLS:
            out = os.path.join(tmp, name)
            argv = [sub, "--seed", str(seed), "--out", out]
            for key, val in params.items():
                argv += ["--set", f"{key}={val!r}" if isinstance(val, float)
                         else f"{key}={val}"]
            rc = cli.main(argv)
            if rc != 0:
                print(f"{name} exit-code-{rc}")
                status = 1
                continue
            print(f"{name} {digest(out)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
