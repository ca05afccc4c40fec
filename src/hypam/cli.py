"""Experiment harness: config parsing, dispatch, manifests, CSV/JSON output.

Every run resolves a flat key-value config from its command line alone
(defaults, ``--config`` file, each ``--set``, then ``--seed`` and ``--out``,
each applying exactly the keys it gives), checks the keys all subcommands
share, runs the subcommand, which checks those only it reads, and only then
writes ``manifest.cfg``, ``data.csv`` and ``summary.json``.  Identical config
and seed give byte-identical outputs; re-running a manifest reproduces them.

Exit codes: 0 success, 2 constraint violation (a region too small to pack
included) or config error (a ``subcommand`` override included), 3 budget
exceeded, a failed covariance factorisation, heat-kernel calibration or
cross-check of the variational optimum, or a NaN or infinity in the summary.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (BudgetExceeded, ConstraintViolation, FactorizationError,
                     RunConfig, _parse_item, format_config, parse_config,
                     stream)
from . import brownian, field, feynman_kac, heatkernel, varopt
from . import geometry as geo


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _json_text(obj):   # strict JSON: a NaN or an infinity raises ValueError
    return json.dumps(obj, sort_keys=True, indent=2, default=_json_default,
                      allow_nan=False) + "\n"


def write_json(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


# --- subcommand implementations ----------------------------------------------
#
# Each run_* maps a validated config to (header, rows, summary); run() writes
# them out as data.csv and summary.json.

def _params(cfg):
    return varopt.ModelParams(cfg.d, cfg.sigma2)


def run_optimize(cfg):
    sol = varopt.optimize_f(_params(cfg))
    return (["eps_star", "K_star", "L_star"],
            [[sol.eps_star, sol.K_star, sol.L_star]],
            {"eps_star": sol.eps_star, "K_star": sol.K_star,
             "L_star": sol.L_star,
             "checks": {"grid_gap": sol.grid_gap,
                        "gradient_norm": sol.gradient_norm}})


def run_field_max_scan(cfg):
    spec = field.make_spec(cfg.sigma2, cfg.R0, cfg.kernel_shape, cfg.d)
    rows = field.max_scan(spec, cfg.d, cfg.r_values(),
                          spacing=cfg.spacing_factor * cfg.R0,
                          n_reps=cfg.n_reps, seed=cfg.seed,
                          site_cap=cfg.site_cap)
    return (["R", "n_sites", "maximal", "mean_max", "max_max",
             "exceedance_eps0.5"],
            [[r.R, r.n_sites, r.maximal, r.mean_max, r.max_max,
              r.exceedance[0.5]] for r in rows],
            {"rows": [{"R": r.R, "n_sites": r.n_sites,
                       "mean_max": r.mean_max, "max_max": r.max_max,
                       "exceedance": {str(k): v for k, v in r.exceedance.items()}}
                      for r in rows],
             "spacing": cfg.spacing_factor * cfg.R0, "n_reps": cfg.n_reps})


def _check_t(t, *exponents):
    """Refuse a t that is not positive or whose t ** e overflows, e in exponents."""
    if not t > 0:
        raise ConstraintViolation(f"t must be positive (got t={t})")
    for e in exponents:
        try:
            t ** e
        except OverflowError:
            raise ConstraintViolation(f"t^{e:.4g} overflows (got t={t})") from None


def run_clusters(cfg):
    _check_t(cfg.t, 4.0 / 3.0)
    _, eta_delta = field.cluster_constants(cfg.delta, cfg.d, cfg.K0, cfg.C_R0_hat)
    if not cfg.eta < eta_delta:
        raise ConstraintViolation("eta must lie below the admissible cluster threshold "
                                  f"eta_delta={eta_delta:.6g} (got eta={cfg.eta})")
    spec = field.make_spec(cfg.sigma2, cfg.R0, cfg.kernel_shape, cfg.d)
    spacing = cfg.spacing_factor * cfg.R0
    region = geo.BallRegion(min(cfg.K0 * cfg.t ** (4.0 / 3.0), 6.0))
    packing = geo.greedy_packing(region, spacing / 2.0, cfg.d, seed=cfg.seed,
                                 max_centers=cfg.site_cap)
    f = field.sample_field(spec, packing.centers, seed=cfg.seed)
    islands = field.detect_islands(f, cfg.delta, cfg.t, h=spacing)
    clusters = field.build_clusters(islands, cfg.eta, cfg.t)
    return (["site_id"] + [f"x{i}" for i in range(cfg.d + 1)] + ["value"],
            [[i] + list(p) + [v] for i, (p, v) in enumerate(zip(f.sites, f.values))],
            clusters.report())


def run_radial_check(cfg):
    times, pts = brownian.simulate_bm_batch(cfg.d, cfg.t, cfg.dt, cfg.seed,
                                            cfg.n_paths)
    radii = geo.radius(pts[-1])
    traj = brownian.Trajectory(times, pts[:, 0, :], cfg.d)
    return (["time"] + [f"x{i}" for i in range(cfg.d + 1)],
            [[t] + list(p) for t, p in zip(traj.times, traj.points)],
            {"mean_radius": float(np.mean(radii)),
             "ratio": (float(np.mean(radii) / ((cfg.d - 1) * cfg.t))
                       if cfg.t > 0 else None),
             "n_paths": cfg.n_paths, "t": cfg.t, "dt": cfg.dt,
             "max_step_ratio": traj.max_step_ratio()})


def run_exit_check(cfg):
    rows = brownian.exit_stats(cfg.d, cfg.r_values(), cfg.t, cfg.n_paths,
                               cfg.seed, dt=cfg.dt)
    try:
        fit = brownian.exit_fit(rows).to_dict()
    except ConstraintViolation:
        fit = None
    return (["R", "t", "n", "hits", "p_hat", "ci_lo", "ci_hi"],
            [[r["R"], r["t"], r["n"], r["hits"], r["p_hat"],
              r["ci_lo"], r["ci_hi"]] for r in rows],
            {"rows": rows, "fit": fit})


def run_bridge_ldp(cfg):
    d = 3
    x = geo.origin(d)
    y = geo.point_at(d, 1.0, np.array([1.0, 0.0, 0.0]))
    rows, fit = brownian.bridge_ldp_decay(x, y, cfg.delta, cfg.s_values(),
                                          cfg.n_paths, cfg.seed)
    return (["s", "p_hat", "hits", "n", "ci_lo", "ci_hi"],
            [[r["s"], r["p_hat"], r["hits"], r["n"], r["ci_lo"], r["ci_hi"]]
             for r in rows],
            {"rows": rows, "fit": fit.to_dict() if fit else None,
             "kappa_hat": -fit.slope if fit and np.isfinite(fit.r2) else None})


def run_energy_bound(cfg):
    rep = brownian.energy_excess_check(cfg.K, cfg.delta, cfg.eta, cfg.zeta)
    return (["min_energy", "bound", "holds"],
            [[rep.min_energy, rep.bound, rep.holds]],
            {"min_energy": rep.min_energy, "bound": rep.bound,
             "holds": rep.holds, "constraints_ok": rep.constraints_ok,
             "base_distance": rep.base_distance,
             "endpoint_slack": rep.endpoint_slack, "deviation": rep.deviation})


def run_hk_calibrate(cfg):
    cal = heatkernel.calibrate(cfg.d)
    return (["d", "C1", "C2"], [[cal.d, cal.C1, cal.C2]],
            {"d": cal.d, "C1": cal.C1, "C2": cal.C2,
             "grid_spec": cal.grid_spec})


def _fk_output(est):
    """One data row per path, and the estimate's summary."""
    return (["path_id", "log_weight", "accepted", "route_word"],
            [[i, lw, bool(acc), ""]
             for i, (lw, acc) in enumerate(zip(est.log_weights, est.accepted))],
            est.summary())


def run_fk(cfg):
    spec = field.make_spec(cfg.sigma2, cfg.R0, cfg.kernel_shape, cfg.d)
    return _fk_output(feynman_kac.fk_estimate(
        spec, cfg.d, cfg.t, cfg.dt, cfg.n_paths, cfg.seed, mode=cfg.mode))


def run_fk_localized(cfg):
    # a negative distance would put the peak on the -e1 ray; past far_peak,
    # squaring its cosh coordinate overflows
    far_peak = float(np.arccosh(np.sqrt(np.finfo(float).max)))
    if not 0 <= cfg.peak_distance <= far_peak:
        raise ConstraintViolation("peak_distance must be nonnegative and at most "
                                  f"{far_peak:.6g} (got {cfg.peak_distance})")
    center = geo.point_at(cfg.d, cfg.peak_distance, np.eye(cfg.d)[0])
    potential = feynman_kac.PlantedPeakPotential(center, cfg.peak_height,
                                                 width=cfg.R0)
    return _fk_output(feynman_kac.fk_localized_lower(
        potential, cfg.d, cfg.t, cfg.eps, cfg.K, cfg.delta_tube, center,
        cfg.seed, cfg.n_paths, r_peak=cfg.r_peak, dt=cfg.dt))


def run_route_budget(cfg):
    if not cfg.mu_factor > 0:
        raise ConstraintViolation("mu_factor must be positive "
                                  f"(got mu_factor={cfg.mu_factor})")
    _check_t(cfg.t, 5.0 / 3.0, -5.0 / 3.0)   # the extreme powers routes take
    params = _params(cfg)
    mu = cfg.mu_factor * params.mu0
    consts, _ = varopt.route_constants(cfg.eta, cfg.lam, cfg.delta, cfg.K0,
                                       params, cfg.C_R0_hat,
                                       alpha=cfg.alpha, mu=mu)
    rng = stream(cfg.seed, "route-fuzz")
    rows = []
    for i in range(cfg.n_reps):
        geom = feynman_kac.synthetic_route_geometry(
            rng, cfg.t, cfg.lam, cfg.delta, mu, cfg.K0, consts)
        rep = feynman_kac.route_budget(geom, cfg.t, cfg.alpha, mu, params,
                                       cfg.lam, cfg.eta, cfg.delta, cfg.K0,
                                       cfg.C_R0_hat)
        rows.append([i, rep.m, rep.m_reduced, rep.k_star, rep.trian_holds,
                     rep.hat_bound_holds, rep.f_style_value, rep.main_term,
                     rep.log_bound])
    n_bad = sum(1 for r in rows if not (r[4] and r[5] and r[6] <= r[7] + 1e-9))
    return (["geometry_id", "m", "m_reduced", "k_star", "trian_holds",
             "hat_bound_holds", "f_style_value", "main_term", "log_bound"],
            rows,
            {"n_geometries": len(rows), "n_violations": n_bad,
             "main_term": rows[0][7] if rows else None})


def run_long_route_tail(cfg):
    params = _params(cfg)
    rows = []
    for N in range(1, cfg.N_hops + 1):
        rep = feynman_kac.long_route_tail(cfg.eta, N, cfg.t, params, cfg.K0)
        rows.append([N, rep.log_F, rep.exponent, rep.log_bound])
    return (["N", "log_F", "exponent", "log_bound"], rows,
            {"threshold_etaN": feynman_kac.long_route_threshold(params, cfg.K0),
             "rows": [{"N": r[0], "log_F": r[1], "exponent": r[2],
                       "log_bound": r[3]} for r in rows]})


SUBCOMMANDS = {
    "optimize": run_optimize,
    "field-max-scan": run_field_max_scan,
    "clusters": run_clusters,
    "radial-check": run_radial_check,
    "exit-check": run_exit_check,
    "bridge-ldp": run_bridge_ldp,
    "energy-bound": run_energy_bound,
    "hk-calibrate": run_hk_calibrate,
    "fk": run_fk,
    "fk-localized": run_fk_localized,
    "route-budget": run_route_budget,
    "long-route-tail": run_long_route_tail,
}


def run(subcommand, cfg):
    """Dispatch one subcommand; returns the process exit status."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand: {subcommand}", file=sys.stderr)
        return 2
    try:
        cfg.validate()
        header, rows, summary = SUBCOMMANDS[subcommand](cfg)
    except ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, FactorizationError, heatkernel.CalibrationFailed,
            varopt.CrossCheckFailed) as exc:
        print(f"budget exceeded or numerical failure: {exc}", file=sys.stderr)
        return 3
    try:
        text = _json_text(summary)
    except ValueError as exc:
        print(f"numerical failure: summary is not strict JSON: {exc}", file=sys.stderr)
        return 3
    # written only after a successful run, so a failed run into a reused
    # --out leaves the previous run's three files together
    try:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "manifest.cfg"), "w") as fh:
            fh.write(format_config(cfg, subcommand))
        write_csv(os.path.join(cfg.out, "data.csv"), header, rows)
        write_json(os.path.join(cfg.out, "summary.json"), text)
    except OSError as exc:
        print(f"config error: cannot write --out {cfg.out!r}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hypam",
        description="Simulation lab for the parabolic Anderson model on H^d")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="single config override")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg, manifest_sub = parse_config(fh.read(), path=args.config)
            if manifest_sub is not None and manifest_sub != args.subcommand:
                raise ValueError(f"manifest subcommand {manifest_sub!r} does "
                                 f"not match {args.subcommand!r}")
        else:
            cfg = RunConfig()
        pairs = dict(_parse_item(item, "--set") for item in args.set)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    pairs.update((key, val) for key, val in (("seed", args.seed), ("out", args.out))
                 if val is not None)
    return run(args.subcommand, replace(cfg, **pairs))


if __name__ == "__main__":
    sys.exit(main())
