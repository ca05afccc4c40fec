"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line on success; pytest reports failures per criterion.
The long-time growth limit itself is not reachable at desk scale, so the
gate rests on closed forms, independent oracles and property checks.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats as sps

from hypam import brownian as bm, field as fd, feynman_kac as fk
from hypam import geometry as geo, heatkernel as hk, varopt
from hypam.config import stream
from hypam.varopt import ModelParams

from oracles import (brute_force_reduce, oracle_clusters, oracle_exp_map,
                     oracle_islands, oracle_tangent_step, sample_hitting_times)


def _report(num, text):
    print(f"[PASS] criterion {num:02d}: {text}")


def test_c01_variational_constants():
    start = time.time()
    rng = stream(101, "accept")
    for _ in range(20):
        a = float(rng.uniform(0.1, 10.0))
        params = ModelParams(2, a)          # sigma2 * (d-1) = a
        sol = varopt.optimize_f(params)     # raises if the search disagrees
        assert sol.eps_star == 0.2
        assert abs(sol.K_star - 2 ** (5 / 3) / 5 ** (4 / 3) * a ** (1 / 3)) <= 1e-9
        assert abs(sol.L_star - 3 * 2 ** (4 / 3) / 5 ** (5 / 3) * a ** (2 / 3)) <= 1e-9
        assert sol.grid_gap <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(1, f"variational constants, 20 random strengths in {elapsed:.2f}s")


def test_c02_word_reduction():
    start = time.time()
    assert fk.reduce_word(list("abcabbacbccb")) == list("acb")
    rng = stream(102, "accept")
    for _ in range(10000):
        w = rng.integers(0, rng.integers(1, 9), size=rng.integers(1, 40)).tolist()
        assert fk.reduce_word(w) == brute_force_reduce(w)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, f"word reduction vs brute force, 10^4 words in {elapsed:.2f}s")


def test_c03_inequality_fuzzers(params2):
    start = time.time()
    assert varopt.fuzz_chain_bound(100000, seed=103) == []
    assert varopt.fuzz_hop_inequality(100000, params2, seed=104) == []
    assert varopt.fuzz_ha_mean(100000, seed=105) == []
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"3 x 10^5 inequality fuzz, zero violations in {elapsed:.2f}s")


def test_c04_first_passage():
    val, _ = integrate.quad(lambda s: bm.first_passage_density(1.0, s),
                            0, np.inf, limit=300)
    assert abs(val - 1.0) <= 1e-6
    rng = stream(106, "accept")
    t_max = 100.0
    times = sample_hitting_times(1.0, 5e-3, t_max, 10000, rng)
    hits = times[np.isfinite(times)]
    total = bm.first_passage_cdf(1.0, t_max)

    def cond_cdf(s):
        return bm.first_passage_cdf(1.0, np.maximum(s, 1e-12)) / total

    ks = sps.kstest(hits, cond_cdf)
    assert ks.pvalue > 0.01
    _report(4, f"first-passage density: norm 1, KS p={ks.pvalue:.3f} "
               f"on {hits.size} hitting times")


def test_c05_h3_kernel_suite():
    start = time.time()
    for t in (0.1, 1.0, 5.0):
        hi = 2 * t + 14 * math.sqrt(t) + 14
        val, _ = integrate.quad(lambda r: hk.h3_radial_density(t, max(r, 1e-12)),
                                0, hi, limit=300)
        assert abs(val - 1.0) <= 1e-6
    for t in (0.5, 1.0, 2.0, 5.0):
        for rho in (0.5, 1.0, 3.0, 8.0):
            assert hk.heat_equation_residual(t, rho) <= 1e-4 * hk.exact_h3(t, rho)
    _, x = bm.simulate_bm_batch(3, 1.0, 1e-3, seed=107, n_paths=10000, record=False)
    r = np.arccosh(np.maximum(1.0, x[:, 0]))
    ks = sps.kstest(r, hk.h3_radial_cdf(1.0))
    assert ks.pvalue > 0.01
    cal = hk.calibrate(3)
    assert cal.C2 / cal.C1 <= 100.0
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(5, f"H^3 kernel: norm, residual, radial KS p={ks.pvalue:.3f}, "
               f"sandwich C2/C1={cal.C2 / cal.C1:.2f} in {elapsed:.1f}s")


def test_c06_radial_law_of_large_numbers():
    start = time.time()
    ratios = {}
    for d in (2, 3):
        _, x = bm.simulate_bm_batch(d, 50.0, 0.01, seed=108, n_paths=1000,
                                    record=False)
        r = np.arccosh(np.maximum(1.0, x[:, 0]))
        ratios[d] = float(np.mean(r) / ((d - 1) * 50.0))
        assert 0.9 <= ratios[d] <= 1.1
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, f"radial LLN ratios {ratios} in {elapsed:.1f}s")


def test_c07_exit_time_fit():
    rows = bm.exit_stats(2, [8.0, 10.0, 12.0], 2.0, n_paths=4_000_000,
                         seed=109, dt=0.01)
    assert all(r["hits"] > 0 for r in rows)
    fit = bm.exit_fit(rows)
    assert fit.slope < 0
    assert fit.r2 >= 0.9
    _report(7, f"exit-time fit slope={fit.slope:.4f}, R^2={fit.r2:.4f}")


def test_c08_field_fidelity(spec_unit):
    rng = stream(110, "accept")
    n = 10000
    # 20 pairs at assorted separations inside the support
    base = geo.sample_region(geo.BallRegion(2.0), 2, rng, 20)
    rho = rng.uniform(0.1, 0.95, size=20)
    partner = np.array([
        oracle_exp_map(b, oracle_tangent_step(b, r * _unit(rng, 2)), norm=r)
        for b, r in zip(base, rho)])
    sites = np.vstack([base, partner])
    draws = np.empty((n, 40))
    for i in range(n):
        draws[i] = fd.sample_field(spec_unit, sites, seed=7000 + i).values
    for k in range(20):
        prod = draws[:, k] * draws[:, 20 + k]
        emp = prod.mean()
        se = prod.std() / math.sqrt(n)
        assert abs(emp - spec_unit.cov(rho[k])) <= 4 * se

    far = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
    pair = np.vstack([geo.origin(2), far])
    d2 = np.array([fd.sample_field(spec_unit, pair, seed=90000 + i).values
                   for i in range(n)])
    corr = np.corrcoef(d2.T)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(n)

    tilt_sites = np.vstack([geo.origin(2)[None, :],
                            geo.sample_region(geo.BallRegion(1.2), 2, rng, 5)])
    tv = np.array([fd.tilted_sample(spec_unit, tilt_sites, 2.0, seed=50000 + i)
                   .values[0] for i in range(n)])
    assert abs(tv.mean() - 2.0) <= 4 * tv.std() / math.sqrt(n)
    _report(8, "field fidelity: 20-pair covariance, long-range zero, tilt mean")


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_c09_extremes(spec_unit):
    rows = fd.max_scan(spec_unit, 2, [5.0, 10.0, 20.0], spacing=0.25,
                       n_reps=48, seed=111, site_cap=1024)
    for r in rows:
        _, ok = fd.borell_bound_check(r.maxima, 1.0)
        assert ok
    exc = [r.exceedance[0.5] for r in rows]
    assert exc[0] > 0
    assert all(exc[i] >= exc[i + 1] for i in range(len(exc) - 1))
    assert exc[-1] < exc[0]
    _report(9, f"extremes: Borell bound holds, exceedance trend {exc}")


def test_c10_cluster_oracles(spec_unit):
    rng = stream(112, "accept")
    n_done = 0
    for trial in range(100):
        n = int(rng.integers(50, 501))
        sites = geo.sample_region(geo.BallRegion(3.0), 2, rng, n)
        f = fd.FieldRealization(spec_unit, sites, rng.normal(0.0, 1.0, n), 2)
        t_par = float(rng.uniform(0.5, 2.0))
        delta = float(rng.uniform(0.2, 0.8))
        isl = fd.detect_islands(f, delta, t_par, h=0.25)
        assert sorted(isl.islands) == oracle_islands(f, delta, t_par, 0.25)
        if len(isl) > 0:
            eta = float(rng.uniform(0.05, 0.4))
            cl = fd.build_clusters(isl, eta, t_par)
            got = sorted(sorted(c.site_indices) for c in cl.clusters)
            assert got == oracle_clusters(isl, eta, t_par)
        n_done += 1
    L, eta_delta = fd.cluster_constants(1.0, 2, 1.0, 1.0)
    assert abs(L - 2.02) <= 1e-9
    assert abs(eta_delta - 0.0275) <= 5e-5
    _report(10, f"islands/clusters match oracles on {n_done} instances; "
                f"constants (2.02, 0.0275) reproduced")


def test_c11_feynman_kac(spec_quarter):
    start = time.time()
    const = fk.fk_estimate(0.8, 2, 1.25, 0.01, 32, seed=113)
    assert abs(const.mean - math.exp(0.8 * 1.25)) <= 1e-12
    assert const.variance <= (1e-13 * const.mean) ** 2   # zero at double precision
    zero = fk.fk_estimate(0.8, 2, 0.0, 0.01, 8, seed=113)
    assert zero.mean == 1.0

    oracle = fk.annealed_moment_estimate(spec_quarter, 2, 1.0, 0.01, 2000, seed=114)
    n_fields, n_paths = 32, 32
    means = np.array([
        fk.fk_estimate(spec_quarter, 2, 1.0, 0.01, n_paths, seed=5000 + k).mean
        for k in range(n_fields)])
    lhs = means.mean()
    se = means.std(ddof=1) / math.sqrt(n_fields)
    comb = math.hypot(se, oracle.se)
    assert abs(lhs - oracle.mean) <= 3 * comb
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(11, f"Feynman-Kac: e^ct exact, u(0)=1, annealed cross-check "
                f"|{lhs:.4f}-{oracle.mean:.4f}| <= 3x{comb:.4f} in {elapsed:.1f}s")


def test_c12_localized_lower_bound():
    center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
    grid = [
        dict(eps=0.2, K=4.0, delta_tube=0.6, r_peak=0.6, height=1.5),
        dict(eps=0.2, K=4.0, delta_tube=1.0, r_peak=0.8, height=2.0),
        dict(eps=0.3, K=4.0, delta_tube=0.8, r_peak=0.8, height=2.0),
        dict(eps=0.3, K=6.0, delta_tube=1.2, r_peak=1.0, height=3.0),
        dict(eps=0.4, K=4.0, delta_tube=0.8, r_peak=0.6, height=2.0),
        dict(eps=0.4, K=6.0, delta_tube=1.5, r_peak=1.2, height=1.0),
        dict(eps=0.5, K=4.0, delta_tube=1.0, r_peak=0.8, height=2.5),
        dict(eps=0.5, K=6.0, delta_tube=1.2, r_peak=1.0, height=2.0),
        dict(eps=0.6, K=4.0, delta_tube=1.0, r_peak=1.0, height=1.5),
        dict(eps=0.6, K=6.0, delta_tube=1.5, r_peak=1.5, height=2.0),
    ]
    for k, cfg in enumerate(grid):
        pot = fk.PlantedPeakPotential(center, cfg["height"], 1.0)
        full = fk.fk_estimate(pot, 2, 1.0, 0.01, 250, seed=600 + k)
        loc = fk.fk_localized_lower(pot, 2, 1.0, cfg["eps"], cfg["K"],
                                    cfg["delta_tube"], center, seed=600 + k,
                                    n_paths=250, r_peak=cfg["r_peak"], dt=0.01)
        assert loc.mean <= full.mean + 3 * math.hypot(loc.se, full.se)
    pot = fk.PlantedPeakPotential(center, 2.0, 1.0)
    full = fk.fk_estimate(pot, 2, 1.0, 0.01, 250, seed=699)
    vac = fk.fk_localized_lower(pot, 2, 1.0, 0.3, np.inf, np.inf, center,
                                seed=699, n_paths=250, r_peak=np.inf, dt=0.01)
    assert np.isclose(vac.mean, full.mean)
    _report(12, "localized lower bound <= plain estimate on 10-config grid; "
                "vacuous events recover the plain estimate")


def test_c13_ldp_suite():
    rep = bm.energy_excess_check(1.0, 0.5, 0.02, 0.001)
    assert rep.min_energy >= rep.bound - 1e-2
    x = geo.origin(3)
    y = geo.point_at(3, 1.0, np.array([1.0, 0.0, 0.0]))
    # tube width chosen so the event decays visibly on the pinned s-grid
    rows, fit = bm.bridge_ldp_decay(x, y, 1.0, [0.4, 0.2, 0.1, 0.05],
                                    n_paths=4000, seed=116)
    kappa = -fit.slope
    assert kappa > 0
    assert fit.r2 >= 0.9
    _report(13, f"energy excess {rep.min_energy:.3f} >= {rep.bound:.3f} - 1e-2; "
                f"bridge decay kappa={kappa:.3f}, R^2={fit.r2:.3f}")


def test_c14_upper_bound_machinery():
    p = ModelParams(2, 1.0)
    mu = 1.05 * p.mu0
    K0 = 40.0
    delta = mu * math.sqrt(38.0)
    c_hat = 1.01 * 2 * 1 * K0 / (0.2 * delta ** 2)
    alpha, eta, lam = 0.05, 2.0, 0.05
    consts, err_fn = varopt.route_constants(eta, lam, delta, K0, p, c_hat,
                                            alpha=alpha, mu=mu)
    rng = stream(117, "accept")
    for _ in range(1000):
        g = fk.synthetic_route_geometry(rng, 20.0, lam, delta, mu, K0, consts)
        rep = fk.route_budget(g, 20.0, alpha, mu, p, lam, eta, delta, K0, c_hat)
        assert rep.trian_holds
        assert rep.hat_bound_holds
        assert rep.f_style_value <= rep.main_term + 1e-9

    j_vals = [fk.j_error_integral(t, 3, lam, delta, alpha, mu, K0, err_fn(t))
              for t in (10.0, 20.0, 40.0)]
    assert j_vals[0] > j_vals[1] > j_vals[2]

    thr = fk.long_route_threshold(p, 2.0)
    below = fk.long_route_tail(thr * (1 - 1e-9) / 5, 5, 10.0, p, 2.0)
    above = fk.long_route_tail(thr * (1 + 1e-9) / 5, 5, 10.0, p, 2.0)
    at = fk.long_route_tail(thr / 4, 4, 10.0, p, 2.0)
    assert below.exponent < 0 < above.exponent
    assert abs(at.exponent) <= 1e-9
    _report(14, f"route fuzz 10^3 clean; J decreasing {[round(v, 1) for v in j_vals]}; "
                f"long-route exponent flips at eta*N={thr:.4f}")
