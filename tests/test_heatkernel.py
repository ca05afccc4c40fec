import numpy as np
import pytest
from scipy import integrate, stats as sps

from hypam import brownian as bm, geometry as geo, heatkernel as hk

from oracles import (bridge_marginal, bridge_marginal_normalization,
                     oracle_exp_map, oracle_log_exact_h2, oracle_log_exact_h3,
                     oracle_radial_histogram, oracle_tangent_step)


def test_comparison_d3_reduction():
    # (1 + rho + t)^((d-3)/2) is identically 1 in three dimensions
    for t, rho in [(0.3, 0.0), (1.0, 2.5), (4.0, 11.0)]:
        manual = t ** -1.5 * np.exp(-t - rho ** 2 / (4 * t) - rho) * (1 + rho)
        assert abs(np.exp(hk.log_comparison_fn(t, rho, 3)) - manual) < 1e-12 * manual


def test_comparison_monotone_rho_d_ge_3():
    # decreasing in rho for t >= 1 from three dimensions up (fails at d = 2
    # near rho = 0 where the polynomial factor wins)
    for d in (3, 4):
        for t in (1.0, 2.0, 5.0):
            rho = np.linspace(0.0, 15.0, 400)
            q = np.exp(hk.log_comparison_fn(t, rho, d))
            assert np.all(np.diff(q) < 1e-15)


def test_exact_h3_normalization():
    for t in (0.1, 1.0, 5.0):
        hi = 2 * t + 14 * np.sqrt(t) + 14
        val, _ = integrate.quad(lambda r: hk.h3_radial_density(t, max(r, 1e-12)),
                                0, hi, limit=300)
        assert abs(val - 1.0) < 1e-6


def test_exact_h3_euclidean_limit():
    t, rho = 1e-4, 1e-3
    euclid = (4 * np.pi * t) ** -1.5 * np.exp(-rho ** 2 / (4 * t))
    assert abs(hk.exact_h3(t, rho) / euclid - 1.0) < 1e-3


def test_exact_h3_symmetry_in_rho_only():
    assert hk.exact_h3(0.7, 1.3) == hk.exact_h3(0.7, 1.3)
    x = geo.point_at(3, 1.3, np.array([1.0, 0, 0]))
    y = geo.origin(3)
    rho = geo.distance(x, y)
    assert abs(hk.exact_h3(0.7, rho) - hk.exact_h3(0.7, geo.distance(y, x))) == 0.0


def test_log_exact_h3_matches_two_branch_oracle():
    # the far form of log sinh, now evaluated only where rho >= 20 selects
    # it, keeps every bit on both sides of each switch
    rho = np.array([0.0, 1e-9, 1e-8, 19.99, 20.0, 25.0, 50.0])
    for t in (0.01, 0.5, 3.0):
        assert np.array_equal(hk.log_exact_h3(t, rho), oracle_log_exact_h3(t, rho))
        for r in rho:
            assert np.array_equal(hk.log_exact_h3(t, r), oracle_log_exact_h3(t, r))
    tt = np.array([[0.5], [2.0]])
    assert np.array_equal(hk.log_exact_h3(tt, rho), oracle_log_exact_h3(tt, rho))


def test_heat_equation_residual_grid():
    for t in (0.5, 1.0, 2.0, 5.0):
        for rho in (0.5, 1.0, 3.0, 8.0):
            p = hk.exact_h3(t, rho)
            assert hk.heat_equation_residual(t, rho) <= 1e-4 * p


def test_calibrate_exact_d3():
    cal = hk.calibrate(3)
    assert 0 < cal.C1 <= cal.C2
    assert cal.C2 / cal.C1 <= 100.0


def test_calibrate_exact_d2_matches_direct_form():
    # the full default grid, every ratio from McKean's kernel against the
    # direct-form oracle: the same extremes to 1e-9, deterministically
    t_grid = np.geomspace(0.1, 10.0, 25)
    rho_grid = np.linspace(0.0, 20.0, 81)
    cal = hk.calibrate(2)
    assert cal.grid_spec == {"t": [0.1, 10.0, 25], "rho": [0.0, 20.0, 81],
                             "reference": "exact"}
    tt, rr = np.meshgrid(t_grid, rho_grid, indexing="ij")
    oracle = np.vectorize(oracle_log_exact_h2)(tt, rr)
    ratios = np.exp(oracle - hk.log_comparison_fn(tt, rr, 2))
    assert abs(cal.C1 / ratios.min() - 1.0) < 1e-9
    assert abs(cal.C2 / ratios.max() - 1.0) < 1e-9
    assert hk.calibrate(2) == cal


def test_calibrate_d2_within_histogram_error():
    # the radial SDE's histogram is the independent estimate of the kernel:
    # the exact ratios to the profile sit within 4 binomial standard errors
    # of it in every bin with at least 50 samples (the profile cancels)
    edges = np.linspace(0.0, 6.0, 25)
    for it, t in enumerate([0.5, 1.0]):
        mids, p_hat, se = oracle_radial_histogram(2, t, edges, n_paths=100000,
                                                  dt=2e-3, seed=5, stream_id=it)
        assert mids.size >= 15
        q = np.exp(hk.log_comparison_fn(t, mids, 2))
        exact = np.exp(hk.log_exact_h2(t, mids))
        assert np.all(np.abs(exact / q - p_hat / q) <= 4.0 * se / q)


def test_exact_h2_normalization():
    for t in (0.1, 1.0, 5.0):
        hi = 2 * t + 14 * np.sqrt(t) + 14
        val, _ = integrate.quad(
            lambda r: np.exp(hk.log_exact_h2(t, r)) * 2 * np.pi * np.sinh(r),
            0, hi, epsabs=0.0, epsrel=1e-12, limit=300)
        assert abs(val - 1.0) < 1e-10


def test_log_exact_h2_matches_direct_form():
    for t, rho in [(0.3, 0.5), (1.0, 2.5), (4.0, 11.0)]:
        assert abs(hk.log_exact_h2(t, rho) - oracle_log_exact_h2(t, rho)) < 1e-10


def test_log_exact_h2_broadcasts():
    tt = np.array([[0.5], [2.0]])
    rho = np.array([0.0, 1e-9, 0.7, 30.0])
    out = hk.log_exact_h2(tt, rho)
    assert out.shape == (2, 4) and np.all(np.isfinite(out))
    assert out[1, 2] == hk.log_exact_h2(2.0, 0.7)
    # smooth and even in rho: no jump between rho = 0 and rho = 1e-9
    assert np.allclose(out[:, 0], out[:, 1], rtol=0.0, atol=1e-12)


def test_heat_equation_residual_grid_h2():
    for t in (0.5, 1.0, 2.0, 5.0):
        for rho in (0.5, 1.0, 3.0, 8.0):
            p = np.exp(hk.log_exact_h2(t, rho))
            assert hk.heat_equation_residual(t, rho, 2) <= 1e-6 * p


def test_recursion_from_gaussian_gives_h3():
    # p_3 = -e^(-t) / (2 pi sinh rho) d/drho p_1 with the 1-D Gaussian
    # p_1 = (4 pi t)^(-1/2) e^(-rho^2/(4t)), its derivative by central
    # differences
    def p1(t, rho):
        return (4 * np.pi * t) ** -0.5 * np.exp(-rho ** 2 / (4 * t))

    h = 1e-4
    for t in (0.2, 1.0, 4.0):
        for rho in (0.3, 1.0, 3.0, 7.0):
            dp1 = (p1(t, rho - 2 * h) - 8 * p1(t, rho - h)
                   + 8 * p1(t, rho + h) - p1(t, rho + 2 * h)) / (12 * h)
            p3 = -np.exp(-t) / (2 * np.pi * np.sinh(rho)) * dp1
            assert abs(np.log(p3) - hk.log_exact_h3(t, rho)) < 1e-8


class TestBridgeMarginal:
    def test_requires_d3(self):
        x = geo.origin(4)
        with pytest.raises(hk.KernelUnavailable):
            bridge_marginal(0.0, x, 1.0, x, 0.5, x, d=4)
        # d = 2 has McKean's kernel
        x = geo.origin(2)
        q = geo.point_at(2, 1.0, np.array([1.0, 0.0]))
        y = geo.point_at(2, 0.4, np.array([0.0, 1.0]))
        val = bridge_marginal(0.0, x, 1.0, q, 0.5, y, d=2)
        assert np.isfinite(val) and val > 0

    def test_normalizes(self):
        val = bridge_marginal_normalization(0.0, 0.2, 0.1, D=1.0,
                                            n_r=600, n_theta=300)
        assert abs(val - 1.0) < 1e-3

    def test_argmax_on_geodesic(self):
        x = geo.origin(3)
        q = geo.point_at(3, 1.0, np.array([1.0, 0, 0]))
        tau = 0.35
        base = geo.geodesic_point(x, q, tau)
        frame = np.array([0.0, 0.0, 1.0])   # transverse direction at the axis
        offsets = np.linspace(-0.5, 0.5, 41)
        dens = []
        for w in offsets:
            step = oracle_tangent_step(base, np.array([0.0, w, 0.0]))
            y = oracle_exp_map(base, step)
            dens.append(bridge_marginal(0.0, x, 0.2, q, 0.2 * tau, y))
        assert np.argmax(dens) == len(offsets) // 2

    def test_consistent_with_sampler_midpoint(self, monkeypatch):
        # KS of sampled midpoint distances against the marginal's radial law,
        # on a fan of 24 proposals: at the programs' 16 the fan's bias shows
        # at 4000 paths (p = 4e-4 on this seed)
        monkeypatch.setattr(bm, "_N_CANDIDATES", 24)
        s, D = 0.2, 1.0
        x = geo.origin(3)
        y = geo.point_at(3, D, np.array([1.0, 0, 0]))
        spec = bm.BridgeSpec(x, y, s)
        _, pts = bm.simulate_bridge_batch(spec, s / 96, seed=4, n_paths=4000)
        mid = geo.geodesic_point(x, y, 0.5)
        samples = geo.distance(pts[48], mid[None, :])

        rs = np.linspace(1e-9, 1.5, 500)
        dens = []
        for r in rs:
            th = np.linspace(0, np.pi, 256)
            c1 = np.cosh(r) * np.cosh(D / 2) - np.sinh(r) * np.sinh(D / 2) * np.cos(th)
            c2 = np.cosh(r) * np.cosh(D / 2) + np.sinh(r) * np.sinh(D / 2) * np.cos(th)
            r1 = np.arccosh(np.maximum(1.0, c1))
            r2 = np.arccosh(np.maximum(1.0, c2))
            val = np.exp(hk.log_exact_h3(s / 2, r1) + hk.log_exact_h3(s / 2, r2)
                         - hk.log_exact_h3(s, D))
            dens.append(2 * np.pi * np.sinh(r) ** 2
                        * integrate.trapezoid(val * np.sin(th), th))
        cdf = np.concatenate([[0.0], np.cumsum((np.array(dens)[1:] + np.array(dens)[:-1])
                                               * 0.5 * np.diff(rs))])
        cdf /= cdf[-1]
        ks = sps.kstest(samples, lambda q: np.interp(q, rs, cdf))
        assert ks.pvalue > 0.01
