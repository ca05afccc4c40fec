import numpy as np
import pytest
from scipy import integrate, optimize, stats as sps

from hypam import brownian as bm, geometry as geo
from hypam.config import ConstraintViolation, stream

from oracles import oracle_radial_drift


def test_zero_time_trajectory():
    traj = bm.simulate_bm(2, 0.0, 0.01, seed=0)
    assert len(traj.times) == 1
    assert np.allclose(traj.points[0], geo.origin(2))


def test_determinism_bit_identical():
    a = bm.simulate_bm(3, 0.5, 0.01, seed=42)
    b = bm.simulate_bm(3, 0.5, 0.01, seed=42)
    assert np.array_equal(a.points, b.points)
    c = bm.simulate_bm(3, 0.5, 0.01, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_step_sanity_bound():
    traj = bm.simulate_bm(2, 2.0, 0.01, seed=1)
    assert traj.max_step_ratio() < bm.STEP_SANITY_FACTOR


def test_points_stay_on_hyperboloid():
    traj = bm.simulate_bm(3, 1.0, 0.01, seed=2)
    geo.check_points(traj.points)


def test_radial_drift_clamp():
    # far from zero the drift is (d-1) coth ~ (d-1); the clamp only acts nearby
    for d in (2, 3):
        drift = bm._radial_drift(np.array([30.0]), d, 0.01)[0]
        assert abs(drift - (d - 1)) < 1e-6
    near = bm._radial_drift(np.array([0.05]), 2, 0.01)
    assert np.isfinite(near[0]) and near[0] > 1.0


def test_radial_drift_matches_two_branch_oracle():
    # patching only the entries below 0.1 keeps every bit of the drift
    r = np.concatenate([[0.0, 0.01, 0.05, 0.1, 30.0],
                        stream(3, "drift").exponential(0.2, 2000)])
    for d in (2, 3, 5):
        for dt in (1e-3, 0.01, 0.04):
            np.testing.assert_array_equal(bm._radial_drift(r, d, dt),
                                          oracle_radial_drift(r, d, dt))


def test_radial_marginal_matches_full(params2):
    rr = bm.simulate_radial_batch(2, 1.0, 1e-3, 0.0, seed=11, n_paths=10000)
    _, x = bm.simulate_bm_batch(2, 1.0, 1e-3, seed=12, n_paths=10000, record=False)
    r_full = np.arccosh(np.maximum(1.0, x[:, 0]))
    ks = sps.ks_2samp(rr, r_full)
    assert ks.pvalue > 0.01


def test_radial_lln_sde():
    r = bm.simulate_radial_batch(2, 50.0, 0.01, 0.0, seed=5, n_paths=1000)
    assert 0.9 <= np.mean(r) / 50.0 <= 1.1


class TestExitStats:
    def test_unreachable_radius(self):
        rows = bm.exit_stats(2, [200.0], 1.0, n_paths=2000, seed=0, dt=0.01)
        assert rows[0]["hits"] == 0
        with pytest.raises(ConstraintViolation):
            bm.exit_fit(rows)

    def test_ci_shrinks_with_n(self):
        rows1 = bm.exit_stats(2, [4.0], 2.0, n_paths=4000, seed=1, dt=0.01)
        rows4 = bm.exit_stats(2, [4.0], 2.0, n_paths=16000, seed=1, dt=0.01)
        w1 = rows1[0]["ci_hi"] - rows1[0]["ci_lo"]
        w4 = rows4[0]["ci_hi"] - rows4[0]["ci_lo"]
        assert abs(w1 / w4 - 2.0) < 0.4


class TestFirstPassage:
    def test_normalizes(self):
        val, _ = integrate.quad(lambda s: bm.first_passage_density(1.0, s),
                                0, np.inf, limit=300)
        assert abs(val - 1.0) < 1e-6

    def test_mode(self):
        s = np.linspace(0.05, 2.0, 20000)
        dens = bm.first_passage_density(1.0, s)
        assert abs(s[np.argmax(dens)] - 1.0 / 3.0) < 1e-3

    def test_cdf_consistent_with_density(self):
        for a, s in [(1.0, 0.5), (2.0, 3.0)]:
            val, _ = integrate.quad(lambda u: bm.first_passage_density(a, u),
                                    0, s, limit=200)
            assert abs(val - bm.first_passage_cdf(a, s)) < 1e-8


class TestBridge:
    def test_endpoint_pinned(self):
        x = geo.origin(3)
        y = geo.point_at(3, 1.2, np.array([0.0, 1.0, 0.0]))
        spec = bm.BridgeSpec(x, y, 0.3)
        traj = bm.simulate_bridge(spec, 0.3 / 64, seed=9)
        assert geo.distance(traj.points[-1], y) < np.sqrt(2 * 0.3 / 64) * 5

    def test_determinism(self):
        x = geo.origin(3)
        y = geo.point_at(3, 0.8, np.array([1.0, 0, 0]))
        spec = bm.BridgeSpec(x, y, 0.2)
        a = bm.simulate_bridge(spec, 0.01, seed=4)
        b = bm.simulate_bridge(spec, 0.01, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_excursion_scaling(self):
        x = geo.origin(3)
        means = []
        s_list = (0.01, 0.04, 0.16)
        for s in s_list:
            spec = bm.BridgeSpec(x, x, s)
            _, pts = bm.simulate_bridge_batch(spec, s / 64, seed=2, n_paths=800)
            dev = geo.distance(pts, x[None, None, :], validate=False)
            means.append(np.mean(np.max(dev, axis=0)))
        slope = np.polyfit(np.log(s_list), np.log(means), 1)[0]
        assert abs(slope - 0.5) <= 0.1

    def test_midpoint_concentration(self):
        x = geo.origin(3)
        y = geo.point_at(3, 1.0, np.array([1.0, 0, 0]))
        mid = geo.geodesic_point(x, y, 0.5)
        prev = None
        for s in (0.4, 0.2, 0.1):
            spec = bm.BridgeSpec(x, y, s)
            times, pts = bm.simulate_bridge_batch(spec, s / 64, seed=3, n_paths=800)
            m = float(np.mean(geo.distance(pts[len(times) // 2], mid[None, :],
                                           validate=False)))
            assert prev is None or m < prev
            prev = m

    def test_time_reversal(self):
        x = geo.origin(3)
        y = geo.point_at(3, 1.0, np.array([1.0, 0, 0]))
        mid = geo.geodesic_point(x, y, 0.5)
        s = 0.2
        _, p1 = bm.simulate_bridge_batch(bm.BridgeSpec(x, y, s), s / 96, seed=4,
                                         n_paths=4000, n_candidates=24)
        _, p2 = bm.simulate_bridge_batch(bm.BridgeSpec(y, x, s), s / 96, seed=5,
                                         n_paths=4000, n_candidates=24)
        d1 = geo.distance(p1[48], mid[None, :], validate=False)
        d2 = geo.distance(p2[48], mid[None, :], validate=False)
        assert sps.ks_2samp(d1, d2).pvalue > 0.01


def test_bridge_decay_rate_monotone_in_width():
    # wider tubes cost more energy to escape, so the decay rate grows
    x = geo.origin(3)
    y = geo.point_at(3, 1.0, np.array([1.0, 0.0, 0.0]))
    kappas = []
    for delta in (1.0, 1.2):
        _, fit = bm.bridge_ldp_decay(x, y, delta, [0.4, 0.2, 0.1, 0.05],
                                     n_paths=2000, seed=31)
        assert fit is not None and fit.slope < 0
        kappas.append(-fit.slope)
    assert kappas[1] > kappas[0]


class TestPathEnergy:
    def test_constant_path(self):
        pts = np.tile(geo.origin(2), (5, 1))
        assert bm.path_energy(pts) == 0.0

    def test_geodesic_energy(self):
        x = geo.origin(2)
        y = geo.point_at(2, 1.7, np.array([1.0, 0.0]))
        pts = geo.geodesic_point(x, y, np.linspace(0, 1, 9))
        assert abs(bm.path_energy(pts) - 1.7 ** 2) < 1e-6

    def test_refinement_invariance(self):
        x = geo.origin(2)
        y = geo.point_at(2, 2.3, np.array([0.6, 0.8]))
        e1 = bm.path_energy(geo.geodesic_point(x, y, np.linspace(0, 1, 17)))
        e2 = bm.path_energy(geo.geodesic_point(x, y, np.linspace(0, 1, 33)))
        assert abs(e1 - e2) < 1e-8

    def test_energy_dominates_endpoint_distance(self):
        rng = stream(7, "energy")
        for _ in range(50):
            pts = geo.sample_region(geo.BallRegion(2.0), 2, rng, 6)
            e = bm.path_energy(pts)
            d = float(geo.distance(pts[0], pts[-1]))
            assert e >= d * d - 1e-9


def _offset_coeffs(d, scale, seed, n=16):
    """Random frame offsets with node 4 on the geodesic (r = 0) and node 11
    stepped back onto node 10 (a zero-length segment)."""
    z = scale * stream(seed, "energy-grad", d).standard_normal((n, d))
    z[3] = 0.0
    z[9] = 0.0
    z[10] = 0.0
    z[10, 0] = -1.0 / n     # frame direction 1 at a geodesic node is the geodesic
    return z


def _rel_err(exact, fd):
    return np.max(np.abs(exact - fd)) / np.max(np.abs(fd))


class TestEnergyGradient:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.5])
    def test_energy_gradient_matches_finite_differences(self, d, scale):
        x, y, energy_of, energy_grad = bm._offset_path_energy(1.0, d, 16)
        z = _offset_coeffs(d, scale, seed=int(1e3 * scale))
        nodes = geo.frame_step(geo.geodesic_point(x, y, np.linspace(0, 1, 17))[1:], z)
        assert geo.distance(nodes[9], nodes[10], validate=False) < 1e-7
        z = z.ravel()
        assert _rel_err(energy_grad(z), optimize.approx_fprime(z, energy_of)) < 1e-5

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 0.1, 0.5])
    def test_constraint_jacobians_match_finite_differences(self, d, scale):
        z = _offset_coeffs(d, scale, seed=7).ravel()
        for k, sign, offset in ((7, 1.0, -0.125), (15, -1.0, 0.062)):
            con = bm._node_norm_constraint(16, d, k, sign, offset)
            jac = con["jac"](z)
            assert np.count_nonzero(jac) == d
            assert _rel_err(jac, optimize.approx_fprime(z, con["fun"])) < 1e-5
        # the r = 0 node takes the zero subgradient
        assert not np.any(bm._node_norm_constraint(16, d, 3, 1.0, 0.0)["jac"](z))

    def test_gradient_on_the_geodesic(self):
        # interior nodes are stationary; moving the endpoint along the
        # geodesic (frame direction 1) changes the energy at rate 2 K
        g = bm._offset_path_energy(1.3, 3, 16)[3](np.zeros(48)).reshape(16, 3)
        assert np.max(np.abs(g[:-1])) < 1e-12
        assert np.allclose(g[-1], [2.6, 0.0, 0.0], rtol=0.0, atol=1e-12)


def _fail_minimize(fun, x0, **kwargs):
    return optimize.OptimizeResult(x=x0, fun=0.0, success=False,
                                   message="forced failure")


class TestEnergyExcess:
    def test_unconstrained_minimum_is_geodesic(self):
        e = bm.geodesic_baseline_energy(1.0, d=2, slack=0.0)
        assert abs(e - 1.0) < 1e-6

    def test_unconstrained_minimum_is_geodesic_d3(self):
        e = bm.geodesic_baseline_energy(1.0, d=3, slack=0.0)
        assert abs(e - 1.0) < 1e-6

    def test_no_converged_trial_does_not_hold(self, monkeypatch):
        monkeypatch.setattr(bm.optimize, "minimize", _fail_minimize)
        rep = bm.energy_excess_check(1.0, 0.5, 0.02, 0.001, n_trials=2, seed=1)
        assert rep.n_converged == 0
        assert rep.min_energy is None
        assert rep.holds is False
        with pytest.raises(ConstraintViolation):
            bm.geodesic_baseline_energy(1.0)

    def test_every_trial_counted(self):
        rep = bm.energy_excess_check(1.0, 0.5, 0.02, 0.001, n_trials=2, seed=3)
        assert rep.n_converged == 6 and rep.holds

    def test_constraint_check(self):
        assert not bm.check_eta_zeta(1.0, 0.5, 0.02, 0.001)
        assert bm.check_eta_zeta(1.0, 0.5, 9e-5, 1e-7)
        with pytest.raises(ConstraintViolation):
            bm.energy_excess_check(1.0, 0.5, 0.02, 0.001, 1, 0,
                                   enforce_constraints=True)

    def test_smoothing_blend_shape(self):
        xs = np.linspace(0.0, 3.0, 2001)
        f = bm.smoothing_blend(xs)
        assert np.all(np.diff(f) >= -1e-15)
        assert np.max(np.diff(f) / np.diff(xs)) <= 1.0 + 1e-9
        assert np.allclose(f[xs <= 0.25], 0.5)
        assert np.allclose(f[xs >= 1.0], xs[xs >= 1.0])
        assert bm.radial_drift_bound(2) < np.inf
