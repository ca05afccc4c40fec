import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from hypam import brownian as bm, cli, field as fd, feynman_kac as fk, geometry as geo
from hypam.config import BudgetExceeded, ConstraintViolation, stream
from hypam.varopt import ModelParams, l_star_relaxed, route_constants

from oracles import (brute_force_reduce, oracle_annealed_moment,
                     oracle_j_error_integral, oracle_localized_accept,
                     oracle_long_route_log_F, oracle_nearest_site)


class TestReduceWord:
    def test_worked_example(self):
        assert fk.reduce_word(list("abcabbacbccb")) == list("acb")

    def test_repeats(self):
        assert fk.reduce_word(list("aaa")) == ["a"]

    def test_distinct_letters_unchanged(self):
        assert fk.reduce_word([3, 1, 4, 2]) == [3, 1, 4, 2]

    def test_empty_rejected(self):
        with pytest.raises(ConstraintViolation):
            fk.reduce_word([])

    def test_idempotent(self):
        rng = stream(0, "red")
        for _ in range(200):
            w = rng.integers(0, 5, size=rng.integers(1, 30)).tolist()
            r = fk.reduce_word(w)
            assert fk.reduce_word(r) == r
            assert len(set(r)) == len(r)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, w):
        assert fk.reduce_word(w) == brute_force_reduce(w)

    def test_eta_route_collapse(self):
        assert fk.eta_route(list("aabba")) == list("aba")


class TestPlainEstimator:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConstraintViolation, match="mode"):
            fk.fk_estimate(0.7, 2, 1.0, 0.01, 4, seed=1, mode="anealed")

    def test_constant_potential_exact(self):
        est = fk.fk_estimate(0.7, 2, 1.5, 0.01, 64, seed=1)
        assert abs(est.mean - math.exp(0.7 * 1.5)) < 1e-12
        # zero at double precision (summation roundoff is the only spread)
        assert est.variance <= (1e-13 * est.mean) ** 2

    def test_log_mean_beyond_float_range(self):
        # exp(800 * 1.25) overflows a float; its logarithm does not
        est = fk.fk_estimate(800.0, 2, 1.25, 0.01, 4, seed=0)
        assert abs(est.log_mean - 1000.0) <= 1e-9
        none = fk.FKEstimate(np.zeros(3), np.zeros(3, dtype=bool), 1.0, 0.01,
                             "localized")
        assert none.log_mean == -math.inf

    def test_weights_beyond_float_range_summarised(self, tmp_path):
        # every weight is e^1000: the mean overflows and is written as null,
        # the zero spread and the weight diagnostics stay exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fk.fk_estimate(800.0, 2, 1.25, 0.01, 4, seed=0)
            cli.write_json(tmp_path / "summary.json", cli._json_text(est.summary()))

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh, parse_constant=reject)
        assert abs(summary["log_mean"] - 1000.0) <= 1e-9
        assert summary["se"] == summary["rel_se"] == 0.0
        assert summary["ess"] == summary["n_paths"] == 4
        assert summary["mean"] is None

    def test_no_path_rejected(self):
        with pytest.raises(ConstraintViolation, match="at least one path"):
            fk.fk_estimate(0.7, 2, 1.0, 0.01, 0, seed=1)

    def test_quenched_pinned(self, spec_quarter):
        # recorded with the covariance profile tabulated on 201 knots and
        # extensions drawn from one LAPACK dpotrf factor of the joint
        # covariance: every looked-up value of the lazy field feeds these
        # weights
        est = fk.fk_estimate(spec_quarter, 2, 1.0, 0.01, 12, seed=7)
        assert est.meta["n_field_sites"] == 141
        assert est.log_weights.tolist() == [
            -0.23325265615992508, -0.06652216818561422, 0.15955074797930052,
            -0.019355615053958167, 0.0004565817030795939, -0.07282889136575578,
            0.03381507902991241, -0.03401495661067838, -0.004261377284743954,
            -0.004584079341727294, -0.10632457974397275, -0.2609031644584648]

    def test_time_zero(self):
        est = fk.fk_estimate(0.7, 2, 0.0, 0.01, 16, seed=1)
        assert est.mean == 1.0 and est.variance == 0.0

    def test_dt_precondition(self, spec_unit):
        with pytest.raises(ConstraintViolation):
            fk.fk_estimate(spec_unit, 2, 1.0, 0.5, 8, seed=0)

    def test_determinism(self, spec_quarter):
        a = fk.fk_estimate(spec_quarter, 2, 0.5, 0.005, 16, seed=5)
        b = fk.fk_estimate(spec_quarter, 2, 0.5, 0.005, 16, seed=5)
        assert np.array_equal(a.log_weights, b.log_weights)

    def test_se_scaling(self, spec_quarter):
        # same seed: both runs sample the same frozen field, so the variance
        # estimates target the same per-field spread
        est1 = fk.fk_estimate(spec_quarter, 2, 1.0, 0.01, 400, seed=2)
        est4 = fk.fk_estimate(spec_quarter, 2, 1.0, 0.01, 1600, seed=2)
        ratio = est1.se / est4.se
        assert abs(ratio - 2.0) <= 0.4

    def test_quenched_below_annealed_jensen(self, spec_quarter):
        logs = []
        for k in range(50):
            est = fk.fk_estimate(spec_quarter, 2, 1.0, 0.01, 16, seed=200 + k)
            logs.append(est.log_mean)
        lhs = float(np.mean(logs))
        se = float(np.std(logs, ddof=1) / math.sqrt(len(logs)))
        ann = fk.annealed_moment_estimate(spec_quarter, 2, 1.0, 0.01, 1200, seed=9)
        rhs = math.log(ann.mean)
        assert lhs <= rhs + 3 * math.hypot(se, ann.se / ann.mean)


    @pytest.mark.parametrize("d", [2, 3])
    def test_annealed_moment_matches_dense_oracle(self, d):
        # the upper-triangle Gram keeps every bit of the dense table's
        # 0.5 w.C.w, at t = 1 and on paths that barely leave o, whose pair
        # distances round to 0 and tie the diagonal
        spec = fd.make_spec(0.25, 1.0, d=d)
        for t, dt in ((1.0, 0.01), (1e-16, 1e-18)):
            est = fk.annealed_moment_estimate(spec, d, t, dt, 12, seed=3)
            assert np.array_equal(est.log_weights,
                                  oracle_annealed_moment(spec, d, t, dt, 12, 3))

    def test_spec_of_another_dimension_is_rejected(self):
        # C_2(0.5) and C_3(0.5) differ; a spec tabulated on H^2 must not
        # silently weight paths in H^3
        spec2, spec3 = fd.make_spec(0.25, 1.0, d=2), fd.make_spec(0.25, 1.0, d=3)
        assert abs(spec2.cov(0.5) - spec3.cov(0.5)) > 1e-3
        center = geo.point_at(3, 0.5, np.eye(3)[0])
        calls = [lambda: fk.fk_estimate(spec2, 3, 1.0, 0.01, 4, seed=1),
                 lambda: fk.fk_estimate(spec2, 3, 1.0, 0.01, 32, seed=1,
                                        mode="annealed"),
                 lambda: fk.annealed_moment_estimate(spec2, 3, 1.0, 0.01, 4, seed=1),
                 lambda: fk.fk_localized_lower(spec2, 3, 1.0, 0.25, 4.0, 0.8, center,
                                               seed=1, n_paths=4, r_peak=1.0,
                                               dt=0.01),
                 lambda: fk.annealed_moment_estimate(spec3, 2, 1.0, 0.01, 4, seed=1)]
        for call in calls:
            with pytest.raises(ConstraintViolation, match="tabulated for d="):
                call()


class TestLocalized:
    def test_pathwise_lower_bound_and_vacuous_limit(self):
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        pot = fk.PlantedPeakPotential(center, 2.0, 1.0)
        full = fk.fk_estimate(pot, 2, 1.0, 0.01, 300, seed=5)
        loc = fk.fk_localized_lower(pot, 2, 1.0, 0.25, 4.0, 0.8, center,
                                    seed=5, n_paths=300, r_peak=0.8, dt=0.01)
        assert loc.mean <= full.mean
        vac = fk.fk_localized_lower(pot, 2, 1.0, 0.25, np.inf, np.inf, center,
                                    seed=5, n_paths=300, r_peak=np.inf, dt=0.01)
        assert vac.accept_fraction == 1.0
        assert np.isclose(vac.mean, full.mean)

    @pytest.mark.parametrize("field", [False, True])
    def test_vacuous_scenario_shares_paths(self, spec_quarter, field):
        # one pipeline draws both estimators' paths and field: bit for bit
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        pot = spec_quarter if field else fk.PlantedPeakPotential(center, 2.0, 1.0)
        full = fk.fk_estimate(pot, 2, 1.0, 0.01, 40, seed=5)
        vac = fk.fk_localized_lower(pot, 2, 1.0, 0.25, np.inf, np.inf, center,
                                    seed=5, n_paths=40, r_peak=np.inf, dt=0.01)
        assert vac.accepted.all()
        assert vac.log_weights.tobytes() == full.log_weights.tobytes()

    def test_matches_per_path_scan(self):
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        pot = fk.PlantedPeakPotential(center, 2.0, 1.0)
        est = fk.fk_localized_lower(pot, 2, 1.0, 0.25, 4.0, 1.2, center,
                                    seed=5, n_paths=200, r_peak=1.0, dt=0.01)
        times, pts = bm.simulate_bm_batch(2, 1.0, 0.01, 5, 200, stream_id=0)
        accepted = oracle_localized_accept(times, pts, 0.25, 1.0, 0.01, 4.0,
                                           1.2, center, 1.0)
        assert 0 < accepted.sum() < 200
        np.testing.assert_array_equal(est.accepted, accepted)
        integrals = [integrate.trapezoid(pot.values_at(pts[:, j]), times)
                     for j in range(200)]
        np.testing.assert_allclose(est.log_weights, integrals, rtol=1e-12)

    def test_monotone_in_peak_height(self):
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        prev = None
        for h in (1.0, 2.0, 4.0):
            pot = fk.PlantedPeakPotential(center, h, 1.0)
            m = fk.fk_localized_lower(pot, 2, 1.0, 0.25, 4.0, 0.8, center,
                                      seed=5, n_paths=300, r_peak=0.8, dt=0.01).mean
            assert prev is None or m > prev
            prev = m

    def test_zero_acceptance_reported(self):
        # the scenario is feasible (K t^(4/3) + r_peak = 9.57 >= 8), but no
        # path travels that far by time 0.25
        center = geo.point_at(2, 8.0, np.array([1.0, 0.0]))
        pot = fk.ConstantPotential(0.0)
        est = fk.fk_localized_lower(pot, 2, 0.5, 0.5, 24.0, 0.05, center,
                                    seed=1, n_paths=50, r_peak=0.05, dt=0.005)
        assert est.accept_fraction == 0.0
        assert est.summary()["accept_fraction"] == 0.0

    def test_dt_precondition(self, spec_quarter):
        # both estimators hold a field to dt <= min(t / 100, R0^2 / 8)
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        with pytest.raises(ConstraintViolation, match="too coarse"):
            fk.fk_localized_lower(spec_quarter, 2, 1.0, 0.5, 10.0, 5.0, center,
                                  1, 4, r_peak=5.0, dt=0.5)
        with pytest.raises(ConstraintViolation, match="too coarse"):
            fk.fk_estimate(spec_quarter, 2, 1.0, 0.5, 32, seed=1, mode="annealed")

    def test_infeasible_scenario_rejected(self):
        # K t^(4/3) + r_peak = 0.4 + 1.0 < 1.5: no path is ever accepted
        center = geo.point_at(2, 1.5, np.array([1.0, 0.0]))
        pot = fk.ConstantPotential(0.0)
        with pytest.raises(ConstraintViolation,
                           match=r"K\*t\^\(4/3\) = 0\.4 .*r_peak = 1 .*= 1\.5"):
            fk.fk_localized_lower(pot, 2, 1.0, 0.2, 0.4, 1.0, center,
                                  seed=5, n_paths=10, r_peak=1.0, dt=0.01)


def _two_cluster_setup(spec_unit):
    ex = np.array([1.0, 0.0])
    sa = np.vstack([geo.point_at(2, 1.0, ex), geo.point_at(2, 1.05, ex)])
    sb = np.vstack([geo.point_at(2, 2.0, ex), geo.point_at(2, 2.05, ex)])
    low = np.vstack([geo.point_at(2, r, ex) for r in (0.3, 0.6, 1.3, 1.45, 1.6, 1.75, 2.25)])
    sites = np.vstack([sa, sb, low])
    vals = np.concatenate([np.full(4, 5.0), np.full(7, 0.2)])
    f = fd.FieldRealization(spec_unit, sites, vals, 2)
    isl = fd.detect_islands(f, delta=1.0, t=1.0, h=0.16)
    cl = fd.build_clusters(isl, eta=0.3, t=1.0)
    lab = {}
    for c in cl.clusters:
        lab[c.label] = "a" if 0 in c.site_indices else "b"
    return f, cl, lab, ex


def _piecewise_radial_traj(waypoints, ex, step=0.01):
    times, pts = [], []
    tcur = 0.0
    for k in range(len(waypoints) - 1):
        rr = np.linspace(waypoints[k], waypoints[k + 1], 21)[:-1]
        for r in rr:
            times.append(tcur)
            pts.append(geo.point_at(2, abs(r), ex))
            tcur += step
    times.append(tcur)
    pts.append(geo.point_at(2, waypoints[-1], ex))
    return bm.Trajectory(np.array(times), np.array(pts), 2)


class TestRouteExtraction:
    def test_never_entering(self, spec_unit):
        f, cl, lab, ex = _two_cluster_setup(spec_unit)
        traj = _piecewise_radial_traj([0.0, 0.4, 0.0], ex)
        route = fk.route_extract(traj, cl, lam=0.5, t=1.0)
        assert route.word == []

    def test_word_aba(self, spec_unit):
        f, cl, lab, ex = _two_cluster_setup(spec_unit)
        traj = _piecewise_radial_traj([0.0, 1.0, 1.45, 2.0, 1.0], ex)
        route = fk.route_extract(traj, cl, lam=0.5, t=1.0)
        assert "".join(lab[c] for c in route.word) == "aba"
        # entries and exits interleave: entry_i <= exit_i <= entry_{i+1}
        entries, exits = route.entry_times, route.exit_times
        assert len(exits) in (len(entries) - 1, len(entries))
        assert all(entries[i] <= exits[i] for i in range(len(exits)))
        assert all(exits[i] <= entries[i + 1] for i in range(len(entries) - 1))

    def test_word_aa_reentry(self, spec_unit):
        f, cl, lab, ex = _two_cluster_setup(spec_unit)
        traj = _piecewise_radial_traj([0.0, 1.0, 1.45, 1.0], ex)
        route = fk.route_extract(traj, cl, lam=0.5, t=1.0)
        assert "".join(lab[c] for c in route.word) == "aa"

    def test_staying_split(self, spec_unit):
        f, cl, lab, ex = _two_cluster_setup(spec_unit)
        traj = _piecewise_radial_traj([0.0, 1.0, 1.45, 2.0, 1.0], ex)
        split = fk.staying_excursion_split(traj, cl, f, lam=0.5, delta=1.0,
                                           t=1.0, mu=4.0)
        total = traj.times[-1] - traj.times[0]
        assert abs(split.staying_time + split.excursion_time - total) < 1e-9
        assert split.precondition_holds
        assert split.xi_integral <= split.xi_integral_bound + 1e-9

    def test_empty_route_bound(self, spec_unit):
        f, cl, lab, ex = _two_cluster_setup(spec_unit)
        traj = _piecewise_radial_traj([0.0, 0.4, 0.0], ex)
        split = fk.staying_excursion_split(traj, cl, f, lam=0.5, delta=1.0,
                                           t=1.0, mu=4.0)
        assert split.staying_time == 0.0
        assert abs(split.xi_integral_bound - 1.0) < 1e-12   # delta * t^(5/3)
        assert split.xi_integral <= split.xi_integral_bound


def test_lazy_evaluator_budget(spec_unit, monkeypatch):
    monkeypatch.setattr(fd, "MAX_FIELD_SITES", 8)
    ev = fk.LazyFieldEvaluator(spec_unit, 2, seed=1)
    pts = geo.sample_region(geo.BallRegion(4.0), 2, stream(9, "budget"), 40)
    with pytest.raises(BudgetExceeded):
        ev.values_at(pts)


@pytest.mark.parametrize("d, t, n_paths", [(2, 2.0, 30), (3, 1.0, 24)])
def test_lazy_snaps_match_dense_after_every_extension(d, t, n_paths):
    # each call's snapped sites are the dense nearest sites over every site
    # of the grown field; the d = 3 field rebuilds its k-d tree several times
    spec = fd.make_spec(0.25, 1.0, d=d)
    ev = fk.LazyFieldEvaluator(spec, d, seed=3)
    _, paths = bm.simulate_bm_batch(d, t, 0.01, 3, n_paths)
    for j in range(n_paths):
        pts = paths[:, j, :]
        got = ev.values_at(pts)
        f = ev.realization
        # the values are distinct, so each one names its site
        order = np.argsort(f.values)
        assert np.all(np.diff(f.values[order]) > 0)
        idx = order[np.minimum(np.searchsorted(f.values[order], got), f.n_sites - 1)]
        assert np.array_equal(f.values[idx], got)
        want, dist = oracle_nearest_site(f.sites, pts)
        assert np.array_equal(idx, want) and np.all(dist <= ev.snap_h)
    assert f.n_sites > {2: 1, 3: 4}[d] * geo._TAIL_MAX


def test_lazy_snap_tie_keeps_older_site(spec_unit):
    # o lies at one radius from an old site and from a site the same call
    # adds: equal cosh, so o keeps the older, lower index, as a dense argmin
    ev = fk.LazyFieldEvaluator(spec_unit, 2, seed=1)
    rho = 0.6 * ev.snap_h
    old = geo.point_at(2, rho, np.array([1.0, 0.0]))
    new = geo.point_at(2, rho, np.array([-1.0, 0.0]))
    o = geo.origin(2)
    assert geo.cosh_distance(o, old) == geo.cosh_distance(o, new)
    ev.realization = fd.FieldRealization(spec_unit, old[None, :], np.array([7.0]), 2)
    vals = ev.values_at(np.vstack([o, new]))
    assert ev.n_sites == 2 and ev.realization.values[1] != 7.0
    assert vals.tolist() == [7.0, ev.realization.values[1]]


def test_lazy_evaluator_thins_without_dense_block(spec_unit):
    # m missing points 0.2 apart on a circle at radius 5 have O(m) close
    # pairs; thinning them must not hold an m x m float block
    m, r = 2000, 5.0
    theta = 0.2 * np.arange(m) / np.sinh(r)
    pts = geo.point_at(2, r, np.stack([np.cos(theta), np.sin(theta)], axis=1))
    ev = fk.LazyFieldEvaluator(spec_unit, 2, seed=1)
    tracemalloc.start()
    try:
        vals = ev.values_at(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8
    # the snap distance R0/4 exceeds the spacing: every other point is a site
    assert ev.n_sites == 1 + m // 2
    assert np.all(np.isfinite(vals))


def test_split_bound_on_simulated_instances(spec_unit):
    # real sampled fields and Brownian paths: whenever the evaluation-value
    # preconditions hold, the integral obeys the staying/excursion bound
    spacing = 0.25
    packing = geo.greedy_packing(geo.BallRegion(3.0), spacing / 2.0, 2, seed=21,
                                 max_centers=900)
    t_par = 1.0
    n_pre = 0
    for k in range(6):
        f = fd.sample_field(spec_unit, packing.centers, seed=300 + k)
        isl = fd.detect_islands(f, delta=0.8, t=t_par, h=spacing)
        if len(isl) == 0:
            continue
        cl = fd.build_clusters(isl, eta=0.05, t=t_par)
        times, pts = bm.simulate_bm_batch(2, t_par, 0.01, seed=400 + k, n_paths=4)
        for j in range(4):
            traj = bm.Trajectory(times, pts[:, j, :], 2)
            split = fk.staying_excursion_split(traj, cl, f, lam=0.04,
                                               delta=0.8, t=t_par, mu=6.0)
            if split.precondition_holds:
                n_pre += 1
                assert split.xi_integral <= split.xi_integral_bound + 1e-9
    assert n_pre >= 3


ROUTE_CFG = dict(t=20.0, alpha=0.05, K0=40.0, eta=2.0, lam=0.05)


def _route_env():
    p = ModelParams(2, 1.0)
    mu = 1.05 * p.mu0
    delta = mu * math.sqrt(38.0)
    c_hat = 1.01 * 2 * 1 * ROUTE_CFG["K0"] / (0.2 * delta ** 2)   # L_delta = 0.2
    consts, err_fn = route_constants(ROUTE_CFG["eta"], ROUTE_CFG["lam"], delta,
                                     ROUTE_CFG["K0"], p, c_hat,
                                     alpha=ROUTE_CFG["alpha"], mu=mu)
    return p, mu, delta, c_hat, consts, err_fn


class TestRouteBudget:
    def test_main_term_matches_relaxed_value(self):
        p, mu, delta, c_hat, consts, _ = _route_env()
        rng = stream(1, "rb")
        g = fk.synthetic_route_geometry(rng, ROUTE_CFG["t"], ROUTE_CFG["lam"],
                                        delta, mu, ROUTE_CFG["K0"], consts)
        rep = fk.route_budget(g, ROUTE_CFG["t"], ROUTE_CFG["alpha"], mu, p,
                              ROUTE_CFG["lam"], ROUTE_CFG["eta"], delta,
                              ROUTE_CFG["K0"], c_hat)
        lrel = l_star_relaxed(ROUTE_CFG["alpha"], mu)
        assert abs(rep.main_term - lrel * ROUTE_CFG["t"] ** (5 / 3)) < 1e-9

    def test_single_cluster_bound_dominates_profile_value(self):
        p, mu, delta, c_hat, consts, _ = _route_env()
        t = ROUTE_CFG["t"]
        K = 38.5
        v = 0.3
        geom = fk.RouteGeometry([0], np.array([K * t ** (4 / 3)]), K, 0, 1)
        rep = fk.route_budget(geom, t, ROUTE_CFG["alpha"], mu, p,
                              ROUTE_CFG["lam"], ROUTE_CFG["eta"], delta,
                              ROUTE_CFG["K0"], c_hat)
        f_style = (mu * math.sqrt(K) * (1 - v)
                   - ROUTE_CFG["alpha"] * K ** 2 / (4 * v)) * t ** (5 / 3)
        assert rep.log_bound >= f_style - delta * t ** (5 / 3)

    def test_route_caps_enforced(self):
        p, mu, delta, c_hat, consts, _ = _route_env()
        t = ROUTE_CFG["t"]
        scale = t ** (4 / 3)
        long_word = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]   # reduced prefix too long? no:
        # build an inadmissible geometry: reduced prefix of length 3 > N_eta*L_delta
        word = [0, 1, 2]
        gaps = np.array([38.2 * scale, 0.5 * scale, 0.5 * scale])
        geom = fk.RouteGeometry(word, gaps, 39.5, 2, 3)
        with pytest.raises(ConstraintViolation):
            fk.route_budget(geom, t, ROUTE_CFG["alpha"], mu, p,
                            ROUTE_CFG["lam"], ROUTE_CFG["eta"], delta,
                            ROUTE_CFG["K0"], c_hat)

    def test_fuzz_no_violations(self):
        p, mu, delta, c_hat, consts, _ = _route_env()
        rng = stream(3, "rb-fuzz")
        for _ in range(300):
            g = fk.synthetic_route_geometry(rng, ROUTE_CFG["t"], ROUTE_CFG["lam"],
                                            delta, mu, ROUTE_CFG["K0"], consts)
            rep = fk.route_budget(g, ROUTE_CFG["t"], ROUTE_CFG["alpha"], mu, p,
                                  ROUTE_CFG["lam"], ROUTE_CFG["eta"], delta,
                                  ROUTE_CFG["K0"], c_hat)
            assert rep.trian_holds
            assert rep.hat_bound_holds
            assert rep.f_style_value <= rep.main_term + 1e-9

    def test_j_integral_methods_agree(self):
        p, mu, delta, c_hat, consts, err_fn = _route_env()
        for t in (10.0, 20.0, 40.0):
            args = (t, 3, ROUTE_CFG["lam"], delta, ROUTE_CFG["alpha"], mu,
                    ROUTE_CFG["K0"], err_fn(t))
            a = fk.j_error_integral(*args)
            b = oracle_j_error_integral(*args)
            assert abs(a - b) < 1e-6 * max(1.0, abs(a))

    def test_j_decreasing_in_t(self):
        p, mu, delta, c_hat, consts, err_fn = _route_env()
        vals = [fk.j_error_integral(t, 3, ROUTE_CFG["lam"], delta,
                                    ROUTE_CFG["alpha"], mu, ROUTE_CFG["K0"],
                                    err_fn(t)) for t in (10.0, 20.0, 40.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_j_infeasible_raises(self):
        p, mu, delta, c_hat, consts, err_fn = _route_env()
        with pytest.raises(ConstraintViolation):
            fk.j_error_integral(20.0, 2, ROUTE_CFG["lam"], delta,
                                ROUTE_CFG["alpha"], mu, ROUTE_CFG["K0"],
                                r_t_value=1e6)


class TestLongRouteTail:
    def test_single_hop_is_first_passage_tail(self):
        p = ModelParams(2, 1.0)
        rep = fk.long_route_tail(0.3, 1, 10.0, p, 2.0)
        a = 0.3 * 10.0 ** (4 / 3) / 4.0
        manual = 0.5 * math.log(2.0) + math.log(
            bm.first_passage_cdf(a, 10.0))
        assert abs(rep.log_F - manual) < 1e-9

    def test_recursion_matches_closed_form(self):
        p = ModelParams(2, 1.0)
        for N in (2, 4):
            a = fk.long_route_tail(0.3, N, 10.0, p, 2.0).log_F
            b = oracle_long_route_log_F(0.3, N, 10.0, n_grid=8192)
            assert abs(a - b) < 5e-3 * max(1.0, abs(a))

    def test_exponent_sign_flip(self):
        p = ModelParams(2, 1.0)
        thr = fk.long_route_threshold(p, 2.0)
        lo = fk.long_route_tail(thr * (1 - 1e-9) / 5, 5, 10.0, p, 2.0)
        hi = fk.long_route_tail(thr * (1 + 1e-9) / 5, 5, 10.0, p, 2.0)
        assert lo.exponent < 0 < hi.exponent
        mid = fk.long_route_tail(thr / 4, 4, 10.0, p, 2.0)
        assert abs(mid.exponent) < 1e-9

    def test_decreasing_in_t(self):
        p = ModelParams(2, 1.0)
        vals = [fk.long_route_tail(0.3, 4, t, p, 2.0).log_F for t in (10, 20, 40)]
        assert vals[0] > vals[1] > vals[2]
