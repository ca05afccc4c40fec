import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypam import field as fd, geometry as geo
from hypam.config import (BudgetExceeded, COND_RADIUS_FACTOR,
                          ConstraintViolation, stream)
from oracles import (oracle_clusters, oracle_cov_matrix, oracle_extend_values,
                     oracle_islands, oracle_nearest_site,
                     oracle_rich_ball_event)


class TestCovarianceSpec:
    def test_normalization_and_support(self, spec_unit):
        assert abs(spec_unit.cov(0.0) - 1.0) < 1e-6
        assert spec_unit.cov(1.5) == 0.0
        assert spec_unit.cov(1.0) == 0.0

    def test_flat_at_zero(self, spec_unit):
        h = 1e-4
        deriv = (spec_unit.cov(h) - spec_unit.cov(-h)) / (2 * h)
        assert abs(deriv) <= 1e-4 * 1.0 / 1.0   # 1e-4 * sigma2 / R0

    def test_twice_differentiable(self, spec_unit):
        # second differences stabilize: C'' exists across the table
        h = 1e-3
        rho = np.linspace(0.05, 0.95, 19)
        d2 = (spec_unit.cov(rho + h) - 2 * spec_unit.cov(rho)
              + spec_unit.cov(rho - h)) / h ** 2
        d2_fine = (spec_unit.cov(rho + h / 2) - 2 * spec_unit.cov(rho)
                   + spec_unit.cov(rho - h / 2)) / (h / 2) ** 2
        assert np.max(np.abs(d2 - d2_fine)) < 0.05

    def test_psd_on_random_sites(self, spec_unit):
        rng = stream(0, "psd")
        sites = geo.sample_region(geo.BallRegion(2.0), 2, rng, 30)
        w = np.linalg.eigvalsh(spec_unit.cov_matrix(sites))
        assert w.min() >= -1e-8

    def test_invalid_bump(self):
        with pytest.raises(ConstraintViolation):
            fd.make_spec(1.0, 1.0, "triangle")

    def test_other_shapes_normalize(self):
        for shape in ("poly4", "cosine"):
            s = fd.make_spec(2.0, 0.5, shape, d=3)
            assert abs(s.cov(0.0) - 2.0) < 1e-6
            assert s.cov(0.75) == 0.0

    def test_cached_table_gives_fresh_bytes(self):
        # specs of another sigma2 share the unscaled table and leave it as it
        # was; a spec built on the cache equals one built from scratch
        other = fd.make_spec(3.0, 0.75, "poly4", d=3)
        cached = fd.make_spec(0.5, 0.75, "poly4", d=3)
        fd._unscaled_profile.cache_clear()
        fresh = fd.make_spec(0.5, 0.75, "poly4", d=3)
        assert fresh.values.tobytes() == cached.values.tobytes()
        assert fresh.rho_grid.tobytes() == cached.rho_grid.tobytes()
        assert cached.values is not other.values and cached.values.flags.writeable
        assert not fresh.rho_grid.flags.writeable


    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.0, 20.0),
           n=st.integers(1, 150), R0=st.sampled_from([0.5, 1.0]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_cov_matrix_matches_dense(self, d, radius, n, R0, seed):
        # ball sites plus a companion within R0 of each, so pairs inside the
        # support occur at every radius; the entries are the dense table's,
        # and a set the dense table shows to hold coincident sites (radius 0
        # puts every base site at o) is rejected
        spec = fd.make_spec(1.3, R0, "poly3", d=d)
        rng = stream(seed, "cov")
        base = geo.sample_region(geo.BallRegion(radius), d, rng, n)
        near = geo.frame_step(base, rng.uniform(-R0, R0, (n, d)) / math.sqrt(d))
        sites = np.vstack([base, near])
        prod = geo.cosh_distance(sites[:, None, :], sites[None, :, :])
        if np.any(prod[np.triu_indices(len(sites), 1)] <= 1.0 + 1e-14):
            with pytest.raises(ConstraintViolation):
                spec.cov_matrix(sites)
        else:
            assert np.array_equal(spec.cov_matrix(sites),
                                  oracle_cov_matrix(spec, sites))


class TestSampling:
    def test_single_site_variance(self, spec_unit):
        o = geo.origin(2)[None, :]
        vals = np.array([fd.sample_field(spec_unit, o, seed=i).values[0]
                         for i in range(20000)])
        se = math.sqrt(2.0 / 20000)   # SE of the sample variance of N(0,1)
        assert abs(np.var(vals) - 1.0) <= 4 * se

    def test_duplicate_sites_rejected(self, spec_unit):
        o = geo.origin(2)
        with pytest.raises(ConstraintViolation):
            fd.sample_field(spec_unit, np.vstack([o, o]), seed=0)

    @pytest.mark.parametrize("gap, distinct", [(1e-9, False), (1e-6, True)])
    def test_near_duplicate_sites(self, spec_unit, gap, distinct):
        # far from o, sites 1e-9 apart count as one and sites 1e-6 apart as two
        x = geo.point_at(2, 5.0, np.array([0.6, 0.8]))
        y = geo.frame_step(x, np.array([gap, 0.0]))
        others = geo.sample_region(geo.BallRegion(6.0), 2, stream(2, "dup"), 20)
        sites = np.vstack([others, x, y])
        if distinct:
            assert fd.sample_field(spec_unit, sites, seed=0).n_sites == 22
        else:
            with pytest.raises(ConstraintViolation):
                fd.sample_field(spec_unit, sites, seed=0)

    def test_one_index_per_draw(self, spec_unit, monkeypatch):
        # the distinct-sites check and the assembly share one k-d tree
        built = []
        init = geo._SiteIndex.__init__
        monkeypatch.setattr(geo._SiteIndex, "__init__",
                            lambda self, sites: built.append(1) or init(self, sites))
        sites = geo.sample_region(geo.BallRegion(2.0), 2, stream(3, "one"), 40)
        fd.sample_field(spec_unit, sites, seed=0)
        assert len(built) == 1

    def test_oneshot_budget(self, spec_unit):
        sites = np.zeros((5000, 3))
        with pytest.raises(BudgetExceeded):
            fd.sample_field(spec_unit, sites, seed=0)

    def test_determinism(self, spec_unit):
        sites = geo.sample_region(geo.BallRegion(1.0), 2, stream(1, "s"), 10)
        a = fd.sample_field(spec_unit, sites, seed=7)
        b = fd.sample_field(spec_unit, sites, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_decorrelation_beyond_support(self, spec_unit):
        x = geo.origin(2)
        y = geo.point_at(2, 1.4, np.array([1.0, 0.0]))
        sites = np.vstack([x, y])
        n = 10000
        draws = np.array([fd.sample_field(spec_unit, sites, seed=i).values
                          for i in range(n)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n)

    def test_covariance_inside_support(self, spec_unit):
        rho = 0.45
        x = geo.origin(2)
        y = geo.point_at(2, rho, np.array([1.0, 0.0]))
        n = 10000
        draws = np.array([fd.sample_field(spec_unit, np.vstack([x, y]), seed=i).values
                          for i in range(n)])
        emp = np.mean(draws[:, 0] * draws[:, 1])
        target = spec_unit.cov(rho)
        se = np.std(draws[:, 0] * draws[:, 1]) / math.sqrt(n)
        assert abs(emp - target) <= 4 * se

    def test_stationarity_binned(self, spec_unit):
        # same-distance pairs in different placements agree on covariance
        rho = 0.5
        rng = stream(3, "stat")
        x1 = geo.origin(2)
        y1 = geo.point_at(2, rho, np.array([1.0, 0.0]))
        x2 = geo.point_at(2, 1.7, np.array([0.0, 1.0]))
        u = geo.tangent_step(x2, rho * np.array([0.6, -0.8]))
        y2 = geo.exp_map(x2, u)
        sites = np.vstack([x1, y1, x2, y2])
        n = 10000
        draws = np.array([fd.sample_field(spec_unit, sites, seed=i).values
                          for i in range(n)])
        c1 = np.mean(draws[:, 0] * draws[:, 1])
        c2 = np.mean(draws[:, 2] * draws[:, 3])
        se = math.hypot(np.std(draws[:, 0] * draws[:, 1]),
                        np.std(draws[:, 2] * draws[:, 3])) / math.sqrt(n)
        assert abs(c1 - c2) <= 4 * se


class TestExtension:
    def test_far_site_unconditional(self, spec_unit):
        o = geo.origin(2)[None, :]
        far = geo.point_at(2, 3.0, np.array([1.0, 0.0]))[None, :]
        vals = []
        for i in range(8000):
            base = fd.sample_field(spec_unit, o, seed=i)
            ext = fd.extend_field(base, far, seed=10 ** 6 + i)
            vals.append(ext.values[-1])
        vals = np.asarray(vals)
        assert abs(np.var(vals) - 1.0) <= 4 * math.sqrt(2.0 / 8000)
        assert abs(np.mean(vals)) <= 4 / math.sqrt(8000)

    def test_redraw_same_seed_identical(self, spec_unit):
        rng = stream(4, "ext")
        base = fd.sample_field(spec_unit, geo.sample_region(geo.BallRegion(1.0), 2, rng, 6), seed=3)
        new = geo.sample_region(geo.BallRegion(1.0), 2, rng, 4)
        a = fd.extend_field(base, new, seed=11)
        b = fd.extend_field(base, new, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_overlap_rejected(self, spec_unit):
        rng = stream(5, "dup")
        sites = geo.sample_region(geo.BallRegion(1.0), 2, rng, 6)
        base = fd.sample_field(spec_unit, sites, seed=3)
        with pytest.raises(ConstraintViolation):
            fd.extend_field(base, sites[2:3], seed=0)

    def test_coincident_new_sites_rejected(self, spec_unit):
        # two equal new sites would give one point two values
        base = fd.sample_field(spec_unit, geo.origin(2)[None, :], seed=1)
        p = geo.point_at(2, 0.5, np.array([1.0, 0.0]))
        with pytest.raises(ConstraintViolation):
            fd.extend_field(base, np.vstack([p, p]), seed=3)

    def test_coincidence_rule_matches_one_shot(self, spec_unit):
        # far from o, a new site next to an existing one is rejected exactly
        # when a one-shot draw rejects the pair (1e-7 apart, cosh d - 1 is
        # 4.9e-15, below the 1e-14 threshold)
        x = geo.point_at(2, 5.0, np.array([0.6, 0.8]))
        base = fd.sample_field(spec_unit, x[None, :], seed=0)
        for gap, distinct in [(1e-9, False), (1e-7, False), (1e-6, True)]:
            y = geo.frame_step(x, np.array([gap, 0.0]))
            if distinct:
                assert fd.sample_field(spec_unit, np.vstack([x, y]), 0).n_sites == 2
                assert fd.extend_field(base, y, seed=1).n_sites == 2
                continue
            with pytest.raises(ConstraintViolation):
                fd.sample_field(spec_unit, np.vstack([x, y]), seed=0)
            with pytest.raises(ConstraintViolation):
                fd.extend_field(base, y, seed=1)

    def test_largest_jitter_kept(self, spec_unit, monkeypatch):
        jitters = iter([1e-8, 1e-10, 1e-12, 0.0])
        monkeypatch.setattr(fd, "_cholesky_with_jitter",
                            lambda mat, sigma2: (np.linalg.cholesky(mat), next(jitters)))
        ex = np.array([1.0, 0.0])
        base = fd.FieldRealization(spec_unit, geo.origin(2)[None, :], np.zeros(1), 2)
        one = fd.extend_field(base, geo.point_at(2, 0.3, ex)[None, :], seed=0)
        two = fd.extend_field(one, geo.point_at(2, 0.6, ex)[None, :], seed=1)
        assert two.meta["jitter"] == 1e-8

    def test_two_stage_matches_one_shot(self, spec_unit):
        rng = stream(6, "equiv")
        sA = geo.sample_region(geo.BallRegion(1.5), 2, rng, 8)
        sB = geo.sample_region(geo.BallRegion(1.5), 2, rng, 5)
        n = 10000
        two = np.empty((n, 13))
        for i in range(n):
            fA = fd.sample_field(spec_unit, sA, seed=1000 + i)
            two[i] = fd.extend_field(fA, sB, seed=500000 + i).values
        joint = spec_unit.cov_matrix(np.vstack([sA, sB]))
        emp = (two.T @ two) / n
        prods = two[:, :, None] * two[:, None, :]
        se = np.std(prods, axis=0) / math.sqrt(n)
        assert np.all(np.abs(emp - joint) <= 4 * se + 1e-12)

    @given(d=st.sampled_from([2, 3]), n_old=st.integers(1, 60),
           n_new=st.integers(1, 8), seed=st.integers(0, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_matches_schur_complement_oracle(self, d, n_old, n_new, seed):
        # the joint factor's law equals the Schur-complement draw's, and the
        # same seed feeds both the same normals, so the values agree to
        # roundoff; new sites sit near old ones or anywhere up to radius 4
        # (a block beyond the conditioning radius has no conditioning site)
        spec = fd.make_spec(1.0, 1.0, "poly3", d=d)
        old = geo.greedy_packing(geo.BallRegion(1.5), 0.125, d, seed=seed,
                                 max_centers=n_old).centers
        base = fd.sample_field(spec, old, seed=seed)
        rng = stream(seed, "extend-oracle")
        dirs = rng.standard_normal((32, d))
        steps = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        near = geo.frame_step(old[rng.integers(0, len(old), 32)],
                              steps * rng.uniform(0.05, 0.6, (32, 1)))
        cand = np.concatenate([near, geo.sample_region(geo.BallRegion(4.0), d,
                                                       rng, 32)])
        new = []
        for p in cand[rng.permutation(len(cand))]:
            if (np.min(geo.distance(old, p, validate=False)) >= 0.05
                    and all(geo.distance(q, p, validate=False) >= 0.05
                            for q in new)):
                new.append(p)
            if len(new) == n_new:
                break
        new = np.array(new)
        ext = fd.extend_field(base, new, seed=seed + 1)
        want, want_jitter = oracle_extend_values(base, new, seed + 1)
        assert base.meta["jitter"] == 0.0
        assert ext.meta["jitter"] == 0.0 and want_jitter == 0.0
        assert np.array_equal(ext.values[:len(old)], base.values)
        assert np.allclose(ext.values[len(old):], want, rtol=0, atol=1e-10)


class TestJitterLadder:
    def test_jitter_zero_holds_no_copy(self, spec_unit):
        # a 1024-site packing factorises at jitter 0; copying the matrix
        # first would double the peak to about 2 n^2 doubles
        sites = geo.greedy_packing(geo.BallRegion(10.0), 0.125, 2, seed=5,
                                   max_centers=1024).centers
        n = len(sites)
        cov = spec_unit.cov_matrix(sites)
        tracemalloc.start()
        try:
            L, jit = fd._cholesky_with_jitter(cov, spec_unit.sigma2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 1024 and jit == 0.0
        assert peak < 1.25 * n * n * 8
        assert np.array_equal(L, np.linalg.cholesky(cov))

    def test_positive_jitter_leaves_input(self):
        # rank one: the jitter-0 attempt fails, the first positive one works
        mat = np.ones((3, 3))
        L, jit = fd._cholesky_with_jitter(mat, 1.0)
        assert jit > 0.0
        assert np.array_equal(mat, np.ones((3, 3)))
        assert np.allclose(L @ L.T, mat + jit * np.eye(3), rtol=0, atol=1e-15)


class TestTilted:
    def test_mean_at_origin(self, spec_unit):
        sites = np.vstack([geo.origin(2)[None, :],
                           geo.sample_region(geo.BallRegion(1.2), 2, stream(7, "t"), 5)])
        n = 10000
        vals = np.array([fd.tilted_sample(spec_unit, sites, 2.0, seed=i).values[0]
                         for i in range(n)])
        assert abs(np.mean(vals) - 2.0) <= 4 / math.sqrt(n)

    def test_mean_beyond_support(self, spec_unit):
        sites = np.vstack([geo.origin(2)[None, :],
                           geo.point_at(2, 2.0, np.array([1.0, 0.0]))[None, :]])
        n = 10000
        vals = np.array([fd.tilted_sample(spec_unit, sites, 3.0, seed=i).values[1]
                         for i in range(n)])
        assert abs(np.mean(vals)) <= 4 / math.sqrt(n)

    def test_zero_tilt_matches_plain(self, spec_unit):
        from scipy import stats as sps
        sites = geo.sample_region(geo.BallRegion(1.0), 2, stream(8, "z"), 4)
        a = np.array([fd.tilted_sample(spec_unit, sites, 0.0, seed=i).values[0]
                      for i in range(4000)])
        b = np.array([fd.sample_field(spec_unit, sites, seed=10 ** 6 + i).values[0]
                      for i in range(4000)])
        assert sps.ks_2samp(a, b).pvalue > 0.01


class TestMaxScan:
    def test_single_site_half_normal(self, spec_unit):
        rows = fd.max_scan(spec_unit, 2, [0.2], spacing=0.25, n_reps=4000,
                           seed=10, site_cap=4)
        assert rows[0].n_sites == 1
        target = math.sqrt(2.0 / math.pi)
        se = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(4000)
        assert abs(rows[0].mean_max - target) <= 4 * se

    def test_spacing_precondition(self, spec_unit):
        with pytest.raises(ConstraintViolation):
            fd.max_scan(spec_unit, 2, [1.0], spacing=0.7, n_reps=2, seed=0)

    def test_oneshot_budget(self, spec_unit, monkeypatch):
        # the scan's factorisation is held to the one-shot site budget too
        monkeypatch.setattr(fd, "MAX_ONESHOT_SITES", 100)
        with pytest.raises(BudgetExceeded):
            fd.max_scan(spec_unit, 2, [5.0], spacing=0.25, n_reps=2, seed=0,
                        site_cap=128)

    def test_exceedance_trend_and_borell(self, spec_unit):
        rows = fd.max_scan(spec_unit, 2, [5.0, 10.0, 20.0], spacing=0.25,
                           n_reps=48, seed=9, site_cap=1024)
        exc = [r.exceedance[0.5] for r in rows]
        assert exc[0] > 0
        assert all(exc[i] >= exc[i + 1] for i in range(len(exc) - 1))
        for r in rows:
            _, ok = fd.borell_bound_check(r.maxima, 1.0)
            assert ok


def test_tail_constant_estimation(spec_unit):
    c_hat, fit = fd.estimate_tail_constant(spec_unit, 2, n_reps=4000, seed=2)
    assert c_hat > 0
    assert fit.r2 > 0.8


def test_gradient_growth_subscaling(spec_unit):
    rows, fit = fd.gradient_growth_scan(spec_unit, 2, [5.0, 10.0, 20.0], seed=3,
                                        n_sites=192)
    assert fit.slope <= 0.75


class TestIslandsClusters:
    def _field(self, spec, values, radius=3.0, n=None, seed=0):
        rng = stream(seed, "icl")
        sites = geo.sample_region(geo.BallRegion(radius), 2, rng, len(values))
        return fd.FieldRealization(spec, sites, np.asarray(values, float), 2, h=0.25)

    def test_empty(self, spec_unit):
        f = self._field(spec_unit, [-1.0, -2.0, 0.1], seed=1)
        isl = fd.detect_islands(f, delta=1.0, t=1.0)
        assert len(isl) == 0

    def test_singleton(self, spec_unit):
        f = self._field(spec_unit, [-1.0, 5.0, 0.1], seed=2)
        isl = fd.detect_islands(f, delta=1.0, t=1.0)
        assert len(isl) == 1 and isl.islands[0] == [1]

    def test_requires_spacing(self, spec_unit):
        f = fd.FieldRealization(spec_unit, geo.origin(2)[None, :],
                                np.array([3.0]), 2, h=None)
        with pytest.raises(ConstraintViolation):
            fd.detect_islands(f, 1.0, 1.0)

    def test_two_islands_far_apart_two_clusters(self, spec_unit):
        ex = np.array([1.0, 0.0])
        t = 1.0
        eta = 0.3
        sites = np.vstack([geo.point_at(2, 0.5, ex), geo.point_at(2, 2.5, ex)])
        f = fd.FieldRealization(spec_unit, sites, np.array([5.0, 5.0]), 2, h=0.25)
        isl = fd.detect_islands(f, 1.0, t)
        assert len(isl) == 2
        cl = fd.build_clusters(isl, eta, t)   # separation 2.0 > 2 * 0.3
        assert len(cl) == 2

    def test_chain_merges_into_one_cluster(self, spec_unit):
        ex = np.array([1.0, 0.0])
        radii = [0.5, 0.64, 0.78, 0.92]      # spaced at eta * t^(4/3) / 2 = 0.15
        sites = np.vstack([geo.point_at(2, r, ex) for r in radii])
        f = fd.FieldRealization(spec_unit, sites, np.full(4, 5.0), 2, h=0.05)
        isl = fd.detect_islands(f, 1.0, 1.0)
        assert len(isl) == 4
        cl = fd.build_clusters(isl, eta=0.3, t=1.0)
        assert len(cl) == 1

    def test_cluster_invariants(self, spec_unit):
        rng = stream(11, "ci")
        sites = geo.sample_region(geo.BallRegion(3.0), 2, rng, 200)
        f = fd.FieldRealization(spec_unit, sites, rng.normal(0, 1, 200), 2, h=0.25)
        isl = fd.detect_islands(f, 0.3, 1.0)
        thr = 0.3
        for g in isl.islands:
            assert np.all(f.values[np.asarray(g)] > thr)
        if len(isl) > 1:
            cl = fd.build_clusters(isl, eta=0.2, t=1.0)
            # inter-cluster distance exceeds the link distance
            for i in range(len(cl)):
                for j in range(i + 1, len(cl)):
                    a = f.sites[np.asarray(cl.clusters[i].site_indices)]
                    b = f.sites[np.asarray(cl.clusters[j].site_indices)]
                    dmin = np.min(geo.distance(a[:, None, :], b[None, :, :],
                                               validate=False))
                    assert dmin > cl.link_distance

    def test_report_schema(self, spec_unit):
        f = self._field(spec_unit, [5.0, -1.0, 4.0], seed=3)
        isl = fd.detect_islands(f, 1.0, 1.0)
        cl = fd.build_clusters(isl, 0.2, 1.0)
        rep = cl.report()
        assert set(rep) == {"clusters"}
        for c in rep["clusters"]:
            assert set(c) == {"id", "center", "diameter", "n_islands", "n_sites"}


class TestNeighbourIndex:
    """Index-backed lookups against dense scans on random site sets."""

    @staticmethod
    def _sites(d, radius, n, seed):
        rng = stream(seed, "index")
        sites = geo.sample_region(geo.BallRegion(radius), d, rng, n)
        # exact ties: a repeated site, and sites on a small sphere around o;
        # a site 1e-9 from the first, whose cosh-distance to it rounds to 1,
        # so it ties with the first even where it is the Euclidean nearest
        dirs = np.vstack([np.eye(d), -np.eye(d)])
        ring = geo.point_at(d, np.full(2 * d, 0.02), dirs)
        twin = geo.frame_step(sites[:1], 1e-9 * np.eye(d)[:1])
        return np.vstack([sites, sites[:1], ring, twin]), rng

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.5, 20.0),
           n=st.integers(1, 120), h=st.none() | st.floats(0.05, 2.0),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_nearest_site_matches_dense(self, spec_unit, d, radius, n, h, seed):
        sites, rng = self._sites(d, radius, n, seed)
        # some queries sit on sites (the twin among them) or at o, some lie
        # beyond every site's reach
        queries = np.vstack([geo.origin(d)[None, :], sites[::7], sites[-1:],
                             geo.sample_region(geo.BallRegion(radius + 2.0), d, rng, 60)])
        f = fd.FieldRealization(spec_unit, sites, np.zeros(len(sites)), d, h=h)
        want_idx, want_dist = oracle_nearest_site(sites, queries)
        idx, dist = f.nearest_site(queries)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        if h is None:
            return
        within, within_dist = f.nearest_site_within(queries, h)
        hit = want_dist <= h
        assert np.array_equal(within[hit], want_idx[hit])
        assert np.array_equal(within_dist[hit], want_dist[hit])
        assert np.all(within[~hit] == -1) and np.all(np.isinf(within_dist[~hit]))

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.5, 20.0),
           n=st.integers(1, 80), h=st.floats(0.05, 1.0),
           eta=st.sampled_from([1e-4, 3.0]), seed=st.integers(0, 2 ** 31 - 1))
    def test_partition_matches_dense(self, spec_unit, d, radius, n, h, eta, seed):
        sites, rng = self._sites(d, radius, n, seed)
        values = rng.normal(0.0, 1.0, len(sites))
        f = fd.FieldRealization(spec_unit, sites, values, d, h=h)
        isl = fd.detect_islands(f, 0.3, 1.0)
        assert sorted(isl.islands) == oracle_islands(f, 0.3, 1.0, h)
        cl = fd.build_clusters(isl, eta, 1.0)
        assert sorted(c.site_indices for c in cl.clusters) == oracle_clusters(isl, eta, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 3]), r=st.floats(0.0, 36.0),
           log_step=st.floats(-5.0, 0.7), way=st.sampled_from(["in", "out", "any"]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_candidate_radius_holds_ball(self, d, r, log_step, way, seed):
        # a pair at computed distance dist is a candidate at rho = dist, from
        # either end, at every radius, past the cutoff too; the inward radial
        # step meets the bound with equality
        rng = stream(seed, "ball")
        direction = geo.random_direction(d, rng)
        x = geo.point_at(d, r, direction)
        step = {"in": -direction, "out": direction,
                "any": geo.random_direction(d, rng)}[way]
        y = geo.frame_step(x, 10.0 ** log_step * step)
        dist = geo.distance(x, y, validate=False)
        for a, b in ((x, y), (y, x)):
            _, si = geo._SiteIndex(b[None, :]).candidates(a[None, :], dist)
            assert si.tolist() == [0]

    def test_conditioning_candidates_tight(self, monkeypatch):
        # the conditioning query of the lazy field returns a small share of
        # the sites; a bound loose by a factor e^r returns most of them
        from hypam import feynman_kac as fk
        spec = fd.make_spec(0.25, 1.0)
        cond_radius = COND_RADIUS_FACTOR * spec.R0
        counts = {"pairs": 0, "all": 0}
        candidates = geo._SiteIndex.candidates

        def counting(index, points, rho):
            qi, si = candidates(index, points, rho)
            if np.isscalar(rho) and rho == cond_radius:
                counts["pairs"] += si.size
                counts["all"] += len(points) * len(index.sites)
            return qi, si

        monkeypatch.setattr(geo._SiteIndex, "candidates", counting)
        fk.fk_estimate(spec, 2, 2.0, 0.01, 60, seed=5)
        assert counts["all"] > 0
        assert counts["pairs"] < 0.2 * counts["all"]

    def test_cluster_labels_follow_lowest_island(self, spec_unit):
        # four single-site islands on a geodesic; islands 0 and 3 link, and
        # so do 1 and 2, so the cluster holding island 0 must come first
        along = geo.point_at(2, np.array([0.0, 5.0, 5.3, 0.3]),
                             np.tile([1.0, 0.0], (4, 1)))
        f = fd.FieldRealization(spec_unit, along, np.full(4, 5.0), 2, h=0.01)
        isl = fd.detect_islands(f, 1.0, 1.0)
        assert isl.islands == [[0], [1], [2], [3]]
        cl = fd.build_clusters(isl, 0.4, 1.0)
        assert [(c.label, c.island_ids) for c in cl.clusters] == [(0, [0, 3]),
                                                                  (1, [1, 2])]


def test_factorization_failure_on_invalid_profile():
    # an oscillating "covariance" is indefinite on enough sites, and the
    # jitter ladder must refuse to paper over it
    from scipy.interpolate import CubicSpline
    grid = np.linspace(0.0, 10.0, 801)
    vals = np.cos(6.0 * grid)
    fake = fd.CovarianceSpec(1.0, 10.0, "poly3", 2, grid, vals,
                             CubicSpline(grid, vals))
    sites = geo.sample_region(geo.BallRegion(4.0), 2, stream(13, "bad"), 40)
    with pytest.raises(fd.FactorizationError):
        fd.sample_field(fake, sites, seed=0)


def test_cluster_constants_worked_example():
    L, eta = fd.cluster_constants(1.0, 2, 1.0, 1.0)
    assert abs(L - 2.02) < 1e-12
    assert abs(eta - 0.0275) < 5e-5
    L_half, _ = fd.cluster_constants(0.5, 2, 1.0, 1.0)
    assert abs(L_half - 4.0 * L) < 1e-9


def test_cluster_property_trend():
    # parameters chosen so the rich-ball event is geometrically possible
    # (ball radius sqrt(eta_delta) * t^(4/3) well above the 9 R0 separation)
    # and common at the smallest t of the grid
    spec = fd.make_spec(1.0, 0.25, "poly3", d=2)
    freqs = fd.cluster_property_trend(spec, 2, [8.0, 16.0, 24.0], delta=0.5,
                                      K0=1.0, C_R0_hat=5.39, seed=4,
                                      n_reps=24, region_radius=4.0, site_cap=700)
    vals = [f for _, f in freqs]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[0] > 0 and vals[2] < vals[0]


@pytest.mark.parametrize("d, seed", [(2, 31), (2, 32), (2, 33), (2, 34), (3, 35), (3, 36)])
def test_rich_ball_event_matches_literal_scan(d, seed):
    # random sites, so ball contents and pairwise separations vary over the grid
    spec = fd.make_spec(1.0, 1.0, "poly3", d=d)
    sites = geo.sample_region(geo.BallRegion(2.0), d, stream(seed, "rich"), 60)
    f = fd.sample_field(spec, sites, seed=seed)
    outcomes = []
    # threshold, ball radius, min_points, separation
    for args in itertools.product((-0.5, 0.5, 1.2), (0.4, 1.0, 2.5), (1, 2.5, 4),
                                  (0.2, 0.6, 1.2)):
        got = fd.rich_ball_event(f, *args)
        assert got == oracle_rich_ball_event(f, *args)
        outcomes.append(got)
    assert any(outcomes) and not all(outcomes)
