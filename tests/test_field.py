import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from hypam import field as fd, geometry as geo
from hypam.config import (BudgetExceeded, COND_RADIUS_FACTOR, COND_SITE_CAP,
                          ConstraintViolation, JITTER_LADDER, stream)
from oracles import (oracle_clusters, oracle_conditioning_set, oracle_cov,
                     oracle_cov_matrix, oracle_exp_map, oracle_extend_values,
                     oracle_islands, oracle_nearest_site, oracle_profile,
                     oracle_tangent_step)


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

    @pytest.mark.parametrize("d", [0, 1, 2.5])
    def test_rejects_dimension_it_cannot_tabulate(self, d):
        # the sin^(d-2) weight and the (d-1)-sphere area need an integer d >= 2
        with pytest.raises(ConstraintViolation, match="dimension"):
            fd.make_spec(1.0, 1.0, d=d)

    def test_integral_float_dimension_shares_the_int_entry(self):
        fd._unscaled_profile.cache_clear()
        as_float = fd.make_spec(1.0, 1.0, d=3.0)
        as_int = fd.make_spec(1.0, 1.0, d=3)
        assert type(as_float.d) is int and as_float.d == 3
        assert fd._unscaled_profile.cache_info().currsize == 1
        assert np.array_equal(as_float.pieces, as_int.pieces)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 4]), R0=st.sampled_from([0.25, 1.0, 3.0]),
           bump=st.sampled_from(sorted(fd._BUMPS)),
           sigma2=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 31 - 1))
    def test_cov_matches_cubic_spline_oracle(self, d, R0, bump, sigma2, seed):
        # the piece table is scipy's clamped spline, and cov gives its values
        # bit for bit: at the knots and their float neighbours (where the
        # piece index is decided), on uniform draws, on both sides of R0, for
        # negative, infinite and NaN rho, and for scalar and 2-D inputs
        spec = fd.make_spec(sigma2, R0, bump, d=d)
        spline = CubicSpline(spec.rho_grid, spec.values, bc_type=((1, 0.0), (1, 0.0)))
        assert np.array_equal(spec.pieces, spline.c.T)
        grid = spec.rho_grid
        rng = np.random.default_rng(seed)
        rho = np.concatenate([
            grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf), -grid,
            rng.uniform(-1.5 * R0, 1.5 * R0, 3000), rng.uniform(0.0, R0, 3000),
            [R0, np.nextafter(R0, 0.0), 2.0 * R0, np.inf, -np.inf, np.nan, -0.0]])
        assert np.array_equal(spec.cov(rho), oracle_cov(spec, rho))
        block = rho[:3000].reshape(60, 50)
        assert np.array_equal(spec.cov(block), oracle_cov(spec, block))
        for x in (0.0, grid[1], -grid[len(grid) // 2], rho[-20], R0, np.inf, np.nan):
            got = spec.cov(x)
            assert type(got) is float and got == oracle_cov(spec, x)

    def test_table_matches_fine_quadrature(self):
        # the table's error is that of its 96-node quadrature, up to about
        # 3e-8 sigma2 here (poly3, d = 4); the reference is a 384-node rule,
        # itself within 1e-10 of a 768-node one, read between the knots
        sigma2 = 2.5
        worst = 0.0
        for d, R0, bump in itertools.product((2, 3, 4), (0.25, 1.0), sorted(fd._BUMPS)):
            spec = fd.make_spec(sigma2, R0, bump, d=d)
            rho = R0 * (np.arange(21) + 0.5) / 21
            err = np.max(np.abs(spec.cov(rho) - sigma2 * oracle_profile(R0, bump, d, rho)))
            worst = max(worst, err / sigma2)
        assert worst <= 5e-8

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

    @pytest.mark.parametrize("n", [1, 2, 7, 96, 384])
    def test_gauss_legendre_is_leggauss(self, n):
        x, w = fd._gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)

    def test_table_needs_no_dense_eigen_solve(self, monkeypatch):
        # the nodes come from the tridiagonal solve alone, so the table
        # builds with the dense eigvalsh gone and equals the cached one
        cached = fd._unscaled_profile(1.0, "poly3", 2)

        def dense(*args, **kwargs):
            raise AssertionError("dense eigen solve called")

        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        rebuilt = fd._unscaled_profile.__wrapped__(1.0, "poly3", 2)
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt, cached))


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
        u = oracle_tangent_step(x2, rho * np.array([0.6, -0.8]))
        y2 = oracle_exp_map(x2, u)
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

    def test_extending_an_older_realization_copies_its_rows(self, spec_unit):
        # a is extended to b, then a again: b keeps its rows, and a's second
        # child is the one a deep copy of a gives, as every extension copies
        # its parent's rows
        rng = stream(8, "fork")

        def band(lo, hi, n):   # n points at radii in [lo, hi]
            return geo.point_at(2, rng.uniform(lo, hi, n), rng.standard_normal((n, 2)))

        base = fd.sample_field(spec_unit, geo.sample_region(geo.BallRegion(1.0), 2, rng, 5),
                               seed=1)
        a = fd.extend_field(base, band(1.5, 2.0, 3), seed=2)
        twin = copy.deepcopy(a)
        b = fd.extend_field(a, band(2.5, 3.0, 4), seed=3)
        b_rows = b.sites.copy(), b.values.copy()
        # a second child, adding more rows than its parent holds
        new = band(3.5, 4.0, 40)
        c = fd.extend_field(a, new, seed=4)
        want = fd.extend_field(twin, new, seed=4)
        assert np.array_equal(b.sites, b_rows[0]) and np.array_equal(b.values, b_rows[1])
        assert np.array_equal(c.sites, want.sites) and np.array_equal(c.values, want.values)
        assert c.meta == want.meta and c.n_sites == a.n_sites + 40
        assert np.array_equal(c.sites[:a.n_sites], a.sites)
        # extending b copies b's rows and leaves c, a's newer child, untouched
        c_rows = c.sites.copy(), c.values.copy()
        e = fd.extend_field(b, new, seed=5)
        assert np.array_equal(e.sites[:b.n_sites], b_rows[0])
        assert np.array_equal(c.sites, c_rows[0]) and np.array_equal(c.values, c_rows[1])
        with pytest.raises(ValueError):
            e.values[0] = 0.0

    def test_largest_jitter_kept(self, spec_unit, monkeypatch):
        jitters = iter([1e-8, 1e-10, 1e-12, 0.0])
        monkeypatch.setattr(fd, "_lattice_factor",
                            lambda spec, sites: (np.linalg.cholesky(spec.cov_matrix(sites)),
                                                 next(jitters)))
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
            if (np.min(geo.distance(old, p)) >= 0.05
                    and all(geo.distance(q, p) >= 0.05
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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_capped_conditioning_set_matches_dense(self, spec_unit, monkeypatch,
                                                   seed):
        # over a hundred sites lie within the conditioning radius of three
        # new sites near o, so the set is the COND_SITE_CAP nearest, in the
        # dense scan's order, ahead of the new sites
        old = geo.greedy_packing(geo.BallRegion(2.5), 0.125, 2, seed=seed,
                                 max_centers=600).centers
        base = fd.sample_field(spec_unit, old, seed=seed)
        new = geo.sample_region(geo.BallRegion(0.5), 2, stream(seed, "cap"), 3)
        handed = []
        factor = fd._lattice_factor

        def capture(spec, sites):
            handed.append(sites)
            return factor(spec, sites)

        monkeypatch.setattr(fd, "_lattice_factor", capture)
        fd.extend_field(base, new, seed=seed + 1)
        near = oracle_conditioning_set(base, new)
        assert len(handed) == 1 and near.size == COND_SITE_CAP
        assert np.array_equal(handed[0], np.vstack([old[near], new]))


class TestJitterLadder:
    @staticmethod
    def rank_one(sigma2=4.0, R0=1.0):
        # C = sigma2 on every pair within R0: any site set within R0 of
        # itself has a rank-one covariance, singular at jitter 0, and with
        # sigma2 = 4 Cholesky's pivots 4 - 2 * 2 are exactly zero
        grid = np.linspace(0.0, R0, 801)
        vals = np.full(801, sigma2)
        spec = fd.CovarianceSpec(sigma2, R0, 2, grid, vals,
                                 fd._clamped_pieces(grid, vals))
        sites = geo.sample_region(geo.BallRegion(0.2), 2, stream(8, "rank-one"), 5)
        return spec, sites, np.full((5, 5), sigma2)

    def test_band_root_takes_first_positive_rung(self):
        spec, sites, cov = self.rank_one()
        perm, root, jit = fd._band_root(spec, sites)
        B = TestBandRoot.dense_band(root)
        assert len(root) == 5 and jit == JITTER_LADDER[1]
        # the shift is jitter * sigma2 = 4e-12, and Cholesky's backward error
        # here is below (n + 1) 2^-53 sigma2 = 2.7e-15
        assert np.allclose(B @ B.T, cov + jit * spec.sigma2 * np.eye(5),
                           rtol=0, atol=1e-14)

    def test_lattice_factor_takes_first_positive_rung(self):
        spec, sites, cov = self.rank_one()
        L, jit = fd._lattice_factor(spec, sites)
        assert jit == JITTER_LADDER[1]
        assert not np.any(np.triu(L, 1))
        assert np.allclose(L @ L.T, cov + jit * spec.sigma2 * np.eye(5),
                           rtol=0, atol=1e-14)


class TestBandRoot:
    @staticmethod
    def dense_band(root):
        n = root.shape[1]
        B = np.zeros((n, n))
        for k in range(len(root)):
            B[np.arange(k, n), np.arange(n - k)] = root[k, :n - k]
        return B

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.3, 12.0),
           n=st.integers(1, 300), R0=st.sampled_from([0.5, 1.0, 2.0]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_matches_dense_covariance_oracle(self, d, radius, n, R0, seed):
        # P^T (B B^T) P rebuilds the covariance of the sites in their own
        # order; Cholesky's backward error is at most (kd + 2) 2^-53 sigma2
        spec = fd.make_spec(1.3, R0, "poly3", d=d)
        sites = geo.greedy_packing(geo.BallRegion(radius), 0.125, d, seed=seed,
                                   max_centers=n).centers
        perm, root, jit = fd._band_root(spec, sites)
        B = self.dense_band(root)
        full = np.empty((len(sites), len(sites)))
        full[np.ix_(perm, perm)] = B @ B.T
        assert jit == 0.0
        assert np.allclose(full, oracle_cov_matrix(spec, sites), rtol=0,
                           atol=1e-12 * spec.sigma2)
        assert np.array_equal(np.sort(perm), np.arange(len(sites)))
        z = stream(seed, "band-apply").standard_normal((3, len(sites)))
        assert np.allclose(fd._band_draw(perm, root, z)[:, perm], z @ B.T,
                           rtol=0, atol=1e-12)
        assert np.allclose(fd._band_draw(perm, root, z[0])[perm], B @ z[0],
                           rtol=0, atol=1e-12)

    def test_no_pair_keeps_dense_arithmetic(self, spec_unit, monkeypatch):
        # one site, and 20 sites on a circle of radius 3, pairwise farther
        # apart than R0: the draw is the dense factor's sqrt(C(0)) z, bit for
        # bit, through a band of half-width 0 and with no ordering
        from scipy.sparse import csgraph

        def refuse(*args, **kwargs):
            raise AssertionError("a draw with no pair needs no ordering")

        ring = geo.point_at(2, np.full(20, 3.0),
                            np.c_[np.cos(np.arange(20) * 0.3),
                                  np.sin(np.arange(20) * 0.3)])
        gaps = geo.distance(ring[:, None, :], ring[None, :, :])
        assert np.min(gaps[np.triu_indices(20, 1)]) > spec_unit.R0
        dense = {len(s): fd._lattice_factor(spec_unit, s)[0]
                 for s in (geo.origin(2)[None, :], ring)}
        monkeypatch.setattr(csgraph, "reverse_cuthill_mckee", refuse)
        for sites in (geo.origin(2)[None, :], ring):
            for seed in range(10):
                got = fd.sample_field(spec_unit, sites, seed=seed)
                z = stream(seed, "field").standard_normal(len(sites))
                assert got.meta["jitter"] == 0.0
                assert np.array_equal(got.values, dense[len(sites)] @ z)

    def test_draw_holds_no_dense_matrix(self, spec_unit):
        # the clusters subcommand's 2048-site packing of Q_6; a dense
        # covariance alone would take n^2 doubles (33.5 MB)
        sites = geo.greedy_packing(geo.BallRegion(6.0), 0.125, 2, seed=2,
                                   max_centers=2048).centers
        n = len(sites)
        tracemalloc.start()
        try:
            f = fd.sample_field(spec_unit, sites, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 2048 and f.meta["jitter"] == 0.0
        assert peak < n * n * 8 / 4


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

    def test_one_factor_at_a_time(self, spec_unit, monkeypatch):
        # both radii hit the cap; from the second radius's factorisation on,
        # the first radius's band root and normals must already be released
        factor = fd._band_root

        def reset_then_factor(spec, sites):
            tracemalloc.reset_peak()
            return factor(spec, sites)

        monkeypatch.setattr(fd, "_band_root", reset_then_factor)
        tracemalloc.start()
        try:
            rows = fd.max_scan(spec_unit, 2, [5.0, 10.0], spacing=0.25,
                               n_reps=4, seed=0, site_cap=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.n_sites for r in rows] == [512, 512]
        assert peak < 1.3 * 512 * 512 * 8

    def test_exceedance_trend_and_borell(self, spec_unit):
        rows = fd.max_scan(spec_unit, 2, [5.0, 10.0, 20.0], spacing=0.25,
                           n_reps=48, seed=9, site_cap=1024)
        exc = [r.exceedance[0.5] for r in rows]
        assert exc[0] > 0
        assert all(exc[i] >= exc[i + 1] for i in range(len(exc) - 1))
        for r in rows:
            _, ok = fd.borell_bound_check(r.maxima, 1.0)
            assert ok


class TestIslandsClusters:
    def _field(self, spec, values, radius=3.0, n=None, seed=0):
        rng = stream(seed, "icl")
        sites = geo.sample_region(geo.BallRegion(radius), 2, rng, len(values))
        return fd.FieldRealization(spec, sites, np.asarray(values, float), 2)

    def test_empty(self, spec_unit):
        f = self._field(spec_unit, [-1.0, -2.0, 0.1], seed=1)
        isl = fd.detect_islands(f, delta=1.0, t=1.0, h=0.25)
        assert len(isl) == 0

    def test_singleton(self, spec_unit):
        f = self._field(spec_unit, [-1.0, 5.0, 0.1], seed=2)
        isl = fd.detect_islands(f, delta=1.0, t=1.0, h=0.25)
        assert len(isl) == 1 and isl.islands[0] == [1]

    def test_two_islands_far_apart_two_clusters(self, spec_unit):
        ex = np.array([1.0, 0.0])
        t = 1.0
        eta = 0.3
        sites = np.vstack([geo.point_at(2, 0.5, ex), geo.point_at(2, 2.5, ex)])
        f = fd.FieldRealization(spec_unit, sites, np.array([5.0, 5.0]), 2)
        isl = fd.detect_islands(f, 1.0, t, h=0.25)
        assert len(isl) == 2
        cl = fd.build_clusters(isl, eta, t)   # separation 2.0 > 2 * 0.3
        assert len(cl) == 2

    def test_chain_merges_into_one_cluster(self, spec_unit):
        ex = np.array([1.0, 0.0])
        radii = [0.5, 0.64, 0.78, 0.92]      # spaced at eta * t^(4/3) / 2 = 0.15
        sites = np.vstack([geo.point_at(2, r, ex) for r in radii])
        f = fd.FieldRealization(spec_unit, sites, np.full(4, 5.0), 2)
        isl = fd.detect_islands(f, 1.0, 1.0, h=0.05)
        assert len(isl) == 4
        cl = fd.build_clusters(isl, eta=0.3, t=1.0)
        assert len(cl) == 1

    def test_cluster_invariants(self, spec_unit):
        rng = stream(11, "ci")
        sites = geo.sample_region(geo.BallRegion(3.0), 2, rng, 200)
        f = fd.FieldRealization(spec_unit, sites, rng.normal(0, 1, 200), 2)
        isl = fd.detect_islands(f, 0.3, 1.0, h=0.25)
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
                    dmin = np.min(geo.distance(a[:, None, :], b[None, :, :]))
                    assert dmin > 0.2     # the link distance eta * t^(4/3)

    def test_report_schema(self, spec_unit):
        f = self._field(spec_unit, [5.0, -1.0, 4.0], seed=3)
        isl = fd.detect_islands(f, 1.0, 1.0, h=0.25)
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
        f = fd.FieldRealization(spec_unit, sites, np.zeros(len(sites)), d)
        want_idx, want_dist = oracle_nearest_site(sites, queries)
        idx, dist = f.nearest_site(queries)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        if h is None:
            return
        within, within_dist = f._neighbours().nearest_within(queries, h)[:2]
        hit = want_dist <= h
        assert np.array_equal(within[hit], want_idx[hit])
        assert np.array_equal(within_dist[hit], want_dist[hit])
        assert np.all(within[~hit] == -1) and np.all(np.isinf(within_dist[~hit]))

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.5, 12.0),
           n=st.integers(1, 400), h=st.floats(0.05, 1.0),
           steps=st.lists(st.integers(1, 160), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_grown_index_matches_dense(self, d, radius, n, h, steps, seed):
        # sites appended a block at a time: the index keeps an older k-d tree
        # and scans a tail, or rebuilds; its answers are the dense scan's
        sites, rng = self._sites(d, radius, n, seed)
        queries = np.vstack([geo.origin(d)[None, :], sites[::5],
                             geo.sample_region(geo.BallRegion(radius + 1.0), d, rng, 40)])
        index = geo._SiteIndex(sites[:1])
        for k in np.minimum(1 + np.cumsum(steps), len(sites)):
            older, index = index, index.extended(sites[len(index.sites):k])
            assert np.array_equal(index.sites, sites[:k])
            assert index._tree_n <= k <= index._tree_n + geo._TAIL_MAX
            want_idx, want_dist = oracle_nearest_site(sites[:k], queries)
            idx, dist = index.nearest(queries)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
            within, within_dist, cosh = index.nearest_within(queries, h)
            hit = want_dist <= h
            assert np.array_equal(within, np.where(hit, want_idx, -1))
            assert np.array_equal(within_dist, np.where(hit, want_dist, np.inf))
            assert np.array_equal(np.arccosh(np.maximum(1.0, cosh)), within_dist)
            # candidates are grouped by point, sites ascending, and hold
            # every pair within h
            qi, si, cosh = index.pairs(queries, h)
            assert np.all((np.diff(qi) > 0) | ((np.diff(qi) == 0) & (np.diff(si) > 0)))
            near = geo.distance(queries[:, None, :], sites[None, :k, :]) <= h
            assert near[qi, si].sum() == near.sum()
            assert np.array_equal(cosh, geo.cosh_distance(queries[qi], sites[si]))
            i, j, dist = index.close_pairs(h)
            fresh = geo._SiteIndex(sites[:k].copy())
            fi, fj, fdist = fresh.close_pairs(h)
            assert (np.array_equal(i, fi) and np.array_equal(j, fj)
                    and np.array_equal(dist, fdist))
        # a fork: extending the older index again leaves the newer one's
        # sites and answers where they were
        before = index.nearest_within(queries, h), index.pairs(queries, h)
        older.extended(geo.sample_region(geo.BallRegion(radius), d, rng, 5))
        assert np.array_equal(index.sites, sites[:k])
        after = index.nearest_within(queries, h), index.pairs(queries, h)
        for was, now in zip(before, after):
            assert all(np.array_equal(a, b) for a, b in zip(was, now))

    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from([2, 3]), radius=st.floats(0.5, 20.0),
           n=st.integers(1, 80), h=st.floats(0.05, 1.0),
           eta=st.sampled_from([1e-4, 3.0]), seed=st.integers(0, 2 ** 31 - 1))
    def test_partition_matches_dense(self, spec_unit, d, radius, n, h, eta, seed):
        sites, rng = self._sites(d, radius, n, seed)
        values = rng.normal(0.0, 1.0, len(sites))
        f = fd.FieldRealization(spec_unit, sites, values, d)
        isl = fd.detect_islands(f, 0.3, 1.0, h=h)
        assert sorted(isl.islands) == oracle_islands(f, 0.3, 1.0, h)
        cl = fd.build_clusters(isl, eta, 1.0)
        assert sorted(c.site_indices for c in cl.clusters) == oracle_clusters(isl, eta, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(d=st.sampled_from([2, 3]), r=st.floats(0.0, 36.0),
           log_step=st.floats(-5.0, 0.7), way=st.sampled_from(["in", "out", "any"]),
           seed=st.integers(0, 2 ** 31 - 1))
    # near o, dist inherits the error of arccosh(x0) at both ends
    @example(d=2, r=3.6179884479338343e-07, log_step=-3.875, way="in", seed=0)
    def test_candidate_radius_holds_ball(self, d, r, log_step, way, seed):
        # a pair at computed distance dist is a candidate at rho = dist, from
        # either end, at every radius, past the cutoff too; the inward radial
        # step meets the bound with equality
        rng = stream(seed, "ball")
        direction, other = (v / np.linalg.norm(v) for v in
                            (rng.standard_normal(d), rng.standard_normal(d)))
        x = geo.point_at(d, r, direction)
        step = {"in": -direction, "out": direction, "any": other}[way]
        y = geo.frame_step(x, 10.0 ** log_step * step)
        dist = geo.distance(x, y)
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
        f = fd.FieldRealization(spec_unit, along, np.full(4, 5.0), 2)
        isl = fd.detect_islands(f, 1.0, 1.0, h=0.01)
        assert isl.islands == [[0], [1], [2], [3]]
        cl = fd.build_clusters(isl, 0.4, 1.0)
        assert [(c.label, c.island_ids) for c in cl.clusters] == [(0, [0, 3]),
                                                                  (1, [1, 2])]


def test_factorization_failure_on_invalid_profile():
    # an oscillating "covariance" is indefinite on enough sites, and the
    # jitter ladder must refuse to paper over it
    grid = np.linspace(0.0, 10.0, 801)
    vals = np.cos(6.0 * grid)
    fake = fd.CovarianceSpec(1.0, 10.0, 2, grid, vals,
                             fd._clamped_pieces(grid, vals))
    sites = geo.sample_region(geo.BallRegion(4.0), 2, stream(13, "bad"), 40)
    with pytest.raises(fd.FactorizationError):
        fd.sample_field(fake, sites, seed=0)


def test_extension_failure_on_invalid_profile():
    # the same profile and 40 sites as an extension block: 20 conditioning
    # sites, then 20 new ones, through the dense kernel's ladder
    grid = np.linspace(0.0, 10.0, 801)
    vals = np.cos(6.0 * grid)
    fake = fd.CovarianceSpec(1.0, 10.0, 2, grid, vals,
                             fd._clamped_pieces(grid, vals))
    sites = geo.sample_region(geo.BallRegion(4.0), 2, stream(13, "bad"), 40)
    base = fd.FieldRealization(fake, sites[:20], np.zeros(20), 2)
    with pytest.raises(fd.FactorizationError):
        fd.extend_field(base, sites[20:], seed=0)


def test_cluster_constants_worked_example():
    L, eta = fd.cluster_constants(1.0, 2, 1.0, 1.0)
    assert abs(L - 2.02) < 1e-12
    assert abs(eta - 0.0275) < 5e-5
    L_half, _ = fd.cluster_constants(0.5, 2, 1.0, 1.0)
    assert abs(L_half - 4.0 * L) < 1e-9
