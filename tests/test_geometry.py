import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from hypam import geometry as geo
from hypam.config import stream
from oracles import (oracle_cosh_distance, oracle_covering_probe,
                     oracle_exp_map, oracle_frame_step, oracle_greedy_keep,
                     oracle_greedy_packing, oracle_minkowski_dot, oracle_polar,
                     oracle_tangent_step, poincare_distance, side_length)


def _direction(d, rng):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_distance_identity():
    o = geo.origin(2)
    assert geo.distance(o, o) == 0.0


def test_distance_unit_construction():
    o = geo.origin(2)
    x = np.array([np.cosh(1.0), np.sinh(1.0), 0.0])
    assert abs(geo.distance(o, x) - 1.0) < 1e-12


def test_distance_additive_on_geodesic():
    rng = stream(0, "geo")
    for _ in range(50):
        a = geo.point_at(3, rng.uniform(0.1, 3.0), _direction(3, rng))
        b = geo.point_at(3, rng.uniform(0.1, 3.0), _direction(3, rng))
        m = geo.geodesic_point(a, b, rng.uniform(0.1, 0.9))
        assert abs(geo.distance(a, b) - geo.distance(a, m) - geo.distance(m, b)) < 1e-9


def test_invalid_point_rejected():
    with pytest.raises(geo.InvalidPoint):
        geo.check_points(np.array([1.0, 0.5, 0.0]))


def test_triangle_and_symmetry_fuzz():
    rng = stream(1, "tri")
    n = 100000
    pts = geo.sample_region(geo.BallRegion(5.0), 2, rng, 3 * n).reshape(3, n, 3)
    a, b, c = pts
    dab = geo.distance(a, b)
    dba = geo.distance(b, a)
    dac = geo.distance(a, c)
    dbc = geo.distance(b, c)
    assert np.max(np.abs(dab - dba)) < 1e-9
    assert np.min(dab + dbc - dac) > -1e-9


def test_geodesic_endpoints_and_midpoint():
    rng = stream(2, "mid")
    x = geo.point_at(2, 1.3, _direction(2, rng))
    y = geo.point_at(2, 2.1, _direction(2, rng))
    assert np.allclose(geo.geodesic_point(x, y, 0.0), x, atol=1e-12)
    assert np.allclose(geo.geodesic_point(x, y, 1.0), y, atol=1e-10)
    m = geo.geodesic_point(x, y, 0.5)
    half = geo.distance(x, y) / 2.0
    assert abs(geo.distance(x, m) - half) < 1e-9
    assert abs(geo.distance(m, y) - half) < 1e-9


def test_geodesic_unit_speed():
    rng = stream(3, "speed")
    x = geo.point_at(2, 0.7, _direction(2, rng))
    y = geo.point_at(2, 2.9, _direction(2, rng))
    rho = geo.distance(x, y)
    s = np.sort(rng.random(20))
    pts = geo.geodesic_point(x, y, s)
    seg = geo.distance(pts[:-1], pts[1:])
    assert np.max(np.abs(seg - np.diff(s) * rho)) < 1e-8


@pytest.mark.parametrize("d", [2, 3])
def test_frame_step_batch(d):
    rng = stream(10, "frame", d)
    radii = np.repeat([0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0], 64)
    x = geo.point_at(d, radii, rng.standard_normal((radii.size, d)))
    c = 0.5 * rng.standard_normal((radii.size, d))
    c[0] = 0.0
    y = geo.frame_step(x, c)
    geo.check_points(y)
    # the naive route recomputes the step norm from the Minkowski form, so
    # it is only trustworthy at moderate radius
    mid = radii <= 5.0
    # reference: the explicit frame u_i = e_i + x_i (x + e_0) / (1 + x_0)
    frames = np.eye(d + 1)[1:] + (x[:, 1:, None] / (1.0 + x[:, :1, None])
                                  * (x + geo.origin(d))[:, None, :])
    v = oracle_tangent_step(x[mid], c[mid])
    assert np.allclose(v, np.einsum("ni,nij->nj", c, frames)[mid],
                       rtol=1e-12, atol=1e-12)
    naive = oracle_exp_map(x[mid], v)
    assert np.allclose(y[mid], naive, rtol=1e-9, atol=1e-12)
    # step length is |c|; past radius ~10 float64 coordinates resolve
    # positions only to about one ulp of x0, which the tolerance adds
    tol = 1e-9 + 2.0 * np.finfo(float).eps * x[:, 0]
    err = np.abs(geo.distance(x, y) - np.linalg.norm(c, axis=1))
    assert np.all(err <= tol)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), m=st.integers(1, 40), k=st.integers(1, 9),
       scale=st.floats(0.0, 12.0), seed=st.integers(0, 2 ** 31 - 1))
def test_column_sums_match_axis_reductions(d, m, k, scale, seed):
    # pairs, a broadcast (m, k) block, a single point and zero spatial parts
    rng = stream(seed, "colsum")
    x = geo.point_at(d, scale * rng.random(m), rng.standard_normal((m, d)))
    y = geo.point_at(d, scale * rng.random(k), rng.standard_normal((k, d)))
    x[0] = geo.origin(d)
    c = rng.standard_normal((m, d)) * rng.random((m, 1))
    c[-1] = 0.0
    for a, b in ((x, x[::-1]), (x[:, None, :], y[None, :, :]), (x[0], y[-1])):
        assert np.array_equal(geo.cosh_distance(a, b), oracle_cosh_distance(a, b))
        assert np.array_equal(geo.minkowski_dot(a, b), oracle_minkowski_dot(a, b))
    assert np.array_equal(geo.frame_step(x, c), oracle_frame_step(x, c))
    fan = c[:, None, :] * rng.random((1, k, 1))
    cands = geo.frame_step(x[:, None, :], fan)
    assert np.array_equal(cands, oracle_frame_step(x[:, None, :], fan))
    # the bridge sampler's shape: a fan of candidates against one endpoint
    end = y[-1][None, None, :]
    assert np.array_equal(geo.cosh_distance(cands, end),
                          oracle_cosh_distance(cands, end))
    for pts in (x, y[-1], cands):
        for part, want in zip(geo._polar(pts), oracle_polar(pts)):
            assert np.array_equal(part, want)


def test_geodesic_convexity():
    # d(alpha_s, beta_s) <= max of the endpoint distances, many random pairs
    rng = stream(4, "conv")
    n = 10000
    ends = geo.sample_region(geo.BallRegion(3.0), 2, rng, 4 * n).reshape(4, n, 3)
    a0, a1, b0, b1 = ends
    s = rng.random(n)
    pa = geo.geodesic_point(a0, a1, s)
    pb = geo.geodesic_point(b0, b1, s)
    lhs = geo.distance(pa, pb)
    cap = np.maximum(geo.distance(a0, b0),
                     geo.distance(a1, b1))
    assert np.max(lhs - cap) < 1e-9


def test_cross_model_distance():
    rng = stream(5, "poincare")
    n = 10000
    x = geo.sample_region(geo.BallRegion(4.0), 3, rng, n)
    y = geo.sample_region(geo.BallRegion(4.0), 3, rng, n)
    d_hyp = geo.distance(x, y)
    d_ball = poincare_distance(geo.to_poincare(x), geo.to_poincare(y))
    assert np.max(np.abs(d_hyp - d_ball)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(lo=st.floats(0.0, 10.0), width=st.floats(1e-6, 30.0),
       n=st.integers(1, 3000), d=st.integers(2, 5))
def test_cumulative_trapezoid_matches_scipy(lo, width, n, d):
    # the radial samplers' running integral is scipy's, bit for bit
    grid = np.linspace(lo, lo + width, n)
    dens = np.sinh(grid) ** (d - 1)
    assert np.array_equal(geo._cumulative_trapezoid(dens, grid),
                          cumulative_trapezoid(dens, grid, initial=0.0))


@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(0.0, np.pi))
@settings(max_examples=200, deadline=None)
def test_side_length_triangle(r1, r2, theta):
    # law-of-cosines side obeys the triangle inequality against its legs
    s = side_length(r1, r2, theta)
    assert s <= r1 + r2 + 1e-9
    assert s >= abs(r1 - r2) - 1e-9


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 60), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 31 - 1))
def test_greedy_keep_matches_matrix_oracle(data, n, density, seed):
    # a random symmetric "too close" matrix, fed as its i < j pairs
    limit = data.draw(st.integers(0, n + 1))
    upper = np.triu(stream(seed, "greedy").random((n, n)) < density, k=1)
    i, j = np.nonzero(upper)
    assert np.array_equal(geo._greedy_keep(i, j, n, limit),
                          oracle_greedy_keep(upper | upper.T, limit))


class TestPacking:
    def test_tight_ball_single_center(self):
        p = geo.greedy_packing(geo.BallRegion(0.5), 0.5, 2, seed=0, max_centers=4096)
        assert len(p) == 1
        assert np.allclose(p.centers[0], geo.origin(2))

    def test_region_too_small(self):
        with pytest.raises(geo.RegionTooSmall):
            geo.greedy_packing(geo.BallRegion(0.2), 0.5, 2, seed=0, max_centers=4096)

    def test_count_sandwich_Q5(self):
        # volume sandwich for a maximal 0.5-packing of the radius-5 ball in H^2
        p = geo.greedy_packing(geo.BallRegion(5.0), 0.5, 2, seed=7, max_centers=4096)
        assert p.maximal
        # a disc of radius R in H^2 has area 2 pi (cosh R - 1)
        area = {R: 2.0 * np.pi * (np.cosh(R) - 1.0) for R in (0.5, 1.0, 5.0, 5.5)}
        assert area[5.0] / area[1.0] <= len(p) <= area[5.5] / area[0.5]

    @staticmethod
    def check_separated_and_covering(p, d, radius):
        prod = -geo.minkowski_dot(p.centers[:, None, :], p.centers[None, :, :])
        dist = np.arccosh(np.maximum(1.0, prod))
        off = dist[~np.eye(len(p), dtype=bool)]
        assert np.min(off) > 2 * p.radius
        assert np.all(geo.radius(p.centers) <= radius - p.radius)
        assert p.maximal
        assert oracle_covering_probe(p, geo.BallRegion(radius), d,
                                     n_probes=10000, seed=1) == 1.0

    def test_separation_and_covering(self):
        # the random draws alone leave 3 of these probes uncovered (2-7 on
        # seeds 0-7); the gap pass covers every one
        p = geo.greedy_packing(geo.BallRegion(3.0), 0.25, 2, seed=3, max_centers=4096)
        self.check_separated_and_covering(p, 2, 3.0)

    def test_separation_and_covering_d3(self):
        p = geo.greedy_packing(geo.BallRegion(2.0), 0.25, 3, seed=0, max_centers=4096)
        self.check_separated_and_covering(p, 3, 2.0)

    @pytest.mark.parametrize("d, radius, r", [(2, 3.0, 0.25), (3, 1.5, 0.2),
                                              (2, 6.0, 0.5)])
    def test_gap_pass_alone_packs_and_covers(self, d, radius, r):
        # from no center at all, every center comes from the cube pass
        inner = geo._shrunk(geo.BallRegion(radius), r)
        index, covered = geo._fill_gaps(geo._SiteIndex(np.empty((0, d + 1))),
                                        inner, r, d, 10 ** 6)
        p = geo.Packing(index.sites.copy(), r, covered)
        self.check_separated_and_covering(p, d, radius)

    def test_gap_pass_stops_at_cap(self):
        p = geo.greedy_packing(geo.BallRegion(3.0), 0.25, 2, seed=3, max_centers=4096)
        capped = geo.greedy_packing(geo.BallRegion(3.0), 0.25, 2, seed=3,
                                    max_centers=len(p) - 2)
        assert len(capped) == len(p) - 2 and not capped.maximal
        assert np.array_equal(capped.centers, p.centers[:len(p) - 2])

    @pytest.mark.parametrize("chunk", [1, 1 << 8, 1 << 10, 1 << 30])
    def test_gap_pass_chunks_do_not_matter(self, monkeypatch, chunk):
        # a round's cubes are measured in chunks sized from the pairs found
        want = geo.greedy_packing(geo.BallRegion(2.0), 0.25, 3, seed=0, max_centers=4096)
        monkeypatch.setattr(geo, "_GAP_CHUNK", chunk)
        got = geo.greedy_packing(geo.BallRegion(2.0), 0.25, 3, seed=0, max_centers=4096)
        assert np.array_equal(got.centers, want.centers) and got.maximal

    @pytest.mark.parametrize("work", [256, 4096])
    def test_gap_pass_out_of_budget_is_not_maximal(self, monkeypatch, work):
        # a 2r-ball with a long rim (r = 12 in a ball of radius 30) needs
        # more than the budget; here a small budget stands in, spent inside
        # a round (256) or at a split (4096)
        p = geo.greedy_packing(geo.BallRegion(3.0), 0.25, 2, seed=3, max_centers=4096)
        monkeypatch.setattr(geo, "_GAP_WORK", work)
        short = geo.greedy_packing(geo.BallRegion(3.0), 0.25, 2, seed=3, max_centers=4096)
        assert not short.maximal
        assert np.array_equal(short.centers, p.centers[:len(short)])

    def test_packing_deterministic(self):
        p1 = geo.greedy_packing(geo.BallRegion(2.0), 0.3, 2, seed=11, max_centers=4096)
        p2 = geo.greedy_packing(geo.BallRegion(2.0), 0.3, 2, seed=11, max_centers=4096)
        assert np.array_equal(p1.centers, p2.centers)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), outer=st.floats(0.3, 4.5),
           frac=st.floats(0.02, 1.0), max_centers=st.integers(1, 700),
           seed=st.integers(0, 2 ** 31 - 1))
    # one batch holds 512 candidates, so a cap of 600 falls inside a later one
    @example(d=2, outer=5.0, frac=0.05, max_centers=600, seed=1)
    def test_matches_one_by_one_oracle(self, d, outer, frac, max_centers, seed):
        r = max(frac * outer, 0.1)
        region = geo.BallRegion(outer)
        p = geo.greedy_packing(region, r, d, seed=seed, max_centers=max_centers)
        want, maximal = oracle_greedy_packing(region, r, d, seed, max_centers)
        assert np.array_equal(p.centers, want)
        assert p.maximal == maximal
        if maximal:
            assert oracle_covering_probe(p, region, d, n_probes=2000, seed=seed) == 1.0
