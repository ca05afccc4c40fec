"""Hyperbolic geometry in the hyperboloid model, curvature -1.

A point of H^d is a (d+1)-vector x with Minkowski self-product
``<x,x> = -x0^2 + x1^2 + ... + xd^2 = -1`` and ``x0 >= 1``.  All functions
take arrays whose last axis has length d+1 and broadcast over leading axes.
That axis is short (3 or 4 entries), so the hot kernels work on it one
coordinate column at a time: reductions add columns in sequence
(:func:`_row_dot`), and elementwise steps (:func:`frame_step`,
:func:`_polar`, :func:`_polar_cosh`) fill or combine whole columns rather
than broadcasting over that axis, each column in the arithmetic of the
broadcast form, so results keep every bit.
The Poincare ball gives the coordinates of the one neighbour index
(``_SiteIndex``): a k-d tree plus a short tail of later sites scanned by
broadcast, queried with a Euclidean radius that provably holds the
hyperbolic ball; ``_SiteIndex.pairs``
measures the candidate pairs as ``cosh_distance`` does, from polar parts the
index stores once per site, and each caller applies its exact test.  An
index never changes; ``_SiteIndex.extended`` copies its rows into a new one
followed by new sites, for the lazy field and the greedy packing alike.
Packing, covariance assembly, nearest sites, conditioning sets, new lazy
sites, islands and clusters use it.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

from .config import ConstraintViolation, HYPERBOLOID_ATOL, stream


class InvalidPoint(ValueError):
    """Coordinates do not satisfy the hyperboloid constraints."""


def _row_dot(a, b=None):
    """sum_k a[..., k] * b[..., k] (b defaults to a), added one coordinate
    column at a time.

    The last axis here holds 2-4 coordinates, where ``np.sum(..., axis=-1)``
    and ``np.linalg.norm`` pay per-row reduction overhead several times the
    arithmetic.  Short reductions add sequentially, in this same order, so
    the result is bit-identical to theirs.  The same rule holds for
    elementwise steps on that axis: a broadcast or slice over it pays per-row
    overhead too, so the kernels here compute it column by column, in the
    broadcast's operation order.
    """
    if b is None:
        b = a
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def minkowski_dot(x, y):
    """Pairing -x0*y0 + sum_i xi*yi, broadcast over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return _row_dot(x[..., 1:], y[..., 1:]) - x[..., 0] * y[..., 0]


def check_points(x):
    """Validate hyperboloid membership; raises :class:`InvalidPoint`.

    The Minkowski form of a far point is a difference of e^(2r)-sized terms,
    so its float evaluation carries absolute roundoff of that size; the
    tolerance therefore scales with x0^2 (equal to the plain 1e-10 check for
    points at moderate radius).
    """
    x = np.asarray(x, dtype=float)
    norm_err = np.abs(minkowski_dot(x, x) + 1.0)
    scale = np.maximum(1.0, x[..., 0] ** 2)
    if np.any(norm_err > HYPERBOLOID_ATOL * scale):
        raise InvalidPoint(
            f"Minkowski norm off the hyperboloid by {np.max(norm_err / scale):.3e} (relative)")
    if np.any(x[..., 0] < 1.0 - HYPERBOLOID_ATOL):
        raise InvalidPoint("time coordinate below 1")
    return x


def origin(d):
    o = np.zeros(d + 1)
    o[0] = 1.0
    return o


def radius(x):
    """Distance from the base point o, arccosh of the time coordinate."""
    return np.arccosh(np.maximum(1.0, np.asarray(x, dtype=float)[..., 0]))


def cosh_distance(x, y):
    """cosh of the distance, computed in a cancellation-free polar form.

    Writing points as (cosh r, sinh r * n) with unit direction n, one has
    cosh d = cosh(r1 - r2) + sinh r1 sinh r2 * |n1 - n2|^2 / 2.  Both terms
    are nonnegative, so unlike -<x,y> (a difference of e^(2r)-sized numbers)
    this loses no precision at large radius.
    """
    return _polar_cosh(_polar(np.asarray(x, dtype=float)),
                       _polar(np.asarray(y, dtype=float)))


def _polar(x):
    """Polar parts (r, sinh r, unit direction n) of points, as
    :func:`cosh_distance` measures them; sinh r is the spatial norm.  n is
    filled one coordinate column at a time."""
    s = np.sqrt(_row_dot(x[..., 1:]))
    safe = np.maximum(s, 1e-300)
    n = np.empty(x.shape[:-1] + (x.shape[-1] - 1,))
    for k in range(n.shape[-1]):
        np.divide(x[..., k + 1], safe, out=n[..., k])
    return radius(x), s, n


def _polar_cosh(a, b):
    """cosh of the distance between points given by their :func:`_polar`
    parts; elementwise, so cached parts give the same bits.  |n1 - n2|^2 is
    summed one coordinate column at a time, as :func:`_row_dot` sums."""
    (r1, s1, n1), (r2, s2, n2) = a, b
    cross = np.subtract(n1[..., 0], n2[..., 0])
    cross *= cross
    for k in range(1, n1.shape[-1]):
        diff = n1[..., k] - n2[..., k]
        diff *= diff
        cross += diff
    return np.cosh(r1 - r2) + 0.5 * s1 * s2 * cross


def distance(x, y):
    """Hyperbolic distance arccosh(cosh d), clamped to the valid domain.
    The points are not checked; :func:`check_points` runs where points come
    in (:func:`geodesic_point`, ``brownian.BridgeSpec``)."""
    return np.arccosh(np.maximum(1.0, cosh_distance(x, y)))


def geodesic_point(x, y, s):
    """Point at fraction ``s`` along the constant-speed geodesic x -> y.

    ``s`` may be an array; ``s=0`` gives x and ``s=1`` gives y.  Coincident
    endpoints are treated as the degenerate geodesic sitting at x.  Both
    endpoints are validated (:func:`check_points`).
    """
    x = check_points(x)
    y = check_points(y)
    rho = np.asarray(distance(x, y))[..., None]
    u = np.where(rho > 1e-14,
                 (y - np.cosh(rho) * x) / np.sinh(np.maximum(rho, 1e-14)), 0.0)
    sr = np.asarray(s, dtype=float)[..., None] * rho
    return np.cosh(sr) * x + np.sinh(sr) * u


def point_at(d, radius, direction):
    """Point at given distance from the base point o, in the spatial
    direction of a d-vector (normalised here; broadcasts with ``radius``)."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = np.asarray(radius, dtype=float)
    out = np.empty(np.broadcast(radius[..., None], direction).shape[:-1] + (d + 1,))
    out[..., 0] = np.cosh(radius)
    out[..., 1:] = np.sinh(radius)[..., None] * direction
    return out


# --- the geodesic step (used by the Brownian simulators) --------------------

def frame_step(x, coeffs):
    """Geodesic step from x with orthonormal-frame coefficients ``coeffs``.

    The frame ``u_i = e_i + x_i (x + e_0) / (1 + x_0)`` (i = 1..d) is
    Minkowski-orthonormal at every x, so coefficients with iid N(0, s^2)
    entries give an isotropic tangent Gaussian v = sum_i c_i u_i of scale s,
    and the step length is the coefficient norm n: exact at every radius,
    where the Minkowski form of v would lose all precision.  The step is
    cosh(n) x + sinh(n) v / n.  Only its d spatial columns are formed, one
    at a time: column k is cosh(n) x_k + sinh(n) ((c_k + (dot / (1 + x0))
    x_k) / n), dot = c . x_spatial, in the operation order of the broadcast
    form; the time coordinate is then rebuilt from the constraint
    x0 = sqrt(1 + |x_s|^2), cancellation-free at every radius, so the
    tangent's time column is never computed.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    xs = x[..., 1:]
    norm = np.sqrt(_row_dot(coeffs))
    safe = np.maximum(norm, 1e-300)
    ch, sh = np.cosh(norm), np.sinh(norm)
    lift = _row_dot(coeffs, xs) / (1.0 + x[..., 0])
    out = np.empty(lift.shape + (x.shape[-1],))
    for k in range(coeffs.shape[-1]):
        col = lift * xs[..., k]
        col += coeffs[..., k]
        col /= safe
        col *= sh
        col += ch * xs[..., k]
        out[..., k + 1] = col
    out[..., 0] = np.sqrt(1.0 + _row_dot(out[..., 1:]))
    return out


# --- volumes ----------------------------------------------------------------

def sphere_area(d):
    """Surface area of the unit sphere S^(d-1)."""
    return 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)


# --- Poincare ball and the neighbour index ----------------------------------

def to_poincare(x):
    """Map hyperboloid coordinates to the Poincare unit ball."""
    x = np.asarray(x, dtype=float)
    return x[..., 1:] / (1.0 + x[..., :1])


# Beyond this r + rho the Euclidean rho-ball bound in the Poincare ball nears
# float64 resolution (1 - |u| ~ 2 e^-r), so queries take the whole ball.
_POINCARE_CUTOFF = 30.0


def _poincare_radius(rho, r):
    """Euclidean radius, in the Poincare ball, holding every point within
    hyperbolic distance rho of a point at radius r.

    The hyperbolic rho-ball is a Euclidean ball whose centre lies on the ray
    through the point, so its farthest point is the inner end of that
    diameter: tanh(r/2) - tanh((r - rho)/2) = sinh(rho/2) / (cosh(r/2)
    cosh((r - rho)/2)), which also holds for r < rho.

    Slack.  ``to_poincare`` rounds each coordinate twice (one sum, one
    quotient), and stored points meet the hyperboloid equation only to a few
    ulp; as |u| < 1, each image sits within a few 2^-52 of the exact image of
    the point the exact filter sees, whose directions ``cosh_distance``
    resolves to the same absolute precision.  An absolute 1e-14 (about 45
    ulp of 1) covers the query's and the site's shifts together.  Near o a
    radius r = arccosh(x0) is known only to sqrt(2 eps) ~ 2.1e-8 per ulp of
    error in x0, and a caller's rho, measured by ``cosh_distance`` from
    cosh(r1 - r2), inherits that error from both ends: an absolute 1e-7 on
    rho covers x0 off by up to 5 ulp at each end.  The filter accepts
    distances whose cosh rounds to at most cosh(rho), up to about
    rho + 4 eps / rho; as |d log R / d rho| <= 1/rho + 1/2 and
    |d log R / d r| <= 1, the relative 1e-6 covers that and the error in
    the query's own r for rho >= 1e-4.  Smaller radii are queried at 1e-4,
    which holds rho + 4 eps / rho for every rho above 1e-11.
    Where r + rho exceeds ``_POINCARE_CUTOFF`` the radius is 2, the ball's
    diameter, so every site is a candidate; below it, every site within rho
    lies inside radius r + rho too, where the images are resolved.
    """
    r = np.asarray(r, dtype=float)
    rho_q = np.maximum(rho, 1e-4) + 1e-7
    tight = (np.sinh(rho_q / 2.0) / (np.cosh(r / 2.0) * np.cosh((r - rho_q) / 2.0))
             * (1.0 + 1e-6) + 1e-14)
    return np.where(r + rho > _POINCARE_CUTOFF, 2.0, tight)


# A _SiteIndex scans the sites appended after its k-d tree (its tail) by
# broadcast while there are at most this many, and otherwise builds a tree
# over all its sites; a set of at most this many sites gets no tree.  Chosen
# by timing lazy quenched runs with bounds from 32 to 512.
_TAIL_MAX = 128


def _gap2(a, b):
    """Squared Euclidean distances of every row of a to every row of b, one
    coordinate column at a time."""
    out = np.subtract.outer(a[:, 0], b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        out += np.subtract.outer(a[:, k], b[:, k]) ** 2
    return out


def _take(polar, idx):
    """Rows idx of each polar part; ``np.take`` gathers the (..., d) direction
    rows several times faster than fancy indexing."""
    return tuple(np.take(part, idx, axis=0) for part in polar)


class _SiteIndex:
    """Neighbour index over a site array: a k-d tree over the Poincare-ball
    images of its leading sites and a tail of at most ``_TAIL_MAX`` later
    ones, scanned in one broadcast with the same Euclidean bound.

    Queries return candidates from a Euclidean radius that contains the
    hyperbolic ball (:func:`_poincare_radius`); :meth:`pairs` measures them
    from the sites' stored :func:`_polar` parts, and callers keep the pairs
    that pass their exact hyperbolic test, so results match a dense scan.

    Each site's Poincare image and polar parts are computed once.  An index
    never changes: :meth:`extended` returns a new one whose rows are copies
    of these followed by the new sites', read-only, and which keeps this
    index's tree until its tail would pass ``_TAIL_MAX``.
    """

    def __init__(self, sites):
        sites = np.asarray(sites, dtype=float)
        self._set((sites, to_poincare(sites), *_polar(sites)), None, 0)

    def _set(self, rows, tree, tree_n):
        """View rows (sites, Poincare images, polar parts) read-only, with
        the tree over the first tree_n sites, or a new tree over all of them
        if the tail would pass ``_TAIL_MAX``."""
        self.sites, self._ball, *polar = (col.view() for col in rows)
        self._polar = tuple(polar)
        for view in (self.sites, self._ball, *polar):
            view.flags.writeable = False
        n = len(self.sites)
        if n - tree_n > _TAIL_MAX:
            tree, tree_n = cKDTree(self._ball), n
        self._tree, self._tree_n = tree, tree_n

    def extended(self, new_sites):
        """Index over copies of these sites followed by ``new_sites``, whose
        Poincare images and polar parts alone are computed."""
        new_sites = np.asarray(new_sites, dtype=float)
        rows = (new_sites, to_poincare(new_sites), *_polar(new_sites))
        index = _SiteIndex.__new__(_SiteIndex)
        index._set(tuple(np.concatenate([old, new]) for old, new
                         in zip((self.sites, self._ball, *self._polar), rows)),
                   self._tree, self._tree_n)
        return index

    def candidates(self, points, rho):
        """Flat (point, site) index pairs that may lie within rho (a scalar
        or one radius per point), grouped by point with ascending site
        indices."""
        ball = to_poincare(points)
        bound = _poincare_radius(rho, radius(points))
        qi = si = np.empty(0, dtype=np.intp)
        if self._tree is not None:
            lists = self._tree.query_ball_point(ball, bound, return_sorted=True)
            lens = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
            qi = np.repeat(np.arange(len(points)), lens)
            si = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp,
                             count=int(lens.sum()))
        tail = self._ball[self._tree_n:]
        if len(tail) == 0:
            return qi, si
        qt, st = np.nonzero(_gap2(ball, tail) <= (bound * bound)[:, None])
        st += self._tree_n
        if qi.size == 0:
            return qt, st
        # each point's tree sites are all below its tail sites
        qi, si = np.concatenate([qi, qt]), np.concatenate([si, st])
        order = np.argsort(qi, kind="stable")
        return qi[order], si[order]

    def pairs(self, points, rho):
        """:meth:`candidates` and each pair's cosh distance, measured from the
        point's polar parts to the site's stored ones."""
        qi, si = self.candidates(points, rho)
        return qi, si, _polar_cosh(_take(_polar(points), qi), _take(self._polar, si))

    def nearest_within(self, points, rho):
        """Nearest site per point, its distance and the distance's cosh, or
        -1, inf and inf where no site lies within rho (a scalar or one radius
        per point).  Ties in the cosh go to the lowest site index."""
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (len(points),))
        idx = np.full(len(points), -1, dtype=np.intp)
        cosh = np.full(len(points), np.inf)
        qi, si, prod = self.pairs(points, rho)
        if si.size:
            starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
            best = np.minimum.reduceat(prod, starts)
            at_best = prod == np.repeat(best, np.diff(np.r_[starts, qi.size]))
            best_si = np.minimum.reduceat(np.where(at_best, si, len(self.sites)), starts)
            hit = np.arccosh(np.maximum(1.0, best)) <= rho[qi[starts]]
            idx[qi[starts[hit]]] = best_si[hit]
            cosh[qi[starts[hit]]] = best[hit]
        return idx, np.arccosh(np.maximum(1.0, cosh)), cosh

    def nearest(self, points):
        """Nearest site per point and its distance, as a dense argmin over
        every site would give them (ties to the lowest index).

        The Euclidean nearest neighbours in Poincare coordinates, of the tree
        and of the tail, lie at hyperbolic distances whose minimum D holds
        the true nearest.  The search radius is at least 1e-3: with D = 0 (a
        point on a site) a second site closer than cosh's float resolution
        ties the first in the cosh domain and must be found too.
        """
        ball = to_poincare(points)
        near = []
        if self._tree is not None:
            near.append(self._tree.query(ball)[1])
        if self._tree_n < len(self.sites):
            tail = self._ball[self._tree_n:]
            near.append(self._tree_n + np.argmin(_gap2(ball, tail), axis=1))
        bound = np.min([distance(points, self.sites[k])
                        for k in near], axis=0)
        return self.nearest_within(points, np.maximum(bound, 1e-3))[:2]

    def close_pairs(self, rho):
        """Index pairs i < j of sites at distance at most rho, in
        lexicographic order, and their distances, measured from site i to
        site j (the distance is symmetric to the last bit)."""
        qi, si = self.candidates(self.sites, rho)
        upper = qi < si
        i, j = qi[upper], si[upper]
        dist = np.arccosh(np.maximum(1.0, _polar_cosh(_take(self._polar, i),
                                                      _take(self._polar, j))))
        keep = dist <= rho
        return i[keep], j[keep], dist[keep]


# --- regions and packings ----------------------------------------------------

@dataclass(frozen=True)
class BallRegion:
    """Geodesic ball of given radius centered at the base point."""
    radius: float


@dataclass
class Packing:
    """Greedy maximal r-packing of a region.

    ``centers`` are pairwise more than ``2 * radius`` apart and lie in the
    r-shrunken region, so the corresponding r-balls sit inside the region
    and, when ``maximal`` is True, the 2r-balls cover the shrunken region
    (to the relative ``_GAP_TOL`` of :func:`_fill_gaps`).
    """
    centers: np.ndarray
    radius: float
    maximal: bool

    def __len__(self):
        return len(self.centers)


class RegionTooSmall(ConstraintViolation):
    """The region cannot hold a single packing ball."""


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over the 1-D grid x, starting at 0:
    ``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)``, bit for bit,
    without importing ``scipy.integrate``."""
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def _radial_sampler(hi, d):
    """Inverse-CDF sampler for the radial density sinh^{d-1} on [0, hi],
    tabulated on 2048 grid points."""
    if hi <= 0.0:
        return lambda rng, n: np.full(n, 0.0)
    grid = np.linspace(0.0, hi, 2048)
    dens = np.sinh(grid) ** (d - 1)
    cdf = _cumulative_trapezoid(dens, grid)
    if cdf[-1] <= 0:  # degenerate near zero radius
        return lambda rng, n: rng.uniform(0.0, hi, n)
    cdf /= cdf[-1]
    return lambda rng, n: np.interp(rng.random(n), cdf, grid)


def sample_region(region, d, rng, n):
    """Uniform (volume-measure) samples from a :class:`BallRegion`."""
    radii = _radial_sampler(region.radius, d)(rng, n)
    return point_at(d, radii, rng.standard_normal((n, d)))


def _shrunk(region, r):
    if region.radius < r:
        raise RegionTooSmall(
            f"ball radius {region.radius} cannot hold a packing ball of radius {r}")
    return BallRegion(region.radius - r)


def _greedy_keep(i, j, n, limit):
    """Indices kept by one in-order greedy pass over 0..n-1, given the close
    pairs i < j in lexicographic order (as from ``_SiteIndex.close_pairs``).

    Index k is kept unless paired with an earlier kept index; the pass stops
    once ``limit`` indices are kept.  Returns them ascending.
    """
    starts = np.searchsorted(i, np.arange(n + 1))
    blocked = np.zeros(n, dtype=bool)
    kept = []
    for k in range(n):
        if len(kept) == limit:
            break
        if not blocked[k]:
            kept.append(k)
            blocked[j[starts[k]:starts[k + 1]]] = True
    return np.array(kept, dtype=np.intp)


# _fill_gaps drops a cube whose distance bound is below _GAP_TOL * r, and
# gives up, leaving the cover unproven, past _GAP_WORK cube tests plus
# candidate pairs: a 2119-center maximal packing in H^3 took 2.7e6, a
# 2r-ball whose rim is e^(2r) long takes far more.  Its probes are measured
# in chunks of about _GAP_CHUNK pairs.
_GAP_TOL = 1e-9
_GAP_WORK = 1 << 24
_GAP_CHUNK = 1 << 16


def _fill_gaps(index, inner, r, d, max_centers):
    """``index`` extended by centers until its 2r-balls cover ``inner``, a
    ball around o, and whether they do (False if ``max_centers`` or
    ``_GAP_WORK`` came first).  A ball of radius 0 is one cube at o.

    Cubes of half-side h (half-diagonal e) tile the Poincare image of
    ``inner``, a ball of radius tanh(R/2), from one cube, h halving each
    round.  A cube's probe p is its center b, or b's radial projection onto
    the image.  Its points x in the image have |x - p| <= e (2e if
    projected) and |x| <= m = min(|b| + e, tanh(R/2)), which bound d(x, p)
    by delta through sinh(d / 2) = |x - p| / sqrt((1 - |x|^2)(1 - |p|^2)).
    A cube with a center within 2r - delta of its probe is covered.  Probes
    more than 2r (in cosh) from every center are gaps, and a round's gaps
    are kept in cube order as :func:`greedy_packing` keeps a batch.  Other
    cubes are split in 2^d; those with delta below ``_GAP_TOL * r`` are
    within 2r (1 + _GAP_TOL) of a center and are dropped.
    """
    rho = np.tanh(inner.radius / 2.0)
    rim = 1.0 / np.cosh(inner.radius / 2.0) ** 2   # 1 - rho^2, which may round to 0
    cosh2r = np.cosh(2.0 * r)
    corners = np.indices((2,) * d).reshape(d, -1).T * 2.0 - 1.0
    h, cubes, work, chunk = rho, np.zeros((1, d)), 0, 4096
    while len(cubes) and len(index.sites) < max_centers:
        cubes = cubes[np.linalg.norm(np.maximum(np.abs(cubes) - h, 0.0), axis=1)
                      <= rho]
        e = h * np.sqrt(d)
        gaps, split, lo = [], [], 0
        while lo < len(cubes):
            part = cubes[lo:lo + chunk]
            lo += len(part)
            norm = np.linalg.norm(part, axis=1)
            inside = norm < rho
            room = np.where(norm + e < rho, (1.0 - norm - e) * (1.0 + norm + e), rim)
            room_p = np.where(inside, (1.0 - norm) * (1.0 + norm), rim)
            # the relative 1e-6 covers the rounding of 1 - |x|^2 and of p
            delta = (2.0 + 2e-6) * np.arcsinh(np.where(inside, e, 2.0 * e)
                                              / np.sqrt(room * room_p))
            depth = np.full(len(part), inner.radius)
            depth[inside] = np.minimum(2.0 * np.arctanh(norm[inside]), inner.radius)
            probes = point_at(d, depth, np.where(norm[:, None] > 0.0, part, 1.0))
            qi, _, cosh = index.pairs(probes, 2.0 * r)
            best = np.full(len(part), np.inf)
            np.minimum.at(best, qi, cosh)
            work += len(part) + len(qi)
            if work > _GAP_WORK:
                return index, False
            gaps.append(probes[best > cosh2r])
            covered = np.arccosh(np.maximum(1.0, best)) + delta <= 2.0 * r
            split.append(part[~covered & (delta > _GAP_TOL * r)])
            chunk = max(64, _GAP_CHUNK * len(part) // max(len(qi), 1))
        gaps = np.concatenate(gaps)
        qi, si, cosh = _SiteIndex(gaps).pairs(gaps, 2.0 * r)
        close = (qi < si) & (cosh <= cosh2r)
        index = index.extended(gaps[_greedy_keep(qi[close], si[close], len(gaps),
                                                 max_centers - len(index.sites))])
        split = np.concatenate(split)
        if work + (len(split) << d) > _GAP_WORK:
            return index, False
        h /= 2.0
        cubes = (split[:, None, :] + h * corners).reshape(-1, d)
    return index, len(cubes) == 0


def greedy_packing(region, r, d, seed, max_centers):
    """Randomized greedy maximal r-packing of ``region``.

    Candidates are drawn volume-uniformly from the r-shrunken region in
    batches of 512 and kept, in draw order, when more than 2r from every
    accepted center.  Each batch is decided at once: the neighbour index over
    the centers kept so far, extended by each batch's keepers, finds those
    within 2r of a candidate, another over the batch finds its close
    candidate pairs, and :func:`_greedy_keep` keeps, in draw order, what
    neither rules out.  Both tests compare the pairs' cosh, the
    ``cosh_distance`` values, with cosh(2r) as a one-by-one scan would, so
    the centers are the scan's.  Sampling stops after 8 consecutive
    fruitless batches or at ``max_centers``.  Random draws leave small gaps
    uncovered, so :func:`_fill_gaps` then adds centers until the 2r-balls
    cover the shrunken region (declared maximal).  A packing that reaches
    ``max_centers``, or whose cover the pass cannot prove within
    ``_GAP_WORK``, is recorded as non-maximal.  Deterministic given
    ``seed``.
    """
    batch, patience = 512, 8
    if r <= 0:
        raise ValueError("packing radius must be positive")
    inner = _shrunk(region, r)
    rng = stream(seed, "packing")
    index = _SiteIndex(np.empty((0, d + 1)))
    idle = 0
    cosh2r = np.cosh(2.0 * r)
    while idle < patience and len(index.sites) < max_centers:
        cands = sample_region(inner, d, rng, batch)
        free = np.ones(batch, dtype=bool)
        qi, _, cosh = index.pairs(cands, 2.0 * r)
        free[qi[cosh <= cosh2r]] = False
        cands = cands[free]
        qi, si, cosh = _SiteIndex(cands).pairs(cands, 2.0 * r)
        close = (qi < si) & (cosh <= cosh2r)
        keep = _greedy_keep(qi[close], si[close], len(cands),
                            max_centers - len(index.sites))
        index = index.extended(cands[keep])
        idle = 0 if keep.size else idle + 1
    index, covered = _fill_gaps(index, inner, r, d, max_centers)
    return Packing(index.sites.copy(), r,
                   maximal=covered and len(index.sites) < max_centers)
