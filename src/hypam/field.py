"""Stationary Gaussian fields on H^d with exactly compact correlation.

The covariance profile is built as the autocorrelation of a C^2 radial bump
supported in radius R0/2, which makes it positive semidefinite on every site
set, exactly zero beyond distance R0, twice differentiable with C'(0) = 0,
and then rescaled so C(0) = sigma2.  Sampling is exact multivariate Gaussian
through one :func:`_lattice_factor` Cholesky factor: of the sites' covariance
for a one-shot draw, of the joint covariance of nearby conditioning sites and
new sites for the conditional (kriging) extension along trajectories.

Every "which sites are near these points" question (covariance assembly and
its distinct-sites check, nearest-site lookups, the conditioning set of an
extension, island and cluster adjacency) goes through one neighbour index,
``geometry._SiteIndex``, which the greedy packing shares: a k-d tree over the
sites' Poincare-ball coordinates, queried with a Euclidean radius that
provably contains the hyperbolic ball and then filtered with the exact
``geo.cosh_distance``.  The ball model is conformal, so that radius is tight
in every direction.  The candidates therefore never drop a site the dense
scan would find, and the answers are the dense scan's answers; a covariance
matrix holds only the pairs within R0, written into a zeroed matrix, and
equals the dense evaluation entry for entry.
"""

import functools
import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .config import (BudgetExceeded, COINCIDENT_DISTANCE, COND_RADIUS_FACTOR,
                     COND_SITE_CAP, ConstraintViolation, FactorizationError,
                     JITTER_LADDER, LATTICE_SPACING_FACTOR, MAX_FIELD_SITES,
                     MAX_ONESHOT_SITES, stream)
from . import geometry as geo

_BUMPS = {
    "poly3": lambda u: (1.0 - u ** 2) ** 3,
    "poly4": lambda u: (1.0 - u ** 2) ** 4,
    "cosine": lambda u: np.cos(0.5 * np.pi * u) ** 3,
}


@dataclass(frozen=True)
class CovarianceSpec:
    """Variance, correlation length and tabulated covariance profile."""
    sigma2: float
    R0: float
    bump_shape: str
    d: int
    rho_grid: np.ndarray
    values: np.ndarray
    _spline: CubicSpline

    def cov(self, rho):
        """C(rho); exactly zero beyond R0, even around zero."""
        rho = np.abs(np.asarray(rho, dtype=float))
        out = np.where(rho < self.R0, self._spline(np.minimum(rho, self.R0)), 0.0)
        return out if out.ndim else float(out)

    def cov_matrix(self, sites):
        """Matrix C(d(x_i, x_j)) over a (n, d+1) array of distinct sites.

        One neighbour-index pass finds the pairs within R0; a pair within
        ``COINCIDENT_DISTANCE`` (cosh d <= 1 + 1e-14) raises
        :class:`ConstraintViolation`.  The rest are evaluated once each and
        written into both triangles of a zeroed matrix; the diagonal is C(0).
        Every entry equals the dense evaluation's, as C vanishes from R0 on
        and the distance is symmetric.
        """
        sites = np.asarray(sites, dtype=float)
        mat = np.zeros((len(sites), len(sites)))
        i, j, dist = geo._SiteIndex(sites).close_pairs(max(self.R0, COINCIDENT_DISTANCE))
        if np.any(dist <= COINCIDENT_DISTANCE):
            raise ConstraintViolation("sites must be pairwise distinct")
        vals = self.cov(dist)
        mat[i, j] = vals
        mat[j, i] = vals
        np.fill_diagonal(mat, self.cov(0.0))
        return mat


def make_spec(sigma2, R0, bump_shape="poly3", d=2):
    """Covariance profile as the H^d autocorrelation of a compact bump.

    ``C(rho) = int k(d(x,z)) k(d(y,z)) vol(dz)`` for d(x,y) = rho, evaluated
    by 96-point Gauss-Legendre quadrature in geodesic polar coordinates
    around x and tabulated on 801 rho-grid points with a clamped cubic spline
    (zero slope at both ends).  Scaled so C(0) = sigma2.  The unscaled table
    is computed once per (R0, bump_shape, d).
    """
    if sigma2 <= 0 or R0 <= 0:
        raise ConstraintViolation("sigma2 and R0 must be positive")
    if bump_shape not in _BUMPS:
        raise ConstraintViolation(
            f"invalid bump {bump_shape!r}: need one of {sorted(_BUMPS)} "
            "(twice differentiable, compactly supported)")
    rho_grid, table = _unscaled_profile(float(R0), bump_shape, d)
    vals = table.copy()
    vals *= sigma2 / vals[0]
    vals[-1] = 0.0
    spline = CubicSpline(rho_grid, vals, bc_type=((1, 0.0), (1, 0.0)))
    return CovarianceSpec(float(sigma2), float(R0), bump_shape, d,
                          rho_grid, vals, spline)


@functools.lru_cache(maxsize=None)
def _unscaled_profile(R0, bump_shape, d):
    """Read-only rho grid and autocorrelation table of :func:`make_spec`,
    before the scaling to C(0) = sigma2."""
    bump = _BUMPS[bump_shape]
    n_grid, n_quad = 801, 96
    s = R0 / 2.0
    r_nodes, r_w = np.polynomial.legendre.leggauss(n_quad)
    r = 0.5 * s * (r_nodes + 1.0)
    rw = 0.5 * s * r_w
    th_nodes, th_w = np.polynomial.legendre.leggauss(n_quad)
    th = 0.5 * np.pi * (th_nodes + 1.0)
    tw = 0.5 * np.pi * th_w

    k_r = bump(r / s) * np.sinh(r) ** (d - 1) * rw          # radial factor
    sin_pow = np.sin(th) ** (d - 2) * tw

    rho_grid = np.linspace(0.0, R0, n_grid)
    vals = np.empty(n_grid)
    cosh_r = np.cosh(r)[:, None]
    sinh_r = np.sinh(r)[:, None]
    cos_th = np.cos(th)[None, :]
    for i, rho in enumerate(rho_grid):
        arg = np.cosh(rho) * cosh_r - np.sinh(rho) * sinh_r * cos_th
        dist_yz = np.arccosh(np.maximum(1.0, arg))
        kernel_yz = np.zeros_like(dist_yz)
        inside = dist_yz < s
        kernel_yz[inside] = bump(dist_yz[inside] / s)
        vals[i] = float(k_r @ (kernel_yz * sin_pow[None, :]).sum(axis=1))
    vals *= geo.sphere_area(d - 1) if d > 2 else 2.0
    rho_grid.flags.writeable = False
    vals.flags.writeable = False
    return rho_grid, vals


def _cholesky_with_jitter(mat, sigma2):
    """Cholesky factor of ``mat`` plus the first ladder jitter that works.

    ``mat`` is never modified; it is copied only for a nonzero jitter, so
    the first attempt holds no second n x n array.
    """
    last = None
    for j in JITTER_LADDER:
        shifted = mat
        if j > 0:
            shifted = mat.copy()
            shifted[np.diag_indices_from(shifted)] += j * sigma2
        try:
            return np.linalg.cholesky(shifted), j
        except np.linalg.LinAlgError as exc:
            last = exc
    raise FactorizationError(
        f"covariance factorisation failed within jitter cap: {last}")


def _lattice_factor(spec, sites):
    """Cholesky factor and jitter of the covariance of every factorised site
    set (a (n, d+1) array; one-shot draws and extension blocks alike): at most
    ``MAX_ONESHOT_SITES`` sites, coincident ones rejected by ``cov_matrix``."""
    if len(sites) > MAX_ONESHOT_SITES:
        raise BudgetExceeded(f"site count {len(sites)} above cap {MAX_ONESHOT_SITES}")
    return _cholesky_with_jitter(spec.cov_matrix(sites), spec.sigma2)


@dataclass
class FieldRealization:
    """Sampled field values on a site set, extendable by conditioning.

    A realization is never modified after it is built (extensions return a
    new one), so the neighbour index built on first use stays valid for its
    lifetime.  ``h`` records the lattice spacing of packed sites, read only
    as :func:`detect_islands`' default adjacency scale.
    """
    spec: CovarianceSpec
    sites: np.ndarray          # (n, d+1) hyperboloid coordinates
    values: np.ndarray         # (n,)
    d: int
    h: float | None = None     # lattice spacing when sites come from a packing
    meta: dict = dfield(default_factory=dict)
    _index: geo._SiteIndex | None = dfield(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def n_sites(self):
        return len(self.sites)

    def _neighbours(self):
        if self._index is None:
            self._index = geo._SiteIndex(self.sites)
        return self._index

    def nearest_site_within(self, points, rho):
        """Nearest site per point of a (m, d+1) array, if within distance rho.

        Returns indices and distances, -1 and inf where no site lies within
        rho; where one does, the answer equals :meth:`nearest_site`'s, ties
        going to the lowest site index.
        """
        return self._neighbours().nearest_within(np.asarray(points, dtype=float), rho)

    def nearest_site(self, points):
        """Indices and distances of the closest site per point of a (..., d+1)
        array, through the neighbour index alone: the global nearest site,
        ties going to the lowest index, exactly as a dense argmin."""
        pts = np.asarray(points, dtype=float)
        idx, dist = self._neighbours().nearest(pts.reshape(-1, pts.shape[-1]))
        return idx.reshape(pts.shape[:-1]), dist.reshape(pts.shape[:-1])


def sample_field(spec, sites, seed):
    """Exact joint Gaussian draw with covariance C(d(x_i, x_j)).

    The sites go through :func:`_lattice_factor`: at most
    ``MAX_ONESHOT_SITES`` of them, none coincident, factorised densely.
    """
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2:
        raise ConstraintViolation("sites must be a (n, d+1) array")
    L, jit = _lattice_factor(spec, sites)
    values = L @ stream(seed, "field").standard_normal(len(sites))
    return FieldRealization(spec, sites, values, sites.shape[1] - 1,
                            meta={"jitter": jit, "seed": seed})


def tilted_sample(spec, sites, h, seed):
    """Draw with mean (h/sigma2) * C(d(x, o)) and unchanged covariance."""
    if h < 0:
        raise ConstraintViolation("tilt height must be nonnegative")
    base = sample_field(spec, sites, seed)
    d = base.d
    dist_o = geo.distance(np.asarray(sites, dtype=float), geo.origin(d), validate=False)
    mean = (h / spec.sigma2) * spec.cov(dist_o)
    return FieldRealization(spec, base.sites, base.values + mean, d,
                            meta={**base.meta, "tilt": h})


def extend_field(fieldr, new_sites, seed):
    """Conditional (kriging) extension of a realization to new sites.

    Conditions on existing sites within 1.5 * R0 of the new block (compact
    support makes farther sites nearly irrelevant), capped to the
    ``COND_SITE_CAP`` (96) nearest.  By the rule of ``cov_matrix``, new
    sites must lie more than ``COINCIDENT_DISTANCE`` from each other and
    from every existing site; the union holds at most ``MAX_FIELD_SITES``,
    one block at most ``MAX_ONESHOT_SITES``.  Existing sites come from the
    realization's neighbour index, and only they are measured against the
    new block; the conditioning set and its order are those of a dense scan.
    With ``[[L11, 0], [L21, L22]]`` the :func:`_lattice_factor` of the
    covariance of those sites then the new ones, the new values
    are ``L21 L11^-1 x + L22 z`` (x their values, z standard normals), the
    kriging law: ``L21 L11^-1 = C_no C_oo^-1`` and ``L22 L22^T = C_nn - C_no
    C_oo^-1 C_on``, and ``L22 z`` with no conditioning site.  Returns a new
    realization over the union (the original is untouched), with the largest
    jitter so far in ``meta["jitter"]``, extensions in ``meta["extensions"]``.
    """
    spec = fieldr.spec
    new_sites = np.atleast_2d(np.asarray(new_sites, dtype=float))
    if fieldr.n_sites + len(new_sites) > MAX_FIELD_SITES:
        raise BudgetExceeded(f"field site count above cap {MAX_FIELD_SITES}")

    cond_radius = COND_RADIUS_FACTOR * spec.R0
    cand = np.unique(fieldr._neighbours().candidates(new_sites, cond_radius)[1])
    dist_on = geo.distance(fieldr.sites[cand][:, None, :], new_sites[None, :, :],
                           validate=False)
    if cand.size and np.min(dist_on) <= COINCIDENT_DISTANCE:
        raise ConstraintViolation("new sites must be disjoint from existing sites")

    keep = np.flatnonzero(np.min(dist_on, axis=1) <= cond_radius)
    if keep.size > COND_SITE_CAP:
        order = np.argsort(np.min(dist_on[keep], axis=1))
        keep = keep[order[:COND_SITE_CAP]]
    near = cand[keep]

    rng = stream(seed, "extend", fieldr.meta.get("extensions", 0))
    k = near.size
    L, jit = _lattice_factor(spec, np.vstack([fieldr.sites[near], new_sites]))
    new_values = (L[k:, :k] @ solve_triangular(L[:k, :k], fieldr.values[near],
                                               lower=True)
                  + L[k:, k:] @ rng.standard_normal(len(new_sites)))
    return FieldRealization(
        spec,
        np.vstack([fieldr.sites, new_sites]),
        np.concatenate([fieldr.values, new_values]),
        fieldr.d, h=fieldr.h,
        meta={**fieldr.meta, "extensions": fieldr.meta.get("extensions", 0) + 1,
              "jitter": max(fieldr.meta.get("jitter", 0.0), jit)})


# --- extremal statistics -------------------------------------------------------

@dataclass
class MaxScanRow:
    R: float
    n_sites: int
    maximal: bool
    mean_max: float
    max_max: float
    maxima: np.ndarray          # per-rep max |xi|
    exceedance: dict            # {0.5: fraction of reps with max > sqrt(3 sigma2 (d-1) R)}


def max_scan(spec, d, R_list, spacing, n_reps, seed, site_cap=2048):
    """Maximum statistics of |xi| over balls of growing radius.

    Sites form a greedy (spacing/2)-packing of Q_R: pairwise gaps exceed the
    spacing and, when the packing is maximal, every location of the ball is
    within one spacing of a site.  Site counts are capped at ``site_cap``
    (recorded per row; the ball volume grows exponentially, so large radii
    are necessarily subsampled at desk scale).  One :func:`_lattice_factor`
    per radius, within ``MAX_ONESHOT_SITES``, serves all replicates.
    Exceedance is counted above sqrt(2 sigma2 (d-1) (1 + eps) R), eps = 0.5.
    """
    if spacing > spec.R0 / 2.0:
        raise ConstraintViolation("spacing must be at most R0/2")
    eps = 0.5
    rows = []
    for k, R in enumerate(R_list):
        packing = geo.greedy_packing(geo.BallRegion(float(R)), spacing / 2.0, d,
                                     seed=stream(seed, "scan", k).integers(2 ** 31),
                                     max_centers=site_cap)
        sites = packing.centers
        L, _ = _lattice_factor(spec, sites)
        z = stream(seed, "scan-draws", k).standard_normal((n_reps, len(sites)))
        maxima = np.max(np.abs(z @ L.T), axis=1)
        thr = math.sqrt(2.0 * spec.sigma2 * (d - 1) * (1.0 + eps) * R)
        rows.append(MaxScanRow(float(R), len(sites), packing.maximal,
                               float(np.mean(maxima)), float(np.max(maxima)),
                               maxima, {eps: float(np.mean(maxima > thr))}))
    return rows


def borell_bound_check(maxima, sigma2):
    """Empirical exceedance vs the Gaussian concentration bound.

    For every tested level above the empirical mean maximum, checks
    P_hat(max > lam) <= 4 exp(-(lam - E_hat)^2 / (2 sigma2)).  Returns the
    list of (lam, p_hat, bound) triples and whether all pass.
    """
    maxima = np.asarray(maxima, dtype=float)
    e_hat = float(np.mean(maxima))
    lams = np.linspace(e_hat + 1e-6, float(np.max(maxima)) + 2.0, 25)
    rows = []
    ok = True
    for lam in lams:
        p_hat = float(np.mean(maxima > lam))
        bound = 4.0 * math.exp(-0.5 * (lam - e_hat) ** 2 / sigma2)
        rows.append((lam, p_hat, bound))
        ok = ok and (p_hat <= bound + 1e-12)
    return rows, ok


def estimate_tail_constant(spec, d, n_reps=4000, seed=0):
    """Empirical decay constant of P(sup over Q_{R0} of xi > lam).

    Draws the field on a (spacing/2)-packing of the correlation ball, with
    the lattice spacing R0 * LATTICE_SPACING_FACTOR, records the supremum per
    replicate, and fits log P(sup > lam) against lam^2 at levels where the
    empirical tail is resolved.  Returns (C_hat, fit).
    """
    from .stats import linear_fit
    spacing = spec.R0 * LATTICE_SPACING_FACTOR
    packing = geo.greedy_packing(geo.BallRegion(spec.R0), spacing / 2.0, d,
                                 seed=seed)
    L, _ = _lattice_factor(spec, packing.centers)
    rng = stream(seed, "tail")
    sups = np.max(rng.standard_normal((n_reps, len(packing.centers))) @ L.T, axis=1)
    lams = np.quantile(sups, np.linspace(0.5, 0.995, 24))
    xs, ys = [], []
    for lam in lams:
        if lam <= 0:
            continue
        p = float(np.mean(sups > lam))
        if 0 < p < 1:
            xs.append(lam ** 2)
            ys.append(math.log(p))
    fit = linear_fit(xs, ys)
    return max(1e-12, -fit.slope), fit


def gradient_growth_scan(spec, d, R_list, seed, n_sites=256):
    """Finite-difference gradient maxima over growing balls.

    For each R, evaluates the field jointly at ``n_sites`` ball points and at
    d companions per point offset by R0/20, forms |grad| estimates, and
    returns (R, max |grad|) pairs together with the log-log slope fit.
    """
    from .stats import linear_fit
    fd_h = spec.R0 / 20.0
    rows = []
    for k, R in enumerate(R_list):
        rng = stream(seed, "grad", k)
        base = geo.sample_region(geo.BallRegion(float(R)), d, rng, n_sites)
        all_pts = [base]
        for i in range(d):
            coeffs = np.zeros((n_sites, d))
            coeffs[:, i] = fd_h
            all_pts.append(geo.frame_step(base, coeffs))
        pts = np.concatenate(all_pts, axis=0)
        f = sample_field(spec, pts, seed=rng.integers(2 ** 31))
        v = f.values.reshape(d + 1, n_sites)
        grad2 = np.sum(((v[1:] - v[0]) / fd_h) ** 2, axis=0)
        rows.append((float(R), float(np.sqrt(np.max(grad2)))))
    fit = linear_fit(np.log([r for r, _ in rows]), np.log([g for _, g in rows]))
    return rows, fit


# --- islands and clusters -------------------------------------------------------

def _components(n, i, j):
    """Vertex groups of the graph on 0..n-1 (n >= 1) with edges (i, j): each
    group ascending, groups ordered by their lowest member."""
    graph = coo_array((np.ones(i.size, dtype=bool), (i, j)), shape=(n, n))
    labels = connected_components(graph, directed=False)[1]
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted((g.tolist() for g in groups), key=lambda g: g[0])


@dataclass
class IslandSet:
    """Super-level connected components on the site lattice."""
    islands: list               # list of sorted site-index lists
    site_indices: np.ndarray    # all super-threshold site indices
    threshold: float
    h: float
    t: float
    delta: float
    field: FieldRealization

    def __len__(self):
        return len(self.islands)


def detect_islands(fieldr, delta, t, h=None):
    """Connected components of {xi > delta * t^(2/3)} on the site lattice.

    Two super-threshold sites are adjacent when within 2h (pairs found
    through the neighbour index); islands are the connected components of
    that graph, each a sorted site-index list, ordered by lowest site.  h
    defaults to the realization's recorded lattice spacing.
    """
    if delta <= 0 or t <= 0:
        raise ConstraintViolation("need delta > 0 and t > 0")
    h = h if h is not None else fieldr.h
    if h is None:
        raise ConstraintViolation("island detection needs the lattice spacing h")
    thr = delta * t ** (2.0 / 3.0)
    super_idx = np.flatnonzero(fieldr.values > thr)
    if super_idx.size == 0:
        return IslandSet([], super_idx, thr, h, t, delta, fieldr)
    i, j, _ = geo._SiteIndex(fieldr.sites[super_idx]).close_pairs(2.0 * h)
    islands = [super_idx[g].tolist() for g in _components(super_idx.size, i, j)]
    return IslandSet(islands, super_idx, thr, h, t, delta, fieldr)


@dataclass
class Cluster:
    label: int
    site_indices: list
    island_ids: list
    center_index: int
    diameter: float


@dataclass
class ClusterSet:
    clusters: list
    eta: float
    t: float
    link_distance: float
    field: FieldRealization
    h: float

    def __len__(self):
        return len(self.clusters)

    def report(self):
        """JSON-ready cluster summary."""
        out = []
        for c in self.clusters:
            out.append({
                "id": c.label,
                "center": [float(v) for v in self.field.sites[c.center_index]],
                "diameter": c.diameter,
                "n_islands": len(c.island_ids),
                "n_sites": len(c.site_indices),
            })
        return {"clusters": out}


def build_clusters(islands, eta, t):
    """Merge islands whose set distance is at most eta * t^(4/3).

    Linked islands are those holding a site pair within that distance,
    found in one neighbour-index pass over all island sites.  Clusters are
    the connected components of the island links; labels count up with each
    cluster's lowest island id.
    """
    if eta <= 0:
        raise ConstraintViolation("eta must be positive")
    link = eta * t ** (4.0 / 3.0)
    fieldr = islands.field
    n = len(islands.islands)
    groups = []
    if n:
        # sites of all islands, concatenated in island order, so each
        # pair i < j is measured from the lower island to the higher one
        owner = np.repeat(np.arange(n), [len(g) for g in islands.islands])
        sites = fieldr.sites[np.concatenate([np.asarray(g) for g in islands.islands])]
        ii, jj, _ = geo._SiteIndex(sites).close_pairs(link)
        groups = _components(n, owner[ii], owner[jj])
    clusters = []
    for label, grp in enumerate(groups):
        site_idx = sorted(idx for g in grp for idx in islands.islands[g])
        pts = fieldr.sites[np.asarray(site_idx)]
        dist = geo.distance(pts[:, None, :], pts[None, :, :], validate=False)
        diameter = float(np.max(dist)) if len(site_idx) > 1 else 0.0
        center_local = int(np.argmin(np.max(dist, axis=1)))
        clusters.append(Cluster(label, site_idx, grp,
                                site_idx[center_local], diameter))
    return ClusterSet(clusters, eta, t, link, fieldr, islands.h)


def cluster_constants(delta, d, K0, C_R0_hat):
    """Cluster richness cap and admissible linking threshold.

    L_delta = 1.01 * 2 (d-1) K0 / (C_hat * delta^2);
    eta_delta = 0.99 * min(1 / (4 L_delta^2), C_hat^2 delta^4 / (36 (d-1)^2)).
    """
    if min(delta, K0, C_R0_hat) <= 0 or d < 2:
        raise ConstraintViolation("all cluster-constant arguments must be positive, d >= 2")
    L_delta = 1.01 * 2.0 * (d - 1) * K0 / (C_R0_hat * delta ** 2)
    eta_delta = 0.99 * min(1.0 / (4.0 * L_delta ** 2),
                           C_R0_hat ** 2 * delta ** 4 / (36.0 * (d - 1) ** 2))
    return L_delta, eta_delta


def rich_ball_event(fieldr, threshold, ball_radius, min_points, separation):
    """Does some site-centered ball hold >= min_points super-threshold sites
    pairwise >= separation apart?

    Per center, the super-threshold sites inside the ball are thinned in
    index order by :func:`geometry._greedy_keep`, a site dropping out when
    it lies closer than ``separation`` to one kept before it.
    """
    super_idx = np.flatnonzero(fieldr.values > threshold)
    if super_idx.size < min_points:
        return False
    pts = fieldr.sites[super_idx]
    dist_pp = geo.distance(pts[:, None, :], pts[None, :, :], validate=False)
    dist_cp = geo.distance(fieldr.sites[:, None, :], pts[None, :, :],
                           validate=False)
    need = int(math.ceil(min_points))
    for c in range(len(fieldr.sites)):
        inside = np.flatnonzero(dist_cp[c] <= ball_radius)
        # near[m, k]: the distance from site k to site m is below separation
        if inside.size >= need and geo._greedy_keep(
                dist_pp[np.ix_(inside, inside)].T < separation, need).size == need:
            return True
    return False


def cluster_property_trend(spec, d, t_grid, delta, K0, C_R0_hat, seed,
                           n_reps=24, region_radius=6.0, site_cap=1200):
    """Frequency of the rich-ball event on a fixed desk-scale window.

    For each t the field is drawn on a capped lattice of Q_region and the
    event of :func:`rich_ball_event` is evaluated with threshold
    delta * t^(2/3), ball radius sqrt(eta_delta) * t^(4/3) and separation
    9 * R0.  Reported frequencies are desk-scale trend data, not limits.
    """
    L_delta, eta_delta = cluster_constants(delta, d, K0, C_R0_hat)
    spacing = spec.R0 * LATTICE_SPACING_FACTOR
    packing = geo.greedy_packing(geo.BallRegion(region_radius), spacing / 2.0, d,
                                 seed=seed, max_centers=site_cap)
    sites = packing.centers
    L, _ = _lattice_factor(spec, sites)
    freqs = []
    for k, t in enumerate(t_grid):
        rng = stream(seed, "cluster-trend", k)
        thr = delta * t ** (2.0 / 3.0)
        ball = math.sqrt(eta_delta) * t ** (4.0 / 3.0)
        hits = 0
        for _ in range(n_reps):
            vals = L @ rng.standard_normal(len(sites))
            f = FieldRealization(spec, sites, vals, d, h=spacing)
            if rich_ball_event(f, thr, ball, L_delta, 9.0 * spec.R0):
                hits += 1
        freqs.append(hits / n_reps)
    return list(zip([float(t) for t in t_grid], freqs))
