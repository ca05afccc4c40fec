"""Stationary Gaussian fields on H^d with exactly compact correlation.

The covariance profile is built as the autocorrelation of a C^2 radial bump
supported in radius R0/2, which makes it positive semidefinite on every site
set, exactly zero beyond distance R0, twice differentiable with C'(0) = 0,
and then rescaled so C(0) = sigma2.  Sampling is exact multivariate Gaussian.
A one-shot draw orders its sites by reverse Cuthill-McKee over their pairs
within R0 and factors the covariance in LAPACK band storage
(:func:`_band_root`), so it holds (kd + 1) x n numbers for a bandwidth kd,
never an n x n array.  The conditional (kriging) extension along
trajectories factors the joint covariance of nearby conditioning sites and
new sites densely, in that order (:func:`_lattice_factor`): kriging reads
the blocks of a factor whose conditioning sites come first, and a
bandwidth-reducing order cannot keep them first.  The two kernels share one
jitter ladder (:func:`_jitter_ladder`), each rung on fresh memory.

Every "which sites are near these points" question (covariance assembly and
its distinct-sites check, nearest-site lookups, the conditioning set of an
extension, the thinning of new lazy sites, island and cluster adjacency)
goes through one neighbour index, ``geometry._SiteIndex``, which the
greedy packing shares: a k-d tree over the sites' Poincare-ball coordinates
plus a short tail of later sites scanned by broadcast, queried with a
Euclidean radius that provably contains the hyperbolic ball, whose candidate
pairs ``_SiteIndex.pairs`` measures as ``geo.cosh_distance`` does and each
caller filters with its exact test.  The ball model is conformal,
so that radius is tight in every direction.  The candidates never drop a
site the dense scan would find, so the answers are the dense scan's; a
covariance matrix holds only the pairs within R0, written into a zeroed
matrix, and equals the dense evaluation entry for entry.

A lazily grown field's realizations take their sites from the neighbour
index.  Each extension copies its parent's sites and values, followed by the
new ones (``_SiteIndex.extended``); only the new sites' Poincare images and
polar parts are computed, and the parent's k-d tree is kept while the tail
stays short, so no realization's rows ever change.
"""

import functools
import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded, solve_triangular
from scipy.linalg.blas import dtbmv
from scipy.linalg.lapack import dpbtrf, dpotrf
from scipy.sparse import coo_array, csr_array

from .config import (BudgetExceeded, COINCIDENT_DISTANCE, COND_RADIUS_FACTOR,
                     COND_SITE_CAP, ConstraintViolation, FactorizationError,
                     JITTER_LADDER, MAX_FIELD_SITES, MAX_ONESHOT_SITES, stream)
from . import geometry as geo

_BUMPS = {
    "poly3": lambda u: (1.0 - u ** 2) ** 3,
    "poly4": lambda u: (1.0 - u ** 2) ** 4,
    "cosine": lambda u: np.cos(0.5 * np.pi * u) ** 3,
}


@dataclass(frozen=True)
class CovarianceSpec:
    """Variance, correlation length and tabulated covariance profile.

    ``pieces`` is the clamped cubic spline through ``(rho_grid, values)``
    as its ``(n_grid - 1, 4)`` table of cubic pieces (see
    :func:`_clamped_pieces`): row k holds the coefficients of
    ``(rho - rho_grid[k])^3, ^2, ^1, ^0`` on ``[rho_grid[k], rho_grid[k+1])``.
    """
    sigma2: float
    R0: float
    d: int
    rho_grid: np.ndarray
    values: np.ndarray
    pieces: np.ndarray

    def cov(self, rho):
        """C(rho) = C(|rho|); exactly zero from R0 on and at NaN.

        The spline is evaluated only where |rho| < R0.  The piece is found on
        the uniform grid as ``floor(rho (n-1) / R0)`` corrected by one
        comparison each way, which equals ``searchsorted(rho_grid, rho,
        side="right") - 1``, and the cubic is summed in the order of scipy's
        ``PPoly``, so every value is bit for bit that of scipy's clamped
        ``CubicSpline`` through the table.  A scalar gives a float.
        """
        rho = np.abs(np.asarray(rho, dtype=float))
        out = np.zeros(rho.shape)
        inside = rho < self.R0
        r = rho[inside]
        grid = self.rho_grid
        k = np.minimum((r * ((len(grid) - 1) / self.R0)).astype(np.intp),
                       len(grid) - 2)
        k -= grid[k] > r
        k += grid[k + 1] <= r
        s = r - grid[k]
        ss = s * s
        c = self.pieces
        out[inside] = c[k, 3] + c[k, 2] * s + c[k, 1] * ss + c[k, 0] * (ss * s)
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
        i, j, vals = self._close_covs(sites)
        mat[i, j] = vals
        mat[j, i] = vals
        np.fill_diagonal(mat, self.cov(0.0))
        return mat

    def _close_covs(self, sites):
        """Index pairs i < j of sites within R0 and their covariances, from
        one neighbour-index pass; a pair within ``COINCIDENT_DISTANCE``
        raises :class:`ConstraintViolation`."""
        i, j, dist = geo._SiteIndex(sites).close_pairs(max(self.R0, COINCIDENT_DISTANCE))
        if np.any(dist <= COINCIDENT_DISTANCE):
            raise ConstraintViolation("sites must be pairwise distinct")
        return i, j, self.cov(dist)


def make_spec(sigma2, R0, bump_shape="poly3", d=2):
    """Covariance profile as the H^d autocorrelation of a compact bump.

    ``C(rho) = int k(d(x,z)) k(d(y,z)) vol(dz)`` for d(x,y) = rho, evaluated
    by 96-point Gauss-Legendre quadrature (:func:`_gauss_legendre`) in
    geodesic polar coordinates around x and tabulated on 201 uniform rho
    knots with a clamped cubic spline (zero slope at both ends), stored as
    its table of cubic pieces built by :func:`_clamped_pieces`, whose
    arithmetic is that of scipy 1.17.1's
    ``CubicSpline(..., bc_type=((1, 0.0), (1, 0.0)))``.  Scaled so
    C(0) = sigma2.  The table's error is the quadrature's: against a
    384-node rule it is about 1e-8 sigma2 at d = 2 and up to 4e-8 sigma2 at
    d = 4 for the default poly3 bump, and the spline between the knots adds
    at most about 3e-9 sigma2.  The dimension d must be an integer >= 2.
    The unscaled table is computed once per (R0, bump_shape, d).
    """
    if sigma2 <= 0 or R0 <= 0:
        raise ConstraintViolation("sigma2 and R0 must be positive")
    if bump_shape not in _BUMPS:
        raise ConstraintViolation(
            f"invalid bump {bump_shape!r}: need one of {sorted(_BUMPS)} "
            "(twice differentiable, compactly supported)")
    if not (float(d).is_integer() and d >= 2):
        raise ConstraintViolation(f"dimension d must be an integer >= 2, got {d!r}")
    d = int(d)
    big = np.finfo(float).max / 2.0   # for cosh(1.5 R0) and sinh(R0/2)^(d-1)
    if R0 > min(math.acosh(big) / 1.5, 2.0 * math.asinh(big ** (1.0 / (d - 1)))):
        raise ConstraintViolation(f"R0={R0} overflows the quadrature's cosh or sinh")
    rho_grid, table = _unscaled_profile(float(R0), bump_shape, d)
    vals = table.copy()
    vals *= sigma2 / vals[0]
    vals[-1] = 0.0
    return CovarianceSpec(float(sigma2), float(R0), d, rho_grid, vals,
                          _clamped_pieces(rho_grid, vals))


def _clamped_pieces(x, y):
    """``(len(x) - 1, 4)`` table of the cubic spline through (x, y) with zero
    slope at both ends, highest power first; equal to the transposed ``c``
    of scipy 1.17.1's ``CubicSpline(x, y, bc_type=((1, 0.0), (1, 0.0)))``.

    The knot slopes solve the same banded system with the same
    ``solve_banded`` call, and the pieces follow ``CubicHermiteSpline``'s
    formulas operation for operation.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    ab[1, 0] = ab[1, -1] = 1.0
    b = np.empty((n, 1))
    b[1:-1, 0] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = b[-1] = 0.0
    m = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)[:, 0]
    t = (m[:-1] + m[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - m[:-1]) / dx - t, m[:-1], y[:-1]), axis=1)


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], bit
    for bit those of numpy 2.4's ``np.polynomial.legendre.leggauss(n)``.

    The steps are ``leggauss``'s: the eigenvalues of the symmetric companion
    matrix of P_n, one Newton step, the weights from P_n' and P_(n-1) scaled
    by their largest magnitudes, symmetrised and normalised to sum to 2.
    Only the eigen solve differs.  The companion matrix is the tridiagonal
    Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969), whose eigenvalues
    LAPACK ``dsterf`` finds directly; ``leggauss``'s dense ``eigvalsh``
    (``dsyevd``) reduces the same matrix to that same ``dsterf`` call, but
    wakes a second BLAS thread on the way.
    """
    leg = np.polynomial.legendre
    c = np.array([0] * n + [1])
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = eigh_tridiagonal(np.zeros(n), np.arange(1, n) * scl[:n - 1] * scl[1:n],
                         eigvals_only=True, lapack_driver="sterf")
    dy = leg.legval(x, c)
    df = leg.legval(x, leg.legder(c))
    x -= dy / df
    fm = leg.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


@functools.lru_cache(maxsize=None)
def _unscaled_profile(R0, bump_shape, d):
    """Read-only rho grid and autocorrelation table of :func:`make_spec`,
    before the scaling to C(0) = sigma2."""
    bump = _BUMPS[bump_shape]
    n_grid, n_quad = 201, 96
    s = R0 / 2.0
    r_nodes, r_w = _gauss_legendre(n_quad)
    r = 0.5 * s * (r_nodes + 1.0)
    rw = 0.5 * s * r_w
    th_nodes, th_w = _gauss_legendre(n_quad)
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


def _jitter_ladder(spec, factor):
    """``(root, jitter)`` at the first rung of ``JITTER_LADDER`` whose
    ``factor(jitter * sigma2)`` returns LAPACK ``info == 0``.  ``factor(shift)``
    factors the covariance plus ``shift * I`` on fresh memory and returns
    ``(root, info)``; :class:`FactorizationError` if no rung works."""
    for jit in JITTER_LADDER:
        root, info = factor(jit * spec.sigma2)
        if info == 0:
            return root, jit
    raise FactorizationError(
        "covariance factorisation failed within jitter cap: leading minor "
        f"of order {info} not positive definite")


def _lattice_factor(spec, sites):
    """Dense lower Cholesky factor and jitter of the covariance of an
    extension block (a (n, d+1) array of conditioning sites, then new ones):
    at most ``MAX_ONESHOT_SITES`` sites, coincident ones rejected by
    ``cov_matrix``.  The factor keeps the sites' order, which kriging needs.
    Each rung of :func:`_jitter_ladder` shifts the diagonal of a copy of the
    covariance and LAPACK ``dpotrf`` factors its column-major view in place
    as L^T, zeroing the other triangle, so L is C-ordered and lower."""
    if len(sites) > MAX_ONESHOT_SITES:
        raise BudgetExceeded(f"site count {len(sites)} above cap {MAX_ONESHOT_SITES}")
    cov = spec.cov_matrix(sites)

    def factor(shift):
        mat = cov.copy()
        mat[np.diag_indices_from(mat)] += shift
        upper, info = dpotrf(mat.T, lower=0, overwrite_a=1, clean=1)
        return upper.T, info

    return _jitter_ladder(spec, factor)


def _band_root(spec, sites):
    """Band Cholesky root of a one-shot draw's covariance over a (n, d+1)
    array of sites: ``(perm, root, jitter)`` with ``B B^T = C[perm][:, perm]
    + jitter * sigma2 * I``, the lower triangular B held in LAPACK lower band
    storage, ``root[k, j] = B[j + k, j]``, shape (kd + 1, n).

    At most ``MAX_ONESHOT_SITES`` sites; the pairs within R0 and the
    coincident-site check come from the neighbour-index pass ``cov_matrix``
    makes (:meth:`CovarianceSpec._close_covs`).  The sites are ordered by
    reverse Cuthill-McKee over those pairs, which keeps the bandwidth kd far
    below n on a packing.  Each rung of :func:`_jitter_ladder` writes the
    pairs' covariances into a fresh band and LAPACK ``dpbtrf`` factors it,
    so no n x n array is formed.  The dense kernel of :func:`_lattice_factor`
    stays apart because this order cannot keep an extension's conditioning
    sites first.  With no pair the order is the identity, and kd = 0 makes
    ``dpbtrf``'s root sqrt(C(0)), the dense factor's diagonal, bit for bit.
    """
    n = len(sites)
    if n > MAX_ONESHOT_SITES:
        raise BudgetExceeded(f"site count {n} above cap {MAX_ONESHOT_SITES}")
    i, j, vals = spec._close_covs(sites)
    perm = np.arange(n)
    if i.size:
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        # both triangles, as symmetric_mode trusts the stored pattern, in
        # canonical CSR form (each row's columns ascending)
        rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
        order = np.lexsort((cols, rows))
        graph = csr_array((np.ones(rows.size, dtype=bool), cols[order],
                           np.searchsorted(rows[order], np.arange(n + 1))),
                          shape=(n, n))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.intp)
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        i, j = rank[i], rank[j]
    col, row = np.minimum(i, j), np.maximum(i, j)
    kd = int(np.max(row - col, initial=0))

    def factor(shift):
        band = np.zeros((n, kd + 1)).T      # Fortran order, as dpbtrf writes
        band[0] = spec.cov(0.0) + shift
        band[row - col, col] = vals
        return dpbtrf(band, lower=1, overwrite_ab=1)

    root, jit = _jitter_ladder(spec, factor)
    return perm, root, jit


def _band_draw(perm, root, z):
    """Values of a :func:`_band_root` draw from standard normals z of shape
    (n,) or (reps, n): ``values[..., perm] = B z``, one BLAS ``dtbmv`` band
    product per row of z."""
    values = np.empty_like(z)
    for zr, out in zip(np.atleast_2d(z), np.atleast_2d(values)):
        out[perm] = dtbmv(len(root) - 1, root, zr, lower=1)
    return values


@dataclass
class FieldRealization:
    """Sampled field values on a site set, extendable by conditioning.

    A realization's sites and values never change: an extension returns a
    new realization.  One-shot draws and hand-built realizations hold plain
    arrays and build their neighbour index on first use; an extension's
    sites are those of its index, its parent's extended
    (``geometry._SiteIndex.extended``), and its values are read-only.
    """
    spec: CovarianceSpec
    sites: np.ndarray          # (n, d+1) hyperboloid coordinates
    values: np.ndarray         # (n,)
    d: int
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

    def nearest_site(self, points):
        """Indices and distances of the closest site per point of a (..., d+1)
        array, through the neighbour index alone: the global nearest site,
        ties going to the lowest index, exactly as a dense argmin."""
        pts = np.asarray(points, dtype=float)
        idx, dist = self._neighbours().nearest(pts.reshape(-1, pts.shape[-1]))
        return idx.reshape(pts.shape[:-1]), dist.reshape(pts.shape[:-1])


def sample_field(spec, sites, seed):
    """Exact joint Gaussian draw with covariance C(d(x_i, x_j)).

    The sites go through :func:`_band_root`: at most ``MAX_ONESHOT_SITES``
    of them, none coincident, factorised in band storage in reverse
    Cuthill-McKee order; the normals of the "field" stream land on the
    sites in that order.
    """
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2:
        raise ConstraintViolation("sites must be a (n, d+1) array")
    perm, root, jit = _band_root(spec, sites)
    values = _band_draw(perm, root, stream(seed, "field").standard_normal(len(sites)))
    return FieldRealization(spec, sites, values, sites.shape[1] - 1,
                            meta={"jitter": jit, "seed": seed})


def tilted_sample(spec, sites, h, seed):
    """Draw with mean (h/sigma2) * C(d(x, o)) and unchanged covariance."""
    if h < 0:
        raise ConstraintViolation("tilt height must be nonnegative")
    base = sample_field(spec, sites, seed)
    d = base.d
    dist_o = geo.distance(np.asarray(sites, dtype=float), geo.origin(d))
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
    one block at most ``MAX_ONESHOT_SITES``.  Each existing site's distance
    to the new block is the least over the neighbour index's candidate
    pairs, and infinite for a site with none; as every pair within the
    conditioning radius is a candidate, the conditioning set and its order
    (ascending site index, or nearest first when capped) are a dense scan's.
    With ``[[L11, 0], [L21, L22]]`` the :func:`_lattice_factor` of the
    covariance of those sites then the new ones, the new values
    are ``L21 L11^-1 x + L22 z`` (x their values, z standard normals), the
    kriging law: ``L21 L11^-1 = C_no C_oo^-1`` and ``L22 L22^T = C_nn - C_no
    C_oo^-1 C_on``, and ``L22 z`` with no conditioning site.  Returns a new
    realization over the union: its neighbour index is the original's
    extended by the new sites (``geometry._SiteIndex.extended``, a copy of
    the original's rows followed by the new ones) and its sites are that
    index's, its values a read-only concatenation; the largest jitter so far
    is in ``meta["jitter"]``, extensions in ``meta["extensions"]``.
    """
    spec = fieldr.spec
    new_sites = np.atleast_2d(np.asarray(new_sites, dtype=float))
    if fieldr.n_sites + len(new_sites) > MAX_FIELD_SITES:
        raise BudgetExceeded(f"field site count above cap {MAX_FIELD_SITES}")

    cond_radius = COND_RADIUS_FACTOR * spec.R0
    _, si, cosh = fieldr._neighbours().pairs(new_sites, cond_radius)
    gap = np.full(fieldr.n_sites, np.inf)
    np.minimum.at(gap, si, np.arccosh(np.maximum(1.0, cosh)))
    if gap.min(initial=np.inf) <= COINCIDENT_DISTANCE:
        raise ConstraintViolation("new sites must be disjoint from existing sites")

    near = np.flatnonzero(gap <= cond_radius)
    if near.size > COND_SITE_CAP:
        near = near[np.argsort(gap[near])[:COND_SITE_CAP]]

    rng = stream(seed, "extend", fieldr.meta.get("extensions", 0))
    k = near.size
    L, jit = _lattice_factor(spec, np.vstack([fieldr.sites[near], new_sites]))
    new_values = (L[k:, :k] @ solve_triangular(L[:k, :k], fieldr.values[near],
                                               lower=True)
                  + L[k:, k:] @ rng.standard_normal(len(new_sites)))
    index = fieldr._neighbours().extended(new_sites)
    values = np.concatenate([fieldr.values, new_values])
    values.flags.writeable = False
    out = FieldRealization(
        spec, index.sites, values, fieldr.d,
        meta={**fieldr.meta, "extensions": fieldr.meta.get("extensions", 0) + 1,
              "jitter": max(fieldr.meta.get("jitter", 0.0), jit)})
    out._index = index
    return out


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
    are necessarily subsampled at desk scale).  One :func:`_band_root` per
    radius, within ``MAX_ONESHOT_SITES``, serves all replicates, and is
    released before the next radius is factored.
    Exceedance is counted above sqrt(2 sigma2 (d-1) (1 + eps) R), eps = 0.5.
    """
    if spacing > spec.R0 / 2.0:
        raise ConstraintViolation("spacing must be at most R0/2")
    # below big: cosh of site gaps up to 2R, and two summed knots of sinh^(d-1)
    big = np.finfo(float).max / 2.0
    far = min(math.acosh(big) / 2.0, math.asinh((big / 2.0) ** (1.0 / (d - 1))))
    if max(R_list) > far:
        raise ConstraintViolation(f"R_list entries must be at most {far:.6g} at d={d}")
    eps = 0.5
    rows = []
    for k, R in enumerate(R_list):
        packing = geo.greedy_packing(geo.BallRegion(float(R)), spacing / 2.0, d,
                                     seed=stream(seed, "scan", k).integers(2 ** 31),
                                     max_centers=site_cap)
        sites = packing.centers
        perm, root, _ = _band_root(spec, sites)
        z = stream(seed, "scan-draws", k).standard_normal((n_reps, len(sites)))
        maxima = np.max(np.abs(_band_draw(perm, root, z)), axis=1)
        del root, z    # the next radius's band must not coexist with them
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


# --- islands and clusters -------------------------------------------------------

def _components(n, i, j):
    """Vertex groups of the graph on 0..n-1 (n >= 1) with edges (i, j): each
    group ascending, groups ordered by their lowest member."""
    from scipy.sparse.csgraph import connected_components
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
    h: float
    t: float
    delta: float
    field: FieldRealization

    def __len__(self):
        return len(self.islands)


def detect_islands(fieldr, delta, t, h):
    """Connected components of {xi > delta * t^(2/3)} on the site lattice.

    Two super-threshold sites are adjacent when within 2h, h the lattice
    spacing (pairs found through the neighbour index); islands are the
    connected components of that graph, each a sorted site-index list,
    ordered by lowest site.
    """
    if delta <= 0 or t <= 0:
        raise ConstraintViolation("need delta > 0 and t > 0")
    super_idx = np.flatnonzero(fieldr.values > delta * t ** (2.0 / 3.0))
    if super_idx.size == 0:
        return IslandSet([], super_idx, h, t, delta, fieldr)
    i, j, _ = geo._SiteIndex(fieldr.sites[super_idx]).close_pairs(2.0 * h)
    islands = [super_idx[g].tolist() for g in _components(super_idx.size, i, j)]
    return IslandSet(islands, super_idx, h, t, delta, fieldr)


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
        dist = geo.distance(pts[:, None, :], pts[None, :, :])
        diameter = float(np.max(dist)) if len(site_idx) > 1 else 0.0
        center_local = int(np.argmin(np.max(dist, axis=1)))
        clusters.append(Cluster(label, site_idx, grp,
                                site_idx[center_local], diameter))
    return ClusterSet(clusters, eta, t, fieldr, islands.h)


def cluster_constants(delta, d, K0, C_R0_hat):
    """Cluster richness cap and admissible linking threshold.

    L_delta = 1.01 * 2 (d-1) K0 / (C_hat * delta^2);
    eta_delta = 0.99 * min(1 / (4 L_delta^2), C_hat^2 delta^4 / (36 (d-1)^2)).
    Arguments that are not positive, d < 2, and arguments for which a power
    over- or underflows raise :class:`ConstraintViolation`.
    """
    try:
        L_delta = 1.01 * 2.0 * (d - 1) * K0 / (C_R0_hat * delta ** 2)
        eta_delta = 0.99 * min(1.0 / (4.0 * L_delta ** 2),
                               C_R0_hat ** 2 * delta ** 4 / (36.0 * (d - 1) ** 2))
    except (OverflowError, ZeroDivisionError):
        eta_delta = 0.0
    # an infinite L_delta gives eta_delta = 0
    if min(delta, K0, C_R0_hat) <= 0 or d < 2 or not 0.0 < eta_delta < math.inf:
        raise ConstraintViolation(
            "cluster constants need positive delta, K0 and C_R0_hat, d >= 2, and "
            f"finite positive values (got delta={delta}, K0={K0}, C_R0_hat={C_R0_hat})")
    return L_delta, eta_delta
