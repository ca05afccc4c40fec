"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through the most literal route
available (explicit scans, BFS, transitive closure, step-by-step simulation)
so the production implementations are checked against something that shares
no code with them.  The last section holds the checks that the unit tests
compare the library against (a bridge's midpoint density and its
normalisation, the law-of-cosines side, the path-energy minima by SLSQP,
the drift bound's smoothing blend and the Poincare-ball distance); no
program of the package runs them.
"""

import math

import numpy as np
from scipy import optimize
from scipy.interpolate import CubicSpline

from hypam import brownian as bm, geometry as geo, heatkernel as hk
from hypam.brownian import simulate_bm_batch, simulate_radial_batch
from hypam.feynman_kac import _trapezoid_weights
from hypam.config import (COND_RADIUS_FACTOR, COND_SITE_CAP,
                          ConstraintViolation, stream)


def brute_force_reduce(word):
    """Word reduction by rescanning the whole word from the right each step."""
    out = []
    i = 0
    while True:
        j = max(k for k in range(len(word)) if word[k] == word[i])
        out.append(word[j])
        if j + 1 >= len(word):
            return out
        i = j + 1


# The short-axis reductions ``geometry`` used before it added coordinate
# columns one at a time; the column sums must reproduce them bit for bit.

def oracle_minkowski_dot(x, y):
    return np.sum(x[..., 1:] * y[..., 1:], axis=-1) - x[..., 0] * y[..., 0]


def oracle_project(x):
    x = np.array(x, dtype=float)
    x[..., 0] = np.sqrt(1.0 + np.sum(x[..., 1:] ** 2, axis=-1))
    return x


def oracle_polar(x):
    sx = np.linalg.norm(x[..., 1:], axis=-1)
    return geo.radius(x), sx, x[..., 1:] / np.maximum(sx, 1e-300)[..., None]


def oracle_cosh_distance(x, y):
    sx = np.linalg.norm(x[..., 1:], axis=-1)
    sy = np.linalg.norm(y[..., 1:], axis=-1)
    nx = x[..., 1:] / np.maximum(sx, 1e-300)[..., None]
    ny = y[..., 1:] / np.maximum(sy, 1e-300)[..., None]
    cross = np.sum((nx - ny) ** 2, axis=-1)
    return np.cosh(geo.radius(x) - geo.radius(y)) + 0.5 * sx * sy * cross


def oracle_tangent_step(x, coeffs):
    dot = np.sum(coeffs * x[..., 1:], axis=-1, keepdims=True)
    return np.concatenate([dot, coeffs + dot / (1.0 + x[..., :1]) * x[..., 1:]],
                          axis=-1)


def oracle_exp_map(x, v, norm=None):
    """Exponential map at x of the ambient tangent vector v.  ``norm`` may
    give the tangent norm exactly (for frame coefficients, their Euclidean
    norm); through the Minkowski form it loses all precision at large
    radius."""
    if norm is None:
        norm = np.sqrt(np.maximum(geo.minkowski_dot(v, v), 0.0))
    norm = np.asarray(norm, dtype=float)
    safe = np.maximum(norm, 1e-300)[..., None]
    out = np.cosh(norm)[..., None] * x + np.sinh(norm)[..., None] * (v / safe)
    return _project(out)


def _project(x):
    """Restore the hyperboloid constraint by rebuilding the time coordinate,
    x0 = sqrt(1 + |x_s|^2), the spatial sum added column by column."""
    x = np.array(x, dtype=float)
    x[..., 0] = np.sqrt(1.0 + geo._row_dot(x[..., 1:]))
    return x


def oracle_frame_step(x, coeffs):
    norm = np.linalg.norm(coeffs, axis=-1)
    v = oracle_tangent_step(x, coeffs) / np.maximum(norm, 1e-300)[..., None]
    return oracle_project(np.cosh(norm)[..., None] * x + np.sinh(norm)[..., None] * v)


def oracle_nearest_site(sites, points):
    """Nearest site per point by argmin over the full point-by-site table."""
    prod = geo.cosh_distance(points[:, None, :], sites[None, :, :])
    idx = np.argmin(prod, axis=1)
    best = prod[np.arange(len(points)), idx]
    return idx, np.arccosh(np.maximum(1.0, best))


def oracle_cov(spec, rho):
    """C(rho) as scipy's clamped ``CubicSpline`` through the spec's grid and
    values, evaluated everywhere and masked to |rho| < R0."""
    spline = CubicSpline(spec.rho_grid, spec.values, bc_type=((1, 0.0), (1, 0.0)))
    rho = np.abs(np.asarray(rho, dtype=float))
    out = np.where(rho < spec.R0, spline(np.minimum(rho, spec.R0)), 0.0)
    return out if out.ndim else float(out)


def oracle_cov_matrix(spec, sites):
    """Covariance matrix by evaluating C on the full pairwise distance table."""
    return spec.cov(np.arccosh(np.maximum(
        1.0, geo.cosh_distance(sites[:, None, :], sites[None, :, :]))))


_ORACLE_BUMPS = {
    "poly3": lambda u: (1.0 - u * u) ** 3,
    "poly4": lambda u: (1.0 - u * u) ** 4,
    "cosine": lambda u: np.cos(0.5 * math.pi * u) ** 3,
}


def oracle_profile(R0, bump, d, rho, n_quad=384):
    """Normalised H^d autocorrelation of the radial bump of radius R0/2 at
    each rho: the integral over z of k(d(x, z)) k(d(y, z)) with d(x, y) =
    rho, by an n_quad x n_quad Gauss-Legendre rule in geodesic polar
    coordinates (r, theta) around x, divided by its own value at rho = 0.
    One rho at a time, with d(y, z) from the hyperbolic law of cosines and
    the bump extended by zero past its radius."""
    k = _ORACLE_BUMPS[bump]
    s = 0.5 * R0
    x, w = np.polynomial.legendre.leggauss(n_quad)
    r = 0.5 * s * (x + 1.0)
    th = 0.5 * math.pi * (x + 1.0)
    w_r = 0.5 * s * w * k(r / s) * np.sinh(r) ** (d - 1)
    w_th = 0.5 * math.pi * w * np.sin(th) ** (d - 2)

    def integral(p):
        cosh_yz = (math.cosh(p) * np.cosh(r)[:, None]
                   - math.sinh(p) * np.sinh(r)[:, None] * np.cos(th)[None, :])
        u = np.arccosh(np.maximum(cosh_yz, 1.0)) / s
        return float(w_r @ np.where(u < 1.0, k(np.minimum(u, 1.0)), 0.0) @ w_th)

    norm = integral(0.0)
    return np.array([integral(float(p)) for p in np.ravel(rho)]) / norm


def oracle_greedy_packing(region, r, d, seed, max_centers):
    """Greedy packing that measures each candidate, in draw order, against
    every kept center; the same candidate stream as ``geo.greedy_packing``.
    The gap pass that completes a packing short of the cap is the library's
    ``geo._fill_gaps``, checked by the covering tests on its own.
    Returns the centers and whether the packing is maximal."""
    inner = geo._shrunk(region, r)
    rng = stream(seed, "packing")
    if inner.radius == 0.0:
        return geo.origin(d)[None, :], True
    kept = np.empty((max_centers, d + 1))
    n = 0
    idle = 0
    while idle < 8 and n < max_centers:
        gained = False
        for c in geo.sample_region(inner, d, rng, 512):
            if n >= max_centers:
                break
            if np.all(geo.cosh_distance(kept[:n], c) > np.cosh(2.0 * r)):
                kept[n] = c
                n += 1
                gained = True
        idle = 0 if gained else idle + 1
    index, covered = geo._fill_gaps(geo._SiteIndex(kept[:n]), inner, r, d,
                                    max_centers)
    return index.sites, covered and len(index.sites) < max_centers


def oracle_covering_probe(packing, region, d, n_probes=10000, seed=1):
    """Fraction of random probes of the packing's shrunken region within 2r
    of some center, from the full probes x centres cosh table."""
    inner = geo._shrunk(region, packing.radius)
    if len(packing) == 0:
        return 1.0
    rng = stream(seed, "probe")
    probes = geo.sample_region(inner, d, rng, n_probes)
    cosh2r = np.cosh(2.0 * packing.radius)
    prod = geo.cosh_distance(probes[:, None, :], packing.centers[None, :, :])
    return float(np.mean(np.min(prod, axis=1) <= cosh2r + 1e-12))


def oracle_greedy_keep(near, limit):
    """Indices kept by one in-order greedy pass over a square boolean matrix.

    Index k is kept unless an earlier kept index m has ``near[m, k]``; the
    pass stops once ``limit`` indices are kept.  Returns them ascending.
    """
    blocked = np.zeros(len(near), dtype=bool)
    kept = []
    for k in range(len(near)):
        if len(kept) == limit:
            break
        if not blocked[k]:
            kept.append(k)
            blocked |= near[k]
    return np.array(kept, dtype=np.intp)


def oracle_islands(fieldr, delta, t, h):
    """Connected components via explicit adjacency matrix and BFS."""
    thr = delta * t ** (2.0 / 3.0)
    idx = np.flatnonzero(fieldr.values > thr)
    pts = fieldr.sites[idx]
    n = len(idx)
    dist = np.arccosh(np.maximum(
        1.0, geo.cosh_distance(pts[:, None, :], pts[None, :, :])))
    adj = dist <= 2.0 * h
    comps = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], []
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            comp.append(k)
            stack.extend(int(m) for m in np.flatnonzero(adj[k]))
        comps.append(sorted(int(idx[c]) for c in comp))
    return sorted(comps)


def oracle_clusters(islands, eta, t):
    """Cluster membership via boolean transitive closure over island links."""
    link = eta * t ** (4.0 / 3.0)
    f = islands.field
    n = len(islands.islands)
    adj = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            a = f.sites[np.asarray(islands.islands[i])]
            b = f.sites[np.asarray(islands.islands[j])]
            dmin = np.min(np.arccosh(np.maximum(
                1.0, geo.cosh_distance(a[:, None, :], b[None, :, :]))))
            if dmin <= link:
                adj[i, j] = True
    for _ in range(n):
        adj = adj | (adj @ adj)
    comps = sorted(set(tuple(sorted(np.flatnonzero(adj[i]).tolist()))
                       for i in range(n)))
    return sorted(sorted(ix for g in comp for ix in islands.islands[g])
                  for comp in comps)


def oracle_j_error_integral(t, m, lam, delta, alpha, mu, K0, r_t_value):
    """``feynman_kac.j_error_integral`` with each leg's factor integrated by
    ``scipy.integrate.quad`` instead of its erfc closed form."""
    if m < 1:
        raise ConstraintViolation("need at least one route leg")
    c0 = (1.0 - alpha) * (delta / mu) ** 4 / 16.0 - K0 * r_t_value / 2.0
    if c0 <= 0:
        raise ConstraintViolation(
            "route error exponent not positive: decrease lam or increase delta")
    ci = (1.0 - alpha) * lam ** 2 / 64.0
    s = t ** (-5.0 / 3.0)
    total = 0.0
    for c in [c0] + [ci] * (m - 1):
        # int_0^s v^(-3/2) e^(-c/v) dv = e^(-c/s) int_0^inf e^(-cu) (u+1/s)^(-1/2) du
        # (substitute u = 1/v - 1/s); the right side never underflows.
        from scipy.integrate import quad
        val, _ = quad(lambda u, cc=c: math.exp(-cc * u) / math.sqrt(u + 1.0 / s),
                      0.0, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
        if val <= 0:
            raise ArithmeticError("route error factor underflowed in quadrature")
        total += math.log(K0 / math.sqrt(math.pi) * val) - c / s
    return total


def oracle_long_route_log_F(eta, N, t, n_grid):
    """log F of ``feynman_kac.long_route_tail`` from the N-fold convolution
    recursion of the halved-exponent level-crossing densities on a grid of
    ``n_grid`` steps of [0, t], instead of the closed form."""
    a_half = eta * t ** (4.0 / 3.0) / 4.0
    grid = np.linspace(0.0, t, n_grid + 1)
    du = grid[1] - grid[0]
    u = grid[1:]
    kern = math.sqrt(2.0) * (a_half / (math.sqrt(2.0 * math.pi) * u ** 1.5)
                             * np.exp(-a_half ** 2 / (2.0 * u)))
    conv = kern.copy()
    for _ in range(N - 1):
        full = np.convolve(conv, kern)[: len(u)] * du
        conv = full
    F = float(np.sum(conv) * du)
    if F <= 0:
        raise ArithmeticError("convolution recursion underflowed")
    return math.log(F)


def sample_hitting_times(a, dt, t_max, n, rng):
    """First hitting times of level a by standard 1-D BM.

    Euler steps with Brownian-bridge crossing detection between grid points
    (crossing probability exp(-2 (a-x0)(a-x1) / dt)), which removes the
    leading discrete-monitoring bias.  Times are jittered uniformly within
    the crossing step; paths alive at t_max report +inf.
    """
    sqdt = np.sqrt(dt)
    n_steps = int(round(t_max / dt))
    x = np.zeros(n)
    times = np.full(n, np.inf)
    active = np.arange(n)
    for k in range(n_steps):
        if active.size == 0:
            break
        z = rng.standard_normal(active.size)
        x_new = x[active] + sqdt * z
        cross = x_new >= a
        below = ~cross
        p_bridge = np.exp(-2.0 * (a - x[active][below])
                          * (a - x_new[below]) / dt)
        u = rng.random(below.sum())
        bridge_hit = np.zeros(active.size, dtype=bool)
        bridge_hit[np.flatnonzero(below)[u < p_bridge]] = True
        newly = cross | bridge_hit
        jitter = rng.random(int(newly.sum()))
        times[active[newly]] = (k + jitter) * dt
        x[active] = x_new
        active = active[~newly]
    return times


def oracle_radial_drift(r, d, dt):
    """The clamped radial drift with both branches evaluated everywhere and
    selected by ``np.where``, in ``brownian._radial_drift``'s arithmetic."""
    r_eff = np.maximum(r, 0.5 * math.sqrt(2.0 * dt))
    near = (d - 1.0) * (1.0 / r_eff + 1.0)
    far = (d - 1.0) / np.tanh(np.maximum(r, 0.1))
    return np.where(r < 0.1, near, far)


def oracle_radial_batch(d, t, dt, r0, seed, n_paths, stream_id=0):
    """The radial Euler-Maruyama loop with fresh arrays at every step and
    the two-branch drift, on ``brownian.simulate_radial_batch``'s stream."""
    rng = stream(seed, "radial", stream_id)
    r = np.full(n_paths, float(r0))
    running_max = r.copy()
    scale = math.sqrt(2.0 * dt)
    for _ in range(int(round(t / dt))):
        r = np.abs(r + oracle_radial_drift(r, d, dt) * dt
                   + scale * rng.standard_normal(n_paths))
        running_max = np.maximum(running_max, r)
    return r, running_max


def oracle_annealed_moment(spec, d, t, dt, n_paths, seed):
    """Annealed log-weights 0.5 w.C.w from each path's dense table of C over
    every pair of its grid points, on the paths of
    ``feynman_kac.annealed_moment_estimate``."""
    times, pts = simulate_bm_batch(d, t, dt, seed, n_paths, stream_id=0)
    w = _trapezoid_weights(times)
    out = np.empty(n_paths)
    for j in range(n_paths):
        path = pts[:, j, :]
        cmat = spec.cov(np.arccosh(np.maximum(
            1.0, oracle_cosh_distance(path[:, None, :], path[None, :, :]))))
        out[j] = 0.5 * float(w @ cmat @ w)
    return out


def oracle_log_exact_h3(t, rho):
    """The H^3 log-kernel with both forms of log sinh evaluated everywhere
    and selected by ``np.where``, in ``heatkernel.log_exact_h3``'s
    arithmetic."""
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    x = np.where(rho > 1e-8, rho, 1e-8)
    log_sinh = np.where(x < 20.0,
                        np.log(np.sinh(np.minimum(x, 20.0))),
                        x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x)))
    log_ratio = np.where(rho > 1e-8, np.log(x) - log_sinh, -rho ** 2 / 6.0)
    return (-1.5 * np.log(4.0 * np.pi * t) + log_ratio - t - rho ** 2 / (4.0 * t))


def oracle_log_exact_h2(t, rho):
    """McKean's H^2 log-kernel from its direct form in s over [rho, inf),
    ``sqrt(2) (4 pi t)^(-3/2) e^(-t/4) * integral of s e^(-s^2/(4t))
    (cosh s - cosh rho)^(-1/2) ds``, with no change of variable and no log
    domain.  On [rho, rho + 1] the (s - rho)^(-1/2) endpoint singularity is
    QUADPACK's algebraic weight; at rho = 0 the integrand is regular there
    (cosh s - 1 = 2 sinh^2(s/2)).  Past rho + 1 + sqrt(3200 t) the factor
    e^((rho^2 - s^2)/(4t)), kept apart from the log, is below e^-800; cosh
    must stay finite up to there (rho + 1 + sqrt(3200 t) < 710)."""
    from scipy.integrate import quad
    t, rho = float(t), float(rho)

    def gauss(s):
        return s * math.exp((rho * rho - s * s) / (4.0 * t))

    if rho > 0.0:
        def near(s):
            h = 0.5 * (s - rho)
            sinhc = math.sinh(h) / h if h > 0.0 else 1.0
            return gauss(s) / math.sqrt(math.sinh(0.5 * (s + rho)) * sinhc)
        head = quad(near, rho, rho + 1.0, weight="alg", wvar=(-0.5, 0.0),
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
    else:
        head = quad(lambda s: gauss(s) / (math.sqrt(2.0) * math.sinh(0.5 * s)),
                    0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    tail = quad(lambda s: gauss(s) / math.sqrt(math.cosh(s) - math.cosh(rho)),
                rho + 1.0, rho + 1.0 + math.sqrt(3200.0 * t),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return (0.5 * math.log(2.0) - 1.5 * math.log(4.0 * math.pi * t) - 0.25 * t
            - rho * rho / (4.0 * t) + math.log(head + tail))


def oracle_radial_pam_h3(V, t, h, dt, r_max):
    """``(r, log U)`` of the radial parabolic Anderson model in H^3 through
    w = sinh(r) U, which turns the radial Laplacian into ``w_rr - w``:
    ``w_t = w_rr - w + V w``, w = sinh r at t = 0, w(0) = 0 (U stays finite)
    and w(r_max) = sinh(r_max) (U = 1).  Second differences on the nodes
    r = h, 2h, .., r_max - h, Crank-Nicolson in ceil(t / dt) equal steps,
    no rescaling, so only for moderate growth."""
    from scipy.linalg import solve_banded
    n = round(r_max / h)
    r = h * np.arange(1, n)
    op = np.zeros((3, n - 1))
    op[0, 1:] = op[2, :-1] = 1.0 / h ** 2
    op[1] = -2.0 / h ** 2 - 1.0 + V(r)
    n_steps = math.ceil(t / dt)
    k = t / n_steps
    lhs = -0.5 * k * op
    lhs[1] += 1.0
    w = np.sinh(r)
    for _ in range(n_steps):
        rhs = w + 0.5 * k * op[1] * w
        rhs[:-1] += 0.5 * k * op[0, 1:] * w[1:]
        rhs[1:] += 0.5 * k * op[2, :-1] * w[:-1]
        rhs[-1] += k * math.sinh(n * h) / h ** 2
        w = solve_banded((1, 1), lhs, rhs)
    return r, np.log(w / np.sinh(r))


def oracle_radial_histogram(d, t, edges, n_paths, dt, seed, stream_id=0):
    """Monte Carlo heat kernel of H^d at time t from the radial SDE: bin
    midpoints, the histogram density of the distance to the start divided
    by the surface factor ``sphere_area(d) sinh(mid)^(d-1)``, and its
    binomial standard error, on the bins with at least 50 samples."""
    r, _ = simulate_radial_batch(d, t, dt, 0.0, seed=seed, n_paths=n_paths,
                                 stream_id=stream_id)
    counts, _ = np.histogram(r, bins=edges)
    mids = 0.5 * (edges[1:] + edges[:-1])
    scale = n_paths * np.diff(edges) * geo.sphere_area(d) * np.sinh(mids) ** (d - 1)
    ok = counts >= 50
    p_hat = counts[ok] / scale[ok]
    se = np.sqrt(counts[ok] * (1.0 - counts[ok] / n_paths)) / scale[ok]
    return mids[ok], p_hat, se


def oracle_localized_accept(times, pts, eps, t, dt, K, delta_tube, center,
                            r_peak):
    """Localized-scenario acceptance by a literal per-path, per-step scan."""
    d = pts.shape[-1] - 1
    i_eps = min(max(int(round(eps * t / dt)), 1), len(times) - 1)
    o = geo.origin(d)
    out = []
    for j in range(pts.shape[1]):
        ok = True
        for i in range(len(times)):
            p = pts[i, j]
            if i <= i_eps:
                g = geo.geodesic_point(o, center, times[i] / times[i_eps])
                ok = ok and geo.distance(p, g) <= delta_tube
                ok = ok and geo.radius(p) <= K * t ** (4.0 / 3.0)
            if i == i_eps:
                ok = ok and geo.distance(p, center) <= r_peak
            if i >= i_eps:
                ok = ok and geo.distance(p, center) <= 2.0 * r_peak
        out.append(bool(ok))
    return np.array(out)


def oracle_linear_fit(x, y):
    """Slope, intercept, r2 and 95% slope interval from
    ``scipy.stats.linregress`` and ``t.ppf``; infinite interval for two
    points.  linregress divides by an underflowed ssxm * ssym as numpy
    does, warning included; the warning is silenced so the values compare."""
    from scipy import stats as sps
    with np.errstate(divide="ignore", invalid="ignore"):
        res = sps.linregress(x, y)
    n = len(x)
    half = sps.t.ppf(0.975, n - 2) * res.stderr if n > 2 else np.inf
    return (float(res.slope), float(res.intercept), float(res.rvalue ** 2),
            (float(res.slope - half), float(res.slope + half)))


def oracle_conditioning_set(fieldr, new_sites):
    """Indices of the existing sites an extension conditions on, by a dense
    scan of every site: those within ``COND_RADIUS_FACTOR * R0`` of the new
    block, ascending, or the ``COND_SITE_CAP`` nearest, nearest first."""
    cond_radius = COND_RADIUS_FACTOR * fieldr.spec.R0
    dist_on = geo.distance(fieldr.sites[:, None, :], new_sites[None, :, :])
    near = np.flatnonzero(np.min(dist_on, axis=1) <= cond_radius)
    if near.size > COND_SITE_CAP:
        order = np.argsort(np.min(dist_on[near], axis=1))
        near = near[order[:COND_SITE_CAP]]
    return near


def oracle_extend_values(fieldr, new_sites, seed):
    """New values and jitter of a conditional extension through the Schur
    complement: the conditioning set by a dense scan of every site
    (:func:`oracle_conditioning_set`), the kriging weights from a Cholesky
    factor of the conditioning block and two solves, and ``mean + Lc z`` with
    Lc a factor of the symmetrised conditional covariance; the same stream as
    ``field.extend_field``.  Both factors come from numpy's Cholesky with no
    jitter (a block that needs one raises ``LinAlgError``), so the jitter
    returned is the realization's."""
    spec = fieldr.spec
    near = oracle_conditioning_set(fieldr, new_sites)

    rng = stream(seed, "extend", fieldr.meta.get("extensions", 0))
    jitter = fieldr.meta.get("jitter", 0.0)
    k = near.size
    cov = spec.cov_matrix(np.vstack([fieldr.sites[near], new_sites]))
    cov_nn = cov[k:, k:]
    if k == 0:
        mean = np.zeros(len(new_sites))
        cond = cov_nn
    else:
        cov_oo, cov_on = cov[:k, :k], cov[:k, k:]
        L = np.linalg.cholesky(cov_oo)
        w = np.linalg.solve(L.T, np.linalg.solve(L, cov_on))
        mean = w.T @ fieldr.values[near]
        cond = cov_nn - cov_on.T @ w
        cond = 0.5 * (cond + cond.T)
    Lc = np.linalg.cholesky(cond)
    return mean + Lc @ rng.standard_normal(len(new_sites)), jitter


# --- checks the unit tests compare the library against -----------------------

def side_length(rho, r, theta):
    """Hyperbolic law of cosines: the side opposite angle ``theta``.

    Triangle with side lengths ``rho`` and ``r`` meeting at angle ``theta``.
    """
    c = np.cosh(rho) * np.cosh(r) - np.sinh(rho) * np.sinh(r) * np.cos(theta)
    return np.arccosh(np.maximum(1.0, c))


def poincare_distance(u, v):
    """Hyperbolic distance of two points given in Poincare-ball coordinates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    du2 = np.sum((u - v) ** 2, axis=-1)
    arg = 1.0 + 2.0 * du2 / ((1.0 - np.sum(u * u, axis=-1)) * (1.0 - np.sum(v * v, axis=-1)))
    return np.arccosh(np.maximum(1.0, arg))


def bridge_marginal(t_a, x, t_b, q, t_mid, y, d=3):
    """Midpoint density of the Brownian bridge: p(s1,x,y) p(s2,y,q) / p(s,x,q).

    Times must satisfy t_a < t_mid < t_b; the kernel is the exact one of
    ``heatkernel._exact_log_kernel``, so d other than 2 or 3 raises
    ``KernelUnavailable``.
    """
    if not (t_a < t_mid < t_b):
        raise ValueError("need t_a < t_mid < t_b")
    log_p = hk._exact_log_kernel(d)
    s1 = t_mid - t_a
    s2 = t_b - t_mid
    s = t_b - t_a
    r1 = geo.distance(x, y)
    r2 = geo.distance(y, q)
    r = geo.distance(x, q)
    return float(np.exp(log_p(s1, r1) + log_p(s2, r2) - log_p(s, r)))


def bridge_marginal_normalization(t_a, t_b, t_mid, D, n_r=400, n_theta=200):
    """Integral of the d=3 bridge marginal over H^3 (should be 1).

    Endpoints at distance D apart; integration in polar coordinates around
    the start point using the hyperbolic law of cosines for d(y, q).
    """
    from scipy.integrate import trapezoid
    s1 = t_mid - t_a
    s2 = t_b - t_mid
    s = t_b - t_a
    r_max = D + 14.0 * np.sqrt(max(s1, s2)) + 4.0 * s
    r = np.linspace(1e-9, r_max, n_r)
    theta = np.linspace(0.0, np.pi, n_theta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    d2 = side_length(rr, D, tt)
    log_num = hk.log_exact_h3(s1, rr) + hk.log_exact_h3(s2, d2)
    log_den = hk.log_exact_h3(s, D)
    integrand = np.exp(log_num - log_den) * np.sinh(rr) ** 2 * np.sin(tt)
    inner = trapezoid(integrand, theta, axis=1)
    return 2.0 * np.pi * trapezoid(inner, r)


def offset_path_energy(K_star, d, n):
    """Endpoints o, y at distance K_star, and the energy of offset paths with
    its exact gradient.

    Node i of the path (i = 1..n) is the geodesic step from the uniform node
    gamma(i/n) of [o, y] with orthonormal-frame coefficients z[i-1]; node 0
    is o.  ``energy_of`` and ``energy_grad`` take the flattened (n, d)
    coefficients.  The energy is n * sum_i D_i^2 over segment lengths D_i,
    and its gradient is the chain rule through three maps:

    - a segment [a, b] has cosh D = a0 b0 - a_s.b_s, so
      d(D^2)/da = 2 (D / sinh D) (b0, -b_s), with D / sinh D -> 1 as D -> 0;
    - each node satisfies the constraint a0 = sqrt(1 + |a_s|^2), which folds
      the time component of a node's gradient into the spatial one as
      a_s / a0;
    - ``frame_step`` from gamma = (g0, g_s) has spatial part
      cosh(r) g_s + f(r) T_s z with r = |z|, f(r) = sinh(r) / r and
      T_s = I + g_s g_s^T / (1 + g0), so
      dx_s/dz = f(r) (g_s z^T + T_s) + (f'(r) / r) (T_s z) z^T.  That is
      sinh(r) g_s zhat^T + f(r) T_s + f'(r) (T_s z) zhat^T, written so that
      r = 0 needs no direction; f'(r) / r -> 1/3 there.
    """
    x = geo.origin(d)
    y = geo.point_at(d, K_star, np.eye(d)[0])
    gamma = geo.geodesic_point(x, y, np.linspace(0.0, 1.0, n + 1))[1:]
    gs = gamma[:, 1:]
    gs_scaled = gs / (1.0 + gamma[:, :1])
    lower = np.r_[1.0, -np.ones(d)]          # p -> (p0, -p_s)

    def nodes(z):
        return np.vstack([x, geo.frame_step(gamma, z.reshape(n, d))])

    def energy_of(z):
        return bm.path_energy(nodes(z))

    def energy_grad(z):
        z = z.reshape(n, d)
        pts = nodes(z)
        D = geo.distance(pts[:-1], pts[1:])
        w = 2.0 * n * np.divide(D, np.sinh(D), out=np.ones(n), where=D > 0.0)
        low = pts * lower
        grad_pts = w[:, None] * low[:-1]      # segment i-1 ends at node i
        grad_pts[:-1] += w[1:, None] * low[2:]
        grad_s = grad_pts[:, 1:] + grad_pts[:, :1] * pts[1:, 1:] / pts[1:, :1]
        r = np.sqrt(np.sum(z * z, axis=1))
        rs = np.maximum(r, 1e-2)
        small = r < 1e-2
        r2 = r * r
        f = np.where(small, 1.0 + r2 / 6.0 + r2 * r2 / 120.0, np.sinh(rs) / rs)
        h = np.where(small, 1.0 / 3.0 + r2 / 30.0 + r2 * r2 / 840.0,
                     (rs * np.cosh(rs) - np.sinh(rs)) / rs ** 3)
        g_dot_grad = np.sum(gs * grad_s, axis=1, keepdims=True)
        t_grad = grad_s + gs_scaled * g_dot_grad
        t_z = z + gs_scaled * np.sum(gs * z, axis=1, keepdims=True)
        out = (f[:, None] * (z * g_dot_grad + t_grad)
               + (h * np.sum(t_z * grad_s, axis=1))[:, None] * z)
        return out.ravel()

    return x, y, energy_of, energy_grad


def node_norm_constraint(n, d, k, sign, offset):
    """SLSQP inequality sign * |z_k| + offset >= 0 with its exact Jacobian,
    sign * z_k / |z_k| in block k (zero at z_k = 0) and zero elsewhere."""
    def fun(z):
        return sign * np.linalg.norm(z.reshape(n, d)[k]) + offset

    def jac(z):
        out = np.zeros((n, d))
        zk = z.reshape(n, d)[k]
        r = np.linalg.norm(zk)
        if r > 0.0:
            out[k] = sign * zk / r
        return out.ravel()

    return {"type": "ineq", "fun": fun, "jac": jac}


def minimize_energy(energy_of, energy_grad, z0, cons, lim):
    return optimize.minimize(energy_of, z0, jac=energy_grad, method="SLSQP",
                             constraints=cons, bounds=[(-lim, lim)] * z0.size,
                             options={"maxiter": 300, "ftol": 1e-12})


def slsqp_energy_excess(K_star, delta, eta, zeta, d, n_trials, seed):
    """``brownian.energy_excess_check``'s minimum found by local search.

    SLSQP minimises the energy of ``offset_path_energy`` over the frame
    offsets, with the deviation of at least delta/4 at node j in {n/4, n/2,
    3n/4} and the endpoint slack 3*eta + 2*K_star*zeta as constraints, from
    ``n_trials`` small random starts per node, alternately on either side
    of the geodesic.  Returns the least energy of the converged runs, or
    None if none converges.  A local search: a converged run may stop above
    the minimum.
    """
    n = bm._N_SEGMENTS
    x, y, energy_of, energy_grad = offset_path_energy(K_star, d, n)
    dev = delta / 4.0
    endpoint = node_norm_constraint(n, d, n - 1, -1.0, 3.0 * eta + 2.0 * K_star * zeta)
    rng = stream(seed, "energy")
    best = None
    for j in (n // 4, n // 2, 3 * n // 4):
        deviated = node_norm_constraint(n, d, j - 1, 1.0, -dev)
        for trial in range(n_trials):
            z0 = 1e-3 * rng.standard_normal((n, d))
            z0[j - 1, -1] = (1.0 if trial % 2 == 0 else -1.0) * dev * 1.05
            res = minimize_energy(energy_of, energy_grad, z0.ravel(),
                                  [deviated, endpoint],
                                  float(geo.distance(x, y)) + 2.0)
            if res.success and (best is None or res.fun < best):
                best = float(res.fun)
    return best


def geodesic_baseline_energy(K_star, d=2, slack=0.0):
    """Unconstrained minimum of ``energy_excess_check``'s discrete energy
    with optional endpoint slack.

    Raises ``ConstraintViolation`` when SLSQP does not converge.
    """
    n = bm._N_SEGMENTS
    x, y, energy_of, energy_grad = offset_path_energy(K_star, d, n)
    res = minimize_energy(energy_of, energy_grad, np.zeros(n * d),
                          [node_norm_constraint(n, d, n - 1, -1.0, slack)],
                          float(geo.distance(x, y)) + 2.0)
    if not res.success:
        raise ConstraintViolation(f"geodesic baseline SLSQP failed: {res.message}")
    return float(res.fun)


def smoothing_blend(x):
    """The concrete f behind ``brownian.radial_drift_bound``.

    Constant 1/2 below 1/4, identity above 1; in between the integral of the
    blend slope f' = 2u - u^2 (u the normalized coordinate), so f is C^1,
    nondecreasing, with f' <= 1 everywhere.
    """
    x = np.asarray(x, dtype=float)
    a, b = 0.25, 1.0
    u = np.clip((x - a) / (b - a), 0.0, 1.0)
    blend_val = 0.5 + (b - a) * (u ** 2 - u ** 3 / 3.0)
    return np.where(x <= a, 0.5, np.where(x >= b, x, blend_val))
