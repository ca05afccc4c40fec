"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results through the most literal route
available (explicit scans, BFS, transitive closure, step-by-step simulation)
so the production implementations are checked against something that shares
no code with them.
"""

import math

import numpy as np

from hypam import field as fd, geometry as geo
from hypam.config import COND_RADIUS_FACTOR, COND_SITE_CAP, stream


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


def oracle_cov_matrix(spec, sites):
    """Covariance matrix by evaluating C on the full pairwise distance table."""
    return spec.cov(np.arccosh(np.maximum(
        1.0, geo.cosh_distance(sites[:, None, :], sites[None, :, :]))))


def oracle_greedy_packing(region, r, d, seed, max_centers):
    """Greedy packing that measures each candidate, in draw order, against
    every kept center; the same candidate stream as ``geo.greedy_packing``.
    Returns the centers and whether the packing is maximal."""
    inner = geo._shrunk(region, r)
    if inner is None:
        return np.empty((0, d + 1)), True
    rng = stream(seed, "packing")
    if isinstance(inner, geo.BallRegion) and inner.radius == 0.0:
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
    return kept[:n], n < max_centers


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
                g = geo.geodesic_point(o, center, times[i] / times[i_eps],
                                       validate=False)
                ok = ok and geo.distance(p, g, validate=False) <= delta_tube
                ok = ok and geo.radius(p) <= K * t ** (4.0 / 3.0)
            if i == i_eps:
                ok = ok and geo.distance(p, center, validate=False) <= r_peak
            if i >= i_eps:
                ok = ok and geo.distance(p, center, validate=False) <= 2.0 * r_peak
        out.append(bool(ok))
    return np.array(out)


def oracle_rich_ball_event(fieldr, threshold, ball_radius, min_points, separation):
    """Rich-ball event by a literal scan: per center, the super-threshold
    sites in the ball are chosen one by one in index order, each when at
    least ``separation`` from every site chosen before it."""
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
        if inside.size < need:
            continue
        chosen = []
        for i in inside:
            if all(dist_pp[i, j] >= separation for j in chosen):
                chosen.append(i)
                if len(chosen) >= need:
                    return True
    return False


def oracle_linear_fit(x, y):
    """Slope, intercept, r2 and 95% slope interval from
    ``scipy.stats.linregress`` and ``t.ppf``; infinite interval for two
    points."""
    from scipy import stats as sps
    res = sps.linregress(x, y)
    n = len(x)
    half = sps.t.ppf(0.975, n - 2) * res.stderr if n > 2 else np.inf
    return (float(res.slope), float(res.intercept), float(res.rvalue ** 2),
            (float(res.slope - half), float(res.slope + half)))


def oracle_extend_values(fieldr, new_sites, seed):
    """New values and jitter of a conditional extension through the Schur
    complement: the conditioning set by a dense scan of every site, the
    kriging weights from a Cholesky factor of the conditioning block and two
    solves, and ``mean + Lc z`` with Lc a factor of the symmetrised
    conditional covariance; the same stream as ``field.extend_field``."""
    spec = fieldr.spec
    cond_radius = COND_RADIUS_FACTOR * spec.R0
    dist_on = geo.distance(fieldr.sites[:, None, :], new_sites[None, :, :],
                           validate=False)
    near = np.flatnonzero(np.min(dist_on, axis=1) <= cond_radius)
    if near.size > COND_SITE_CAP:
        order = np.argsort(np.min(dist_on[near], axis=1))
        near = near[order[:COND_SITE_CAP]]

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
        L, jit = fd._cholesky_with_jitter(cov_oo, spec.sigma2)
        jitter = max(jitter, jit)
        w = np.linalg.solve(L.T, np.linalg.solve(L, cov_on))
        mean = w.T @ fieldr.values[near]
        cond = cov_nn - cov_on.T @ w
        cond = 0.5 * (cond + cond.T)
    Lc, jit = fd._cholesky_with_jitter(cond, spec.sigma2)
    return mean + Lc @ rng.standard_normal(len(new_sites)), max(jitter, jit)
