"""Brownian motion on H^d, its radial part, bridges and path energy.

The generator is Delta (not Delta/2): tangent increments carry covariance
2*dt per direction and the radial part solves dR = sqrt(2) dB + (d-1) coth(R) dt.
The full simulator is a geodesic random walk (Gaussian tangent step followed
by the exponential map); the radial simulator is Euler-Maruyama with a
clamped drift near zero and reflection, and the two are required to agree in
law at matched resolution.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .config import ConstraintViolation, stream
from . import geometry as geo
from .stats import linear_fit, wilson_ci

STEP_SANITY_FACTOR = 50.0   # flag steps longer than 50*sqrt(2*dt)


@dataclass
class Trajectory:
    """Time-indexed path of hyperboloid points."""
    times: np.ndarray
    points: np.ndarray
    d: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("times must be strictly increasing")

    def step_lengths(self):
        return geo.distance(self.points[:-1], self.points[1:], validate=False)

    def max_step_ratio(self):
        """Largest step length relative to the sqrt(2*dt) diffusive scale."""
        if len(self.times) < 2:
            return 0.0
        dts = np.diff(self.times)
        return float(np.max(self.step_lengths() / np.sqrt(2.0 * dts)))

    def radial(self):
        return geo.radius(self.points)


@dataclass(frozen=True)
class BridgeSpec:
    start: np.ndarray
    end: np.ndarray
    s: float

    def __post_init__(self):
        geo.check_points(self.start)
        geo.check_points(self.end)
        if self.s <= 0:
            raise ValueError("bridge duration must be positive")


# --- full simulator ----------------------------------------------------------

def simulate_bm_batch(d, t, dt, seed, n_paths, stream_id=0, start=None,
                      record=True):
    """Vectorized geodesic random walk; returns (times, points array).

    ``points`` has shape (n_steps+1, n_paths, d+1) when ``record`` else only
    the final slice (n_paths, d+1) is returned to save memory.
    """
    if dt <= 0 or t < 0:
        raise ConstraintViolation("need dt > 0 and t >= 0")
    n_steps = int(round(t / dt)) if t > 0 else 0
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    if start is None:
        x = np.tile(geo.origin(d), (n_paths, 1))
    elif np.ndim(start) == 1:
        x = np.tile(np.asarray(start, dtype=float), (n_paths, 1))
    else:
        x = np.array(start, dtype=float)
    rng = stream(seed, "bm", stream_id)
    scale = math.sqrt(2.0 * dt)
    if record:
        out = np.empty((n_steps + 1, n_paths, d + 1))
        out[0] = x
        for i in range(n_steps):
            x = geo.frame_step(x, scale * rng.standard_normal((n_paths, d)))
            out[i + 1] = x
        return times, out
    for _ in range(n_steps):
        x = geo.frame_step(x, scale * rng.standard_normal((n_paths, d)))
    return times, x


def simulate_bm(d, t, dt, seed):
    """Single Brownian trajectory from the base point."""
    times, pts = simulate_bm_batch(d, t, dt, seed, n_paths=1)
    traj = Trajectory(times, pts[:, 0, :], d, meta={"dt": dt, "seed": seed})
    traj.meta["max_step_ratio"] = traj.max_step_ratio()
    return traj


# --- radial SDE --------------------------------------------------------------

def _radial_drift(r, d, dt):
    """Drift (d-1)*coth(r), clamped to (d-1)*(1/r + 1) below r = 0.1.

    The 1/r piece is additionally floored at the step resolution
    sqrt(2*dt)/2 so a single Euler step cannot overshoot by more than one
    diffusive increment; reflection at zero handles the rest.
    """
    drift = (d - 1.0) / np.tanh(np.maximum(r, 0.1))
    near = r < 0.1
    r_eff = np.maximum(r[near], 0.5 * math.sqrt(2.0 * dt))
    drift[near] = (d - 1.0) * (1.0 / r_eff + 1.0)
    return drift


def simulate_radial_batch(d, t, dt, r0, seed, n_paths, stream_id=0,
                          record_max=False):
    """Euler-Maruyama for the radial SDE; returns final radii (and max)."""
    if dt <= 0 or r0 < 0:
        raise ConstraintViolation("need dt > 0 and r0 >= 0")
    n_steps = int(round(t / dt))
    rng = stream(seed, "radial", stream_id)
    r = np.full(n_paths, float(r0))
    running_max = np.full(n_paths, float(r0))
    scale = math.sqrt(2.0 * dt)
    for _ in range(n_steps):
        r = r + _radial_drift(r, d, dt) * dt + scale * rng.standard_normal(n_paths)
        r = np.abs(r)
        if record_max:
            np.maximum(running_max, r, out=running_max)
    if record_max:
        return r, running_max
    return r


@functools.cache
def radial_drift_bound(d):
    """Numeric sup of (d-1) f'(x) coth(x) + f''(x) for the smoothing blend f.

    f is constant 1/2 on [0, 1/4], the identity on [1, inf) and a cubic
    Hermite blend in between, chosen so f is nondecreasing with f' <= 1
    (knots fixed here).  The sup is finite because f' vanishes where coth
    blows up; it is taken over 100001 grid points of the blend.
    """
    a, b = 0.25, 1.0
    x = np.linspace(a, b, 100001)
    u = (x - a) / (b - a)
    fp = 2.0 * u - u ** 2                 # f' on the blend, in [0, 1]
    fpp = (2.0 - 2.0 * u) / (b - a)
    blend = (d - 1.0) * fp / np.tanh(x) + fpp
    tail = (d - 1.0) / np.tanh(b)         # x >= 1: f' = 1, f'' = 0, coth decreasing
    return float(max(np.max(blend), tail))


def smoothing_blend(x):
    """The concrete f used for the drift bound (exposed for tests).

    Constant 1/2 below 1/4, identity above 1; in between the integral of the
    blend slope f' = 2u - u^2 (u the normalized coordinate), so f is C^1,
    nondecreasing, with f' <= 1 everywhere.
    """
    x = np.asarray(x, dtype=float)
    a, b = 0.25, 1.0
    u = np.clip((x - a) / (b - a), 0.0, 1.0)
    blend_val = 0.5 + (b - a) * (u ** 2 - u ** 3 / 3.0)
    return np.where(x <= a, 0.5, np.where(x >= b, x, blend_val))


# --- exit times --------------------------------------------------------------

def exit_stats(d, R_list, t, n_paths, seed, dt=0.01):
    """Empirical exit probabilities P(tau_R <= t) with Wilson intervals.

    Uses the radial simulator (the exit time of a centered ball depends on
    the radial part only) and tracks the running maximum, so all radii in
    ``R_list`` are served by one simulation, run in chunks of 500000 paths
    (each chunk its own stream).  Returns a list of dict rows.
    """
    chunk = 500000
    R_arr = np.asarray(sorted(R_list), dtype=float)
    hits = np.zeros(R_arr.size, dtype=np.int64)
    done = 0
    cid = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        _, rmax = simulate_radial_batch(d, t, dt, 0.0, seed, m, stream_id=cid,
                                        record_max=True)
        for j, R in enumerate(R_arr):
            hits[j] += int(np.sum(rmax >= R))
        done += m
        cid += 1
    rows = []
    for j, R in enumerate(R_arr):
        lo, hi = wilson_ci(int(hits[j]), n_paths)
        rows.append({"R": float(R), "t": float(t), "n": int(n_paths),
                     "hits": int(hits[j]), "p_hat": hits[j] / n_paths,
                     "ci_lo": lo, "ci_hi": hi})
    return rows


def exit_fit(rows):
    """Fit log p_hat against R^2/t over rows with nonzero counts."""
    xs, ys = [], []
    for row in rows:
        if row["hits"] > 0:
            xs.append(row["R"] ** 2 / row["t"])
            ys.append(math.log(row["p_hat"]))
    if len(xs) < 2:
        raise ConstraintViolation("all-zero exit counts: only one-sided bounds available")
    return linear_fit(xs, ys)


# --- first passage -----------------------------------------------------------

def first_passage_density(a, s):
    """Density of the first time standard 1-D BM hits level a > 0.

    a / (sqrt(2 pi) s^(3/2)) * exp(-a^2 / (2 s)).  Callers re-scale level and
    time themselves when applying it to sqrt(2)-speed processes.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(a <= 0) or np.any(s <= 0):
        raise ConstraintViolation("need a > 0 and s > 0")
    return a / (np.sqrt(2.0 * np.pi) * s ** 1.5) * np.exp(-a * a / (2.0 * s))


def first_passage_cdf(a, s):
    """P(hitting time <= s) = erfc(a / sqrt(2 s)) for standard 1-D BM."""
    from scipy.special import erfc
    return erfc(np.asarray(a, dtype=float) / np.sqrt(2.0 * np.asarray(s, dtype=float)))


# --- bridges ------------------------------------------------------------------

def simulate_bridge_batch(spec, dt, seed, n_paths, n_candidates=16, stream_id=0):
    """Sequential kernel-ratio bridge sampler, vectorized over paths.

    At each grid time a fan of ``n_candidates`` forward proposals (one
    geodesic-walk step each) is reweighted by the transition kernel to the
    pinned endpoint over the remaining time and one is resampled per path.
    The final point is the endpoint itself.  Bias is controlled by dt and the
    fan size and is audited by the time-reversal test in the suite.
    """
    from .heatkernel import log_kernel
    d = spec.start.shape[-1] - 1
    n_steps = max(2, int(round(spec.s / dt)))
    h = spec.s / n_steps
    times = np.linspace(0.0, spec.s, n_steps + 1)
    rng = stream(seed, "bridge", stream_id)
    x = np.tile(spec.start, (n_paths, 1))
    out = np.empty((n_steps + 1, n_paths, d + 1))
    out[0] = x
    scale = math.sqrt(2.0 * h)
    for i in range(1, n_steps):
        remaining = spec.s - times[i]
        coeffs = scale * rng.standard_normal((n_paths, n_candidates, d))
        cands = geo.frame_step(x[:, None, :], coeffs)
        rho = geo.distance(cands, spec.end[None, None, :], validate=False)
        logw = log_kernel(remaining, rho, d)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        u = rng.random((n_paths, 1))
        idx = (np.cumsum(w, axis=1) < u).sum(axis=1)
        idx = np.minimum(idx, n_candidates - 1)
        x = cands[np.arange(n_paths), idx]
        out[i] = x
    out[n_steps] = spec.end
    return times, out


def simulate_bridge(spec, dt, seed):
    times, pts = simulate_bridge_batch(spec, dt, seed, 1)
    d = spec.start.shape[-1] - 1
    return Trajectory(times, pts[:, 0, :], d, meta={"dt": dt, "seed": seed})


def bridge_tube_exceedance(spec, delta_half, dt, seed, n_paths, stream_id=0):
    """Number of the ``n_paths`` bridges with sup_v d(bridge_v, geodesic_v)
    > delta_half on the sampling grid."""
    times, pts = simulate_bridge_batch(spec, dt, seed, n_paths,
                                       stream_id=stream_id)
    fracs = times / spec.s
    gamma = geo.geodesic_point(spec.start, spec.end, fracs)   # (n_steps+1, d+1)
    dev = geo.distance(pts, gamma[:, None, :], validate=False)
    return int(np.count_nonzero(np.max(dev, axis=0) > delta_half))


def bridge_ldp_decay(x, y, delta, s_list, n_paths, seed):
    """Small-time decay of the bridge tube-exceedance probability.

    Estimates P(sup d(bridge, geodesic) > delta/2) for each duration s, on
    64 steps per bridge, then fits log p against 1/s.  Returns (rows,
    FitReport-or-None); rows with zero counts are excluded from the fit and
    reported with one-sided bounds.
    """
    rows = []
    xs, ys = [], []
    for k, s in enumerate(s_list):
        spec = BridgeSpec(np.asarray(x, float), np.asarray(y, float), float(s))
        hits = bridge_tube_exceedance(spec, delta / 2.0, s / 64, seed, n_paths,
                                      stream_id=k)
        p = hits / n_paths
        lo, hi = wilson_ci(hits, n_paths)
        rows.append({"s": float(s), "p_hat": p, "hits": hits, "n": n_paths,
                     "ci_lo": lo, "ci_hi": hi})
        if hits > 0:
            xs.append(1.0 / s)
            ys.append(math.log(p))
    fit = linear_fit(xs, ys) if len(xs) >= 2 else None
    return rows, fit


# --- path energy --------------------------------------------------------------

def path_energy(points):
    """Discrete Dirichlet energy of points at uniform parameters in [0, 1].

    sum of d(x_i, x_{i+1})^2 / dv_i; for a geodesic sampled uniformly this is
    exactly d(x_0, x_end)^2 at any resolution.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 or len(pts) < 2:
        raise ConstraintViolation("need at least two points")
    v = np.linspace(0.0, 1.0, len(pts))
    seg = geo.distance(pts[:-1], pts[1:], validate=False)
    return float(np.sum(seg ** 2 / np.diff(v)))


# --- energy excess under forced deviation -------------------------------------

@dataclass
class EnergyExcessReport:
    min_energy: float | None    # None when no SLSQP trial converged
    bound: float
    holds: bool
    base_distance: float
    endpoint_slack: float
    deviation: float
    constraints_ok: bool
    n_segments: int
    n_converged: int


def check_eta_zeta(K_star, delta, eta, zeta):
    """Quantitative admissibility of the deviation parameters."""
    ok = (delta < K_star
          and eta < min(delta / 24.0, delta ** 2 / (2560.0 * K_star))
          and zeta > 0
          and delta ** 2 / 128.0 - 4.0 * K_star * (5.0 * eta + 2.0 * K_star * zeta) > 0)
    return bool(ok)


# path nodes of the forced-deviation energy problems
_N_SEGMENTS = 16


def _offset_path_energy(K_star, d, n):
    """Endpoints o, y at distance K_star, and the energy of offset paths with
    its exact gradient.

    Node i of the path (i = 1..n) is the geodesic step from the uniform node
    gamma(i/n) of [o, y] with orthonormal-frame coefficients z[i-1]; node 0
    is o.  ``energy_of`` and ``energy_grad`` take the flattened (n, d)
    coefficients.  The energy is n * sum_i D_i^2 over segment lengths D_i,
    and its gradient is the chain rule through three maps:

    - a segment [a, b] has cosh D = a0 b0 - a_s.b_s, so
      d(D^2)/da = 2 (D / sinh D) (b0, -b_s), with D / sinh D -> 1 as D -> 0;
    - ``project`` sets a0 = sqrt(1 + |a_s|^2), which folds the time
      component of a node's gradient into the spatial one as a_s / a0;
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
        return path_energy(nodes(z))

    def energy_grad(z):
        z = z.reshape(n, d)
        pts = nodes(z)
        D = geo.distance(pts[:-1], pts[1:], validate=False)
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


def _node_norm_constraint(n, d, k, sign, offset):
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


def _minimize_energy(energy_of, energy_grad, z0, cons, lim):
    return optimize.minimize(energy_of, z0, jac=energy_grad, method="SLSQP",
                             constraints=cons, bounds=[(-lim, lim)] * z0.size,
                             options={"maxiter": 300, "ftol": 1e-12})


def energy_excess_check(K_star, delta, eta, zeta, n_trials, seed, d=2,
                        enforce_constraints=False):
    """Minimum discrete energy of paths forced off the geodesic.

    Paths from o to a point y at distance K_star are parametrized by tangent
    offsets at uniform nodes; they must deviate at least delta/4 from the
    geodesic at some node while ending within 3*eta + 2*K_star*zeta of y.
    The constrained minimum is compared against
    d(x,y)^2 + delta^2/128 - 4*K_star*(5*eta + 2*K_star*zeta).  SLSQP gets
    the exact energy gradient of ``_offset_path_energy`` and the exact
    constraint Jacobians, so no objective call goes to finite differences.
    Only converged trials count; if none converges, ``min_energy`` is None
    and the bound does not hold.

    The quantitative parameter relations are validated and reported; with
    ``enforce_constraints`` a violation raises instead, which makes the bound
    term positive and the comparison sharp.
    """
    constraints_ok = check_eta_zeta(K_star, delta, eta, zeta)
    if enforce_constraints and not constraints_ok:
        raise ConstraintViolation(
            "deviation parameters inadmissible: need delta < K_star and "
            "eta < min(delta/24, delta^2/(2560*K_star)) with zeta small")
    n = _N_SEGMENTS
    x, y, energy_of, energy_grad = _offset_path_energy(K_star, d, n)
    slack = 3.0 * eta + 2.0 * K_star * zeta
    dev = delta / 4.0
    base = float(geo.distance(x, y))
    bound = base ** 2 + delta ** 2 / 128.0 - 4.0 * K_star * (5.0 * eta + 2.0 * K_star * zeta)
    endpoint = _node_norm_constraint(n, d, n - 1, -1.0, slack)

    rng = stream(seed, "energy")
    best = None
    n_converged = 0
    candidate_nodes = sorted({n // 4, n // 2, (3 * n) // 4} - {0})
    for j in candidate_nodes:
        deviated = _node_norm_constraint(n, d, j - 1, 1.0, -dev)
        for trial in range(max(1, n_trials)):
            z0 = 1e-3 * rng.standard_normal(n * d)
            z0 = z0.reshape(n, d)
            sign = 1.0 if trial % 2 == 0 else -1.0
            z0[j - 1, -1] = sign * dev * 1.05      # start on the deviated side
            res = _minimize_energy(energy_of, energy_grad, z0.ravel(),
                                   [deviated, endpoint], base + 2.0)
            if res.success:
                n_converged += 1
                if best is None or res.fun < best:
                    best = float(res.fun)
    holds = best is not None and best >= bound - 1e-2
    return EnergyExcessReport(best, bound, holds, base, slack, dev,
                              constraints_ok, n, n_converged)


def geodesic_baseline_energy(K_star, d=2, slack=0.0):
    """Unconstrained minimum with optional endpoint slack (sanity oracle).

    Raises :class:`ConstraintViolation` when SLSQP does not converge.
    """
    n = _N_SEGMENTS
    x, y, energy_of, energy_grad = _offset_path_energy(K_star, d, n)
    res = _minimize_energy(energy_of, energy_grad, np.zeros(n * d),
                           [_node_norm_constraint(n, d, n - 1, -1.0, slack)],
                           float(geo.distance(x, y)) + 2.0)
    if not res.success:
        raise ConstraintViolation(f"geodesic baseline SLSQP failed: {res.message}")
    return float(res.fun)
