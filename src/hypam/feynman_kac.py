"""Feynman-Kac estimation, localized scenarios and route bookkeeping.

The plain estimator averages exp(integral of the potential along a Brownian
path).  Quenched runs freeze one field realization shared by all paths and
evaluate it lazily through conditional extension on a path-adapted lattice;
annealed runs resample the field per path batch.  Route machinery turns a
trajectory plus a cluster configuration into the word of clusters visited,
reduces words by last-occurrence jumps, and evaluates the upper-bound budget
attached to a route geometry.
"""

import math
from dataclasses import dataclass, field as dfield

import numpy as np
from scipy.special import log_ndtr, logsumexp

from .config import ConstraintViolation, LATTICE_SPACING_FACTOR, stream
from . import geometry as geo
from .brownian import _time_grid, simulate_bm_batch, radial_drift_bound
from .field import CovarianceSpec, extend_field, sample_field
from .stats import _finite_or_none
from .varopt import l_star_relaxed, route_constants, _golden_max


# --- potentials ---------------------------------------------------------------

@dataclass(frozen=True)
class ConstantPotential:
    """Degenerate potential xi = c everywhere (closed-form checks)."""
    c: float

    def values_at(self, points):
        return np.full(len(points), self.c)


@dataclass(frozen=True)
class PlantedPeakPotential:
    """Deterministic compact bump of given height centered off the origin."""
    center: np.ndarray
    height: float
    width: float

    def values_at(self, points):
        return self.radial(geo.distance(np.asarray(points, float), self.center))

    def radial(self, rho):
        """The potential at distance rho from the centre."""
        u = np.clip(rho / self.width, 0.0, 1.0)
        return self.height * (1.0 - u ** 2) ** 3


class LazyFieldEvaluator:
    """Quenched field evaluated along arbitrary points via a growing lattice.

    Sites are created on demand: a query point reuses the nearest existing
    site when one lies within the snap distance R0/4, otherwise it becomes a
    new site whose value is drawn by :func:`extend_field`, conditioned on at
    most 96 nearest existing sites within the conditioning radius.  Points
    without a site in reach are thinned in query order by
    :func:`geometry._greedy_keep`, each skipped when within the snap
    distance of one accepted before it.  Their close pairs, like the snap
    lookups, come from the neighbour index and are exactly those a dense
    scan would find.  Each extension replaces the realization with one whose
    neighbour index extends the old one's (no site's row is edited) and
    draws from the stream numbered by the realization's extension count;
    ``extend_field`` enforces the site budget.  After an extension only a
    new site can be a point's nearer site, so the points are snapped again
    against the new sites alone: a new site takes a point when its cosh
    distance is strictly below the old site's, so ties keep the older, lower
    index, as a dense argmin over every site would.  Every path of a
    quenched run sees the same field.  Query order is deterministic, hence
    so are the values.
    """

    def __init__(self, spec, d, seed):
        self.spec = spec
        self.d = d
        self.seed = seed
        self.snap_h = spec.R0 * LATTICE_SPACING_FACTOR
        origin = geo.origin(d)[None, :]
        self.realization = sample_field(spec, origin, seed=stream(seed, "lazy-init").integers(2 ** 31))

    @property
    def n_sites(self):
        return self.realization.n_sites

    def values_at(self, points):
        pts = np.asarray(points, dtype=float)
        idx, _, best = self.realization._neighbours().nearest_within(pts, self.snap_h)
        missing = pts[idx < 0]
        if len(missing):
            i, j, _ = geo._SiteIndex(missing).close_pairs(self.snap_h)
            new_sites = missing[geo._greedy_keep(i, j, len(missing), len(missing))]
            n_old = self.n_sites
            n_ext = self.realization.meta.get("extensions", 0) + 1
            self.realization = extend_field(
                self.realization, new_sites,
                seed=stream(self.seed, "lazy", n_ext).integers(2 ** 31))
            # only a new site can be nearer now, and it takes a point only
            # with a strictly smaller cosh (ties keep the older, lower
            # index); every point now lies within snap_h of a site: a
            # missing point was accepted, or lies within snap_h of one that was
            new_idx, _, new_best = geo._SiteIndex(new_sites).nearest_within(
                pts, self.snap_h)
            idx = np.where(new_best < best, n_old + new_idx, idx)
        return self.realization.values[idx]


# --- plain estimator ------------------------------------------------------------

@dataclass
class FKEstimate:
    """Monte Carlo estimate of E[exp(int_0^t xi(W_s) ds)] from per-path
    log-weights; rejected paths contribute zero.

    Every summary number is read off one reduction of the log-weights (see
    :meth:`_scaled`): none overflows before the value it stands for, and
    one that does is inf, never NaN.
    """
    log_weights: np.ndarray
    accepted: np.ndarray
    t: float
    dt: float
    mode: str
    meta: dict = dfield(default_factory=dict)

    def __post_init__(self):
        if len(self.log_weights) < 1:
            raise ConstraintViolation("an estimate needs at least one path")

    def _scaled(self):
        """m, the largest accepted log-weight (0 with none), and the weights
        divided by e^m, rejected paths 0."""
        acc = self.accepted
        m = float(np.max(self.log_weights[acc])) if np.any(acc) else 0.0
        return m, np.exp(np.where(acc, self.log_weights - m, -np.inf))

    def _unscaled(self, reduce, power=1):
        """reduce(scaled weights) * e^(power * m); exactly 0 when it is 0."""
        m, w = self._scaled()
        x = reduce(w)
        if x == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(np.exp(power * m) * x)

    n_paths = property(lambda self: len(self.log_weights))
    accept_fraction = property(lambda self: float(np.mean(self.accepted)))
    mean = property(lambda self: self._unscaled(np.mean))
    variance = property(lambda self: self._unscaled(np.var, 2))
    se = property(lambda self: self._unscaled(np.std) / math.sqrt(self.n_paths))

    @property
    def log_mean(self):
        """log of the mean weight, -inf when no path is accepted."""
        lw = self.log_weights[self.accepted]
        if lw.size == 0:
            return -math.inf
        return float(logsumexp(lw) - math.log(self.n_paths))

    def weight_diagnostics(self):
        """ESS (sum w)^2 / sum w^2, the largest weight's share of the total
        and se / mean, read off the scaled weights w: finite where the
        weights overflow, NaN with no accepted path."""
        _, w = self._scaled()
        if not np.any(self.accepted):
            return dict.fromkeys(("ess", "top_share", "rel_se"), math.nan)
        return {"ess": float(np.sum(w) ** 2 / np.sum(w * w)),
                "top_share": float(np.max(w) / np.sum(w)),
                "rel_se": float(np.std(w) / (np.mean(w) * math.sqrt(w.size)))}

    def summary(self):
        """Plain dict for ``summary.json``; non-finite numbers become None."""
        numbers = {key: getattr(self, key)
                   for key in ("mean", "se", "log_mean", "accept_fraction")}
        numbers.update(self.weight_diagnostics())
        return {"mode": self.mode, "t": self.t, "dt": self.dt,
                "n_paths": self.n_paths, "params": dict(self.meta),
                **{key: _finite_or_none(v) for key, v in numbers.items()}}


def _trapezoid_weights(times):
    w = np.empty_like(times)
    if len(times) == 1:
        w[0] = 0.0
        return w
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w


def _simulate_log_weights(evaluator, d, t, dt, seed, n_paths, batch_id):
    """Times, points (steps, paths, d+1) and trapezoid integrals of
    ``evaluator.values_at`` for a batch simulated on ``stream(seed, "bm",
    batch_id)``.  Paths are queried one at a time in column order: a lazy
    field grows in query order, so this order fixes its values."""
    times, pts = simulate_bm_batch(d, t, dt, seed, n_paths, stream_id=batch_id)
    w = _trapezoid_weights(times)
    return times, pts, np.array([float(np.dot(w, evaluator.values_at(pts[:, j, :])))
                                 for j in range(n_paths)])


def _check_dimension(spec, d):
    """A covariance spec tabulates C on H^spec.d; paths in H^d need d."""
    if spec.d != d:
        raise ConstraintViolation(
            f"covariance spec is tabulated for d={spec.d}, paths run in d={d}")


def _resolve_potential(potential, d, t, dt, seed, *ids):
    """Evaluator for a potential: numbers become constants, covariance specs
    (of dimension d) a lazily grown field drawn from ``stream(seed, *ids)``,
    once the time grid resolves it: dt <= min(t / 100, R0^2 / 8) when t > 0."""
    if isinstance(potential, (int, float)):
        return ConstantPotential(float(potential))
    if isinstance(potential, CovarianceSpec):
        _check_dimension(potential, d)
        cap = min(0.01 * t, potential.R0 ** 2 / 8.0)
        if t > 0 and dt > cap + 1e-12:
            raise ConstraintViolation(
                f"dt={dt} too coarse to resolve field variation: need <= {cap:.4g}")
        return LazyFieldEvaluator(potential, d, stream(seed, *ids).integers(2 ** 31))
    return potential


def fk_estimate(potential, d, t, dt, n_paths, seed, mode="quenched"):
    """Monte Carlo Feynman-Kac estimate of the solution at the base point.

    ``potential`` may be a covariance spec (Gaussian field), a constant, or
    any object with ``values_at``.  Quenched mode shares one realization
    across all paths; annealed mode redraws the field for every batch of
    max(1, n_paths // 16) paths; any other mode is rejected.  The time
    integral is a trapezoid on the simulation grid, which for a field must
    resolve its variation: dt <= min(t / 100, R0^2 / 8) when t > 0.
    """
    if mode not in ("quenched", "annealed"):
        raise ConstraintViolation(
            f"mode must be 'quenched' or 'annealed', got {mode!r}")
    is_spec = isinstance(potential, CovarianceSpec)
    size = max(1, n_paths if mode == "quenched" else n_paths // 16)
    redraw = is_spec and mode == "annealed"
    evaluator = None if redraw else _resolve_potential(potential, d, t, dt, seed, "field")
    log_weights = []
    for batch_id, start in enumerate(range(0, n_paths, size)):
        if redraw:
            evaluator = _resolve_potential(potential, d, t, dt, seed, "field-batch", batch_id)
        log_weights.extend(_simulate_log_weights(
            evaluator, d, t, dt, seed, min(size, n_paths - start), batch_id)[2])
    meta = {"seed": seed}
    if is_spec and mode == "quenched":
        meta["n_field_sites"] = evaluator.n_sites
        meta["snap_h"] = evaluator.snap_h
    return FKEstimate(np.array(log_weights), np.ones(len(log_weights), dtype=bool),
                      t, dt, mode, meta)


def annealed_moment_estimate(spec, d, t, dt, n_paths, seed):
    """Independent oracle for the field-averaged estimator.

    Averaging the Gaussian field first gives
    E exp(1/2 * double integral of C(d(W_s, W_r)) ds dr) over paths alone,
    which needs no field sampling at all.  Each path's Gram matrix of C
    over its grid points is filled from its i < j pairs, measured once from
    polar parts computed once per point, mirrored, with C(0) on the
    diagonal: the dense table's entries, as the distance is symmetric.  A
    spec of another dimension than d raises :class:`ConstraintViolation`.
    """
    _check_dimension(spec, d)
    times, pts = simulate_bm_batch(d, t, dt, seed, n_paths, stream_id=0)
    w = _trapezoid_weights(times)
    polar = geo._polar(pts.transpose(1, 0, 2))
    i, j = np.triu_indices(len(times), 1)
    cmat = np.empty((len(times), len(times)))
    np.fill_diagonal(cmat, spec.cov(0.0))
    log_weights = np.empty(n_paths)
    for p in range(n_paths):
        path = tuple(part[p] for part in polar)
        vals = spec.cov(np.arccosh(np.maximum(
            1.0, geo._polar_cosh(geo._take(path, i), geo._take(path, j)))))
        cmat[i, j] = vals
        cmat[j, i] = vals
        log_weights[p] = 0.5 * float(w @ cmat @ w)
    return FKEstimate(log_weights, np.ones(n_paths, dtype=bool), t, dt,
                      "annealed-moment", {"seed": seed})


def fk_localized_lower(potential, d, t, eps, K, delta_tube, peak_center, seed,
                       n_paths, r_peak, dt):
    """Restricted Feynman-Kac sum over the localized Brownian scenario.

    A path contributes only when it stays within ``delta_tube`` of the
    geodesic from the base point to ``peak_center`` up to time eps*t while
    remaining inside the ball of radius K*t^(4/3), sits inside the peak ball
    of radius ``r_peak`` at time eps*t, and stays inside the doubled peak
    ball afterwards.  With the same seed this shares its paths and field
    with quenched :func:`fk_estimate`, so the restricted mean is a pathwise
    lower bound; a field needs the same dt.  A radius ``r_peak`` or
    ``delta_tube`` that is not positive, a time grid without a step or a
    scenario no path can meet (K*t^(4/3) + r_peak below d(o, peak)) raises
    :class:`ConstraintViolation`.
    """
    if not 0 < eps < 1:
        raise ConstraintViolation("eps must lie in (0, 1)")
    for key, val in (("r_peak", r_peak), ("delta_tube", delta_tube)):
        if not val > 0:
            raise ConstraintViolation(f"{key} must be positive (got {key}={val})")
    if len(_time_grid(t, dt)) < 2:
        raise ConstraintViolation(
            f"the time grid needs at least one step of dt (got t={t}, dt={dt})")
    peak_center = np.asarray(peak_center, dtype=float)
    ball_radius = K * t ** (4.0 / 3.0)
    peak_dist = float(geo.radius(peak_center))
    if ball_radius + r_peak < peak_dist:
        raise ConstraintViolation(
            f"no path can be accepted: K*t^(4/3) = {ball_radius:.6g} plus "
            f"r_peak = {r_peak:.6g} is below the peak distance "
            f"d(o, peak_center) = {peak_dist:.6g}")
    evaluator = _resolve_potential(potential, d, t, dt, seed, "field")
    times, pts, log_weights = _simulate_log_weights(evaluator, d, t, dt, seed,
                                                    n_paths, 0)
    i_eps = min(max(int(round(eps * t / dt)), 1), len(times) - 1)

    fracs = times[: i_eps + 1] / times[i_eps]
    gamma = geo.geodesic_point(geo.origin(d), peak_center, fracs)

    # per-path checks over all paths at once; arrays are (steps, paths)
    early = pts[: i_eps + 1]
    ok_tube = (np.all(geo.distance(early, gamma[:, None, :])
                      <= delta_tube, axis=0)
               & np.all(geo.radius(early) <= ball_radius, axis=0))
    ok_enter = geo.distance(pts[i_eps], peak_center) <= r_peak
    ok_stay = np.all(geo.distance(pts[i_eps:], peak_center)
                     <= 2.0 * r_peak, axis=0)
    meta = {"seed": seed, "eps": eps, "K": K, "delta_tube": delta_tube,
            "r_peak": r_peak}
    return FKEstimate(log_weights, ok_tube & ok_enter & ok_stay, t, dt,
                      "localized", meta)


# --- routes ---------------------------------------------------------------------

@dataclass
class Route:
    """Extended route: cluster labels in visit order with entry/exit times."""
    word: list
    entry_times: list
    exit_times: list          # may be one shorter when the path ends inside
    t: float
    lam: float


def route_extract(traj, clusters, lam, t):
    """Extended route of a trajectory through a cluster configuration.

    A path point is inside a cluster when its field-evaluation site (the
    nearest lattice site) belongs to that cluster -- the lattice proxy for
    touching the cluster, which ties the route state to the values the
    estimator actually integrates.  The visit ends once the point is farther
    than lam * t^(4/3) / 2 from the entered cluster's site set.  Both rules
    run on the trajectory's own time grid.
    """
    fieldr = clusters.field
    site_cluster = -np.ones(fieldr.n_sites, dtype=int)
    for c in clusters.clusters:
        site_cluster[np.asarray(c.site_indices)] = c.label
    pts = traj.points
    idx, _ = fieldr.nearest_site(pts)
    point_cluster = site_cluster[idx]

    cluster_sites = {c.label: fieldr.sites[np.asarray(c.site_indices)]
                     for c in clusters.clusters}
    exit_radius = lam * t ** (4.0 / 3.0) / 2.0

    word, entries, exits = [], [], []
    state = None            # label currently being visited, else None
    for k, time in enumerate(traj.times):
        if time > t + 1e-12:
            break
        if state is not None:
            dmin = float(np.min(geo.distance(cluster_sites[state], pts[k])))
            if dmin <= exit_radius:
                continue
            exits.append(float(time))
            state = None
        lab = int(point_cluster[k])
        if lab >= 0:
            word.append(lab)
            entries.append(float(time))
            state = lab
    return Route(word, entries, exits, float(t), float(lam))


def reduce_word(word):
    """Compress a word by repeatedly jumping to the last occurrence.

    The first reduced letter is the last occurrence of the initial letter;
    each subsequent one is the last occurrence of the letter right after the
    previous jump target.  Reduced words have pairwise distinct letters.
    """
    word = list(word)
    if not word:
        raise ConstraintViolation("cannot reduce an empty word")
    return [word[i] for i in reduce_indices(word)]


def reduce_indices(word):
    """Indices selected by the reduction (0-based, strictly increasing)."""
    last = {}
    for i, c in enumerate(word):
        last[c] = i
    out = []
    i = 0
    while True:
        j = last[word[i]]
        out.append(j)
        if j + 1 >= len(word):
            return out
        i = j + 1


def eta_route(word):
    """Coarse-route view: collapse adjacent repeats."""
    out = []
    for c in word:
        if not out or out[-1] != c:
            out.append(c)
    return out


# --- staying / excursion decomposition -------------------------------------------

@dataclass
class StayingSplit:
    staying_time: float
    excursion_time: float
    xi_integral_bound: float
    xi_integral: float
    k_star: float
    precondition_holds: bool


def staying_excursion_split(traj, clusters, fieldr, lam, delta, t, mu):
    """Split time into staying and excursion parts and bound the integral.

    Staying covers [entry, exit) intervals of the extended route (trapezoid
    weights on the grid); the bound is delta * t^(5/3) + mu * sqrt(K) *
    t^(2/3) * staying_time with K the rescaled furthest distance among
    visited clusters.  The reported precondition flag states when the bound
    is provable for the instance: every excursion-time evaluation stays at
    or below the island threshold and every staying-time evaluation within
    mu * sqrt(K * t^(4/3)) in absolute value.
    """
    route = route_extract(traj, clusters, lam, t)
    idx, _ = fieldr.nearest_site(traj.points)
    vals = fieldr.values[idx]
    w = _trapezoid_weights(traj.times)
    xi_integral = float(np.dot(w, vals))

    staying_mask = np.zeros(len(traj.times), dtype=bool)
    for i, s in enumerate(route.entry_times):
        e = route.exit_times[i] if i < len(route.exit_times) else t + 1.0
        staying_mask |= (traj.times >= s - 1e-12) & (traj.times < e - 1e-12)
    staying_time = float(np.sum(w[staying_mask]))
    excursion_time = float(np.sum(w) - staying_time)

    # no visit: k_star = staying_time = 0, and the bound is delta * t^(5/3)
    visited = set(route.word)
    dmax = 0.0
    for c in clusters.clusters:
        if c.label in visited:
            pts = fieldr.sites[np.asarray(c.site_indices)]
            dmax = max(dmax, float(np.max(geo.distance(
                pts, geo.origin(fieldr.d)))))
    k_star = dmax / t ** (4.0 / 3.0)
    bound = (delta * t ** (5.0 / 3.0)
             + mu * math.sqrt(k_star) * t ** (2.0 / 3.0) * staying_time)
    level = mu * math.sqrt(k_star * t ** (4.0 / 3.0))
    threshold = delta * t ** (2.0 / 3.0)
    exc_ok = bool(np.all(vals[~staying_mask] <= threshold + 1e-12))
    stay_ok = bool(np.all(np.abs(vals[staying_mask]) <= level + 1e-12))
    return StayingSplit(staying_time, excursion_time, bound, xi_integral,
                        k_star, exc_ok and stay_ok)


# --- route budgets ----------------------------------------------------------------

def _log_erfc(x):
    return math.log(2.0) + float(log_ndtr(-x * math.sqrt(2.0)))


def j_error_integral(t, m, lam, delta, alpha, mu, K0, r_t_value):
    """Log of the factorized route error integral with m legs.

    Each leg contributes K0 * int_0^{t^(-5/3)} v^(-3/2) exp(-c/v) dv / sqrt(pi)
    with c = (1-alpha)*lam^2/64 for ordinary legs and, for the first leg,
    c0 = (1-alpha)*(delta/mu)^4/16 - K0*r_t/2 (must be positive: that is the
    feasibility constraint).  Each factor is evaluated in its closed form
    K0 * erfc(sqrt(c * t^(5/3))) / sqrt(c), in the log domain.
    """
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
        total += math.log(K0) - 0.5 * math.log(c) + _log_erfc(math.sqrt(c / s))
    return total


@dataclass
class RouteGeometry:
    """Synthetic route data: word, entry gaps, furthest visited distance."""
    word: list                 # cluster labels in visit order
    gaps: np.ndarray           # gaps[i] = distance crossed entering word[i]
    k_star: float              # (furthest visited distance) / t^(4/3)
    furthest_pos: int          # index in word of the furthest cluster's visit
    eta_route_len: int         # length of the coarse route


@dataclass
class RouteBudgetReport:
    log_bound: float
    main_term: float
    f_style_value: float        # sup_v of mu*sqrt(K)*(1-v) - alpha*K^2/(4v) at K = k_star
    k_star: float
    trian_holds: bool           # chained-gap bound on the furthest visited distance
    hat_bound_holds: bool       # corrected gap sum >= (k_star - R_t) * t^(4/3)
    m: int
    m_reduced: int


def route_budget(geom, t, alpha, mu, params, lam, eta, delta, K0, C_R0_hat):
    """Evaluate the route upper-bound budget for a given geometry.

    ``log_bound`` is (delta + relaxed growth value) * t^(5/3) + log(error
    integral), the uniform bound over admissible geometries.  Per-geometry
    data is reported alongside: the chained-gap inequality relating the
    furthest visited distance to the reduced gap sum plus cluster-size
    slack, the corrected gap sum against (k_star - R_t) * t^(4/3), and the
    variational value at the geometry's own distance scale (never above the
    main term).
    """
    consts, err_fn = route_constants(eta, lam, delta, K0, params, C_R0_hat,
                                     alpha, mu)
    word = list(geom.word)
    gaps = np.asarray(geom.gaps, dtype=float)
    m = len(word)
    if m == 0 or gaps.shape != (m,):
        raise ConstraintViolation("geometry needs one gap per visited letter")
    if m > consts.n_hat_count():
        raise ConstraintViolation(
            f"extended route longer than the cap {consts.n_hat_count()}")
    if geom.eta_route_len > consts.n_eta_count():
        raise ConstraintViolation(
            f"coarse route longer than the cap {consts.n_eta_count()}")
    scale = t ** (4.0 / 3.0)
    if np.any(gaps[1:] < lam * scale / 2.0 - 1e-9):
        raise ConstraintViolation("inter-cluster gaps must be >= lam * t^(4/3) / 2")
    if gaps[0] < (delta / mu) ** 2 * scale - 1e-9:
        raise ConstraintViolation(
            "first gap must reach the minimal island distance (delta/mu)^2 * t^(4/3)")
    if not geom.k_star <= K0 + 1e-12:
        raise ConstraintViolation("furthest visited distance must stay within K0 * t^(4/3)")

    prefix = word[: geom.furthest_pos + 1]
    red_pos = reduce_indices(prefix)
    m_reduced = len(red_pos)
    if m_reduced > consts.N_eta * consts.L_delta + 1e-9:
        raise ConstraintViolation(
            "reduced route longer than the coarse budget N_eta * L_delta")
    sel = [0] + [r + 1 for r in red_pos[:-1]]
    C_Q = radial_drift_bound(params.d)
    correction = 0.5 + C_Q * t
    chain_lhs = float(np.sum(gaps[sel]))
    reduced_sum_hat = float(np.sum(gaps[sel]) - m_reduced * correction)

    r_t = err_fn(t)
    L_d = consts.L_delta
    chain_slack = (consts.N_eta * L_d * (6.0 * L_d + 0.5) + 2.0 * L_d) * lam * scale
    trian_holds = bool(geom.k_star * scale
                       <= chain_lhs + chain_slack + 1e-9 * max(1.0, chain_lhs))
    hat_bound_holds = bool(reduced_sum_hat
                           >= (geom.k_star - r_t) * scale - 1e-9 * max(1.0, scale))

    L_rel = l_star_relaxed(alpha, mu)
    main = L_rel * t ** (5.0 / 3.0)
    k = geom.k_star

    def f_style(v):
        return mu * math.sqrt(k) * (1.0 - v) - alpha * k * k / (4.0 * v)

    _, f_val = _golden_max(f_style, 1e-9, 1.0 - 1e-9)
    err = j_error_integral(t, m, lam, delta, alpha, mu, K0, r_t)
    t53 = t ** (5.0 / 3.0)
    return RouteBudgetReport(
        log_bound=delta * t53 + main + err, main_term=main,
        f_style_value=float(f_val) * t53, k_star=k,
        trian_holds=trian_holds, hat_bound_holds=hat_bound_holds,
        m=m, m_reduced=m_reduced)


_WORD_PATTERNS = (
    # (word over cluster ranks, index of the furthest visit); rank 0 is the
    # nearest cluster, the largest rank the furthest; every pattern keeps the
    # reduced prefix short so small coarse-route budgets stay admissible.
    ([0], 0),
    ([0, 0], 1),
    ([0, 1], 1),
    ([1, 0, 1], 2),
    ([0, 1, 0, 1], 3),
    ([1, 0, 0, 1], 3),
)


def synthetic_route_geometry(rng, t, lam, delta, mu, K0, consts):
    """Random feasible route geometry on a radial ray.

    Clusters are disjoint intervals on one geodesic ray through the base
    point (distances along a geodesic add up, so this is a legitimate
    configuration): pairwise more than lam * t^(4/3) apart, diameters below
    the cluster-size bound, all beyond the minimal island distance.  The
    visit order follows a random pattern whose reduced prefix stays within
    the coarse budget, and gaps are exact interval distances less the
    lam-neighbourhood width (re-entries cross exactly that width).
    """
    scale = t ** (4.0 / 3.0)
    diam_cap = 2.0 * consts.L_delta * lam * scale
    pattern, far_pos = _WORD_PATTERNS[int(rng.integers(0, len(_WORD_PATTERNS)))]
    n_clusters = max(pattern) + 1

    lo = (delta / mu) ** 2 * scale * (1.0 + 0.02 * rng.random())
    hi = K0 * scale * 0.98
    positions = []
    for _ in range(n_clusters):
        width = float(rng.uniform(0.0, diam_cap))
        if lo + width > hi:
            lo = hi - width
        positions.append((lo, lo + width))
        lo = lo + width + lam * scale * float(rng.uniform(1.05, 2.0)) \
            + float(rng.uniform(0.0, 0.05)) * (hi - lo)
    word = list(pattern)

    def interval_dist(i, j):
        (a1, b1), (a2, b2) = positions[i], positions[j]
        if b1 < a2:
            return a2 - b1
        if b2 < a1:
            return a1 - b2
        return 0.0

    m = len(word)
    gaps = np.empty(m)
    gaps[0] = positions[word[0]][0]
    for i in range(1, m):
        prev, cur = word[i - 1], word[i]
        if prev == cur:
            gaps[i] = lam * scale / 2.0
        else:
            gaps[i] = max(interval_dist(prev, cur) - lam * scale / 2.0,
                          lam * scale / 2.0)
    k_star = positions[word[far_pos]][1] / scale
    return RouteGeometry(word, gaps, k_star, far_pos,
                         eta_route_len=len(eta_route(word)))


# --- long routes -------------------------------------------------------------------

@dataclass
class LongRouteReport:
    log_F: float
    exponent: float
    log_bound: float
    eta: float
    t: float


def long_route_tail(eta, N, t, params, K0):
    """Budget for routes longer than N coarse steps.

    The probability factor F is the N-fold convolution of halved-exponent
    level-crossing densities integrated up to t.  It is evaluated in closed
    form (first passage of the summed level by the stability of hitting
    densities): 2^(N/2) * erfc(N * eta * t^(5/6) / (4 * sqrt(2))).  The full
    log bound adds -((eta*N)^2/32 - 2*mu0*sqrt(K0)) * t^(5/3); its sign flips
    exactly at eta*N = sqrt(64 * mu0 * sqrt(K0)).  A K0 that is not positive
    raises :class:`ConstraintViolation`, as :func:`field.cluster_constants`
    does, and so do an eta or a t so large that a power of them overflows.
    """
    if N < 1 or eta <= 0 or t <= 0:
        raise ConstraintViolation("need N >= 1, eta > 0, t > 0")
    if not K0 > 0:
        raise ConstraintViolation(f"K0 must be positive (got K0={K0})")
    try:
        a_half = eta * t ** (4.0 / 3.0) / 4.0
        exponent = (eta * N) ** 2 / 32.0 - 2.0 * params.mu0 * math.sqrt(K0)
        t_scale = t ** (5.0 / 3.0)
    except OverflowError:
        raise ConstraintViolation("eta and t must keep (eta*N)^2 and t^(5/3) "
                                  f"finite (got eta={eta}, N={N}, t={t})") from None
    log_F = 0.5 * N * math.log(2.0) + _log_erfc(N * a_half / math.sqrt(2.0 * t))
    return LongRouteReport(log_F, exponent, log_F - exponent * t_scale, eta, t)


def long_route_threshold(params, K0):
    """The eta*N product at which the long-route exponent changes sign."""
    return math.sqrt(64.0 * params.mu0 * math.sqrt(K0))
