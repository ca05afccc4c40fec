"""Scalar formulas behind the growth asymptotics.

The central object is the profile ``f(eps, K) = (1-eps)*sqrt(2*sigma2*(d-1)*K)
- K^2/(4*eps)`` whose maximum gives the growth constant on the t^(5/3) scale.
The module provides the closed-form optimum, an independent grid plus
golden-section optimizer that cross-validates it on every call, the relaxed
two-parameter variant in closed form, the route-combinatorics constants, and
fuzz harnesses for the elementary inequalities used by the route bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import ConstraintViolation, count, stream


class CrossCheckFailed(ArithmeticError):
    """The independent search disagrees with a closed-form optimum."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension and field variance; everything else derives from these."""
    d: int = 2
    sigma2: float = 1.0

    def __post_init__(self):
        if self.d < 2:
            raise ConstraintViolation("d must be >= 2")
        if self.sigma2 <= 0:
            raise ConstraintViolation("sigma2 must be positive")

    @property
    def a(self):
        """Shorthand for sigma2 * (d - 1)."""
        return self.sigma2 * (self.d - 1)

    @property
    def mu0(self):
        """Critical growth rate sqrt(2 * sigma2 * (d-1)) of the field maximum."""
        return math.sqrt(2.0 * self.a)


@dataclass(frozen=True)
class VariationalSolution:
    eps_star: float
    K_star: float
    L_star: float
    grid_gap: float         # |closed form - independent search|, in value
    gradient_norm: float    # numerical gradient at the reported optimum


def _golden_max(fun, lo, hi):
    """Golden-section maximization of a unimodal function on [lo, hi], to a
    bracket below 1e-12 or 200 steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = fun(c), fun(d_)
    for _ in range(200):
        if b - a < 1e-12:
            break
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = fun(d_)
    x = 0.5 * (a + b)
    return x, fun(x)


def _search_optimum(value, K_hi):
    """Grid scan + nested golden-section search for max over (eps, K).

    ``value(eps, K)`` must be concave in K for fixed eps (true for the profile
    and its relaxed variant), so the inner search is one-dimensional golden
    section over (0, K_hi]; the outer search runs on the envelope, scanned on
    64 points of [1e-6, 1 - 1e-6].
    """
    def inner(eps):
        return _golden_max(lambda K: value(eps, K), 1e-12, K_hi)

    eps_grid = np.linspace(1e-6, 1.0 - 1e-6, 64)
    envelope = np.array([inner(e)[1] for e in eps_grid])
    j = int(np.argmax(envelope))
    lo = eps_grid[max(0, j - 1)]
    hi = eps_grid[min(eps_grid.size - 1, j + 1)]
    eps_best, _ = _golden_max(lambda e: inner(e)[1], lo, hi)
    K_best, val = inner(eps_best)
    return eps_best, K_best, val


def _fd_gradient_norm(value, eps, K):
    """Central-difference gradient norm; the K step stays below K / 2 so
    that no evaluation reaches a negative K."""
    h = 1e-5
    hk = min(h, K / 2.0)
    ge = (value(eps + h, K) - value(eps - h, K)) / (2.0 * h)
    gk = (value(eps, K + hk) - value(eps, K - hk)) / (2.0 * hk)
    return float(np.hypot(ge, gk))


def optimize_f(params):
    """Closed-form maximizer of the profile, cross-checked numerically.

    The optimum sits at eps = 1/5 (independent of the field strength) and
    K = 2^(5/3) / 5^(4/3) * a^(1/3), giving the value
    3 * 2^(4/3) / 5^(5/3) * a^(2/3) with a = sigma2 * (d-1).
    Raises :class:`CrossCheckFailed` if an independent grid + golden-section
    search disagrees beyond 1e-4 in the arguments or 1e-6 in the value.
    """
    a = params.a
    eps_star = 0.2
    K_star = 2.0 ** (5.0 / 3.0) / 5.0 ** (4.0 / 3.0) * a ** (1.0 / 3.0)
    L_star = 3.0 * 2.0 ** (4.0 / 3.0) / 5.0 ** (5.0 / 3.0) * a ** (2.0 / 3.0)

    def value(e, K):
        return (1.0 - e) * math.sqrt(2.0 * a * K) - K * K / (4.0 * e)

    grad = _fd_gradient_norm(value, eps_star, K_star)
    e_num, K_num, val_num = _search_optimum(value, K_hi=max(5.0 * K_star, 1.0))
    gap = abs(val_num - L_star)
    if abs(e_num - eps_star) > 1e-4 or abs(K_num - K_star) > 1e-4 or gap > 1e-6:
        raise CrossCheckFailed(
            "independent search disagrees with closed form: "
            f"args ({e_num:.8f}, {K_num:.8f}) vs ({eps_star}, {K_star:.8f}), "
            f"value gap {gap:.3e}")
    return VariationalSolution(eps_star, K_star, L_star, gap, grad)


def l_star_relaxed(alpha, mu):
    """Relaxed growth value max over K>0, v in (0,1) of mu*sqrt(K)*(1-v) - alpha*K^2/(4v).

    Reduces to the optimum of the base profile at alpha = 1, mu = mu0.  The
    stationary fraction is v = 1/5 for every (alpha, mu), so the value is
    in closed form, at K = (4 mu / (25 alpha))^(2/3).
    """
    if not 0.0 < alpha <= 1.0:
        raise ConstraintViolation("alpha must lie in (0, 1]")
    if mu <= 0:
        raise ConstraintViolation("mu must be positive")
    K_star = (4.0 * mu / (25.0 * alpha)) ** (2.0 / 3.0)
    v_star = 0.2
    return mu * math.sqrt(K_star) * (1.0 - v_star) - alpha * K_star ** 2 / (4.0 * v_star)


def euclid_growth(t, params):
    """Flat-space growth scale sqrt(2*d*sigma2) * t * sqrt(log t) for t > e."""
    if t <= math.e:
        raise ConstraintViolation("t must exceed e for the flat-space scale")
    return math.sqrt(2.0 * params.d * params.sigma2) * t * math.sqrt(math.log(t))


# --- elementary inequalities -------------------------------------------------
#
# Each check reduces over the last axis and broadcasts over leading ones, so
# one call covers a whole batch of instances.  A single instance gives plain
# floats and a bool; a batch gives arrays.

def _scalars(*values):
    return tuple(v.item() if np.ndim(v) == 0 else v for v in values)


def chain_bound(D, u):
    """Jump-cost superadditivity: sum D_i^2/u_i >= (sum D_i)^2 / sum u_i."""
    D = np.asarray(D, dtype=float)
    u = np.asarray(u, dtype=float)
    if D.shape != u.shape:
        raise ConstraintViolation("length mismatch between distances and times")
    if np.any(D <= 0) or np.any(u <= 0):
        raise ConstraintViolation("all entries must be positive")
    lhs = np.sum(D * D / u, axis=-1)
    rhs = np.sum(D, axis=-1) ** 2 / np.sum(u, axis=-1)
    return _scalars(lhs, rhs, lhs >= rhs - 1e-12 * np.maximum(1.0, np.abs(rhs)))


def hop_inequality(eps1, eps2, eta1, eta2, K1, K2, params):
    """Two-hop scenario comparison, evaluated exactly as stated.

    Left side: sqrt(mu0)*(eta1*sqrt(K1) + eta2*sqrt(K2)) - K1^2/(4*eps1^2)
    - (K2-K1)^2/(4*eps2^2).  Right side: sqrt(mu0)*(1-eps1-eps2)*sqrt(K2)
    - K2^2/(4*(eps1+eps2)).  Requires eps1+eta1+eps2+eta2 = 1 and 0 < K1 < K2.
    """
    eps1, eps2, eta1, eta2, K1, K2 = (np.asarray(a, dtype=float)
                                      for a in (eps1, eps2, eta1, eta2, K1, K2))
    if np.any(np.abs(eps1 + eta1 + eps2 + eta2 - 1.0) > 1e-12):
        raise ConstraintViolation("time fractions must sum to 1")
    if not np.all((0 < K1) & (K1 < K2)):
        raise ConstraintViolation("need 0 < K1 < K2")
    if any(np.any(a <= 0) for a in (eps1, eps2, eta1, eta2)):
        raise ConstraintViolation("all time fractions must be positive")
    smu = math.sqrt(params.mu0)
    lhs = (smu * (eta1 * np.sqrt(K1) + eta2 * np.sqrt(K2))
           - K1 ** 2 / (4.0 * eps1 ** 2)
           - (K2 - K1) ** 2 / (4.0 * eps2 ** 2))
    rhs = (smu * (1.0 - eps1 - eps2) * np.sqrt(K2)
           - K2 ** 2 / (4.0 * (eps1 + eps2)))
    return _scalars(lhs, rhs, lhs <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))


def ha_mean_bound(v):
    """Harmonic vs arithmetic mean: N / sum(1/v_i) <= sum(v_i) / N."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ConstraintViolation("all entries must be positive")
    n = v.shape[-1]
    harm = n / np.sum(1.0 / v, axis=-1)
    arit = np.sum(v, axis=-1) / n
    return _scalars(harm, arit, harm <= arit + 1e-12 * np.maximum(1.0, arit))


def fuzz_chain_bound(n_trials, seed=0):
    """Vectorized fuzz of :func:`chain_bound`; returns list of violations."""
    rng = stream(seed, "fuzz-chain")
    bad = []
    k = rng.integers(1, 9, size=n_trials)
    for kk in np.unique(k):
        rows = int(np.sum(k == kk))
        D = rng.uniform(1e-3, 10.0, size=(rows, kk))
        u = rng.uniform(1e-3, 10.0, size=(rows, kk))
        _, _, ok = chain_bound(D, u)
        bad += [(D[i].tolist(), u[i].tolist()) for i in np.flatnonzero(~ok)]
    return bad


def fuzz_hop_inequality(n_trials, params, seed=0):
    """Fuzz of :func:`hop_inequality` over random feasible tuples."""
    rng = stream(seed, "fuzz-hop")
    g = rng.gamma(1.0, 1.0, size=(n_trials, 4))
    fracs = g / np.sum(g, axis=1, keepdims=True)
    K2 = rng.uniform(1e-3, 5.0, size=n_trials)
    K1 = K2 * rng.uniform(1e-6, 1.0 - 1e-9, size=n_trials)
    e1, h1, e2, h2 = fracs.T
    _, _, ok = hop_inequality(e1, e2, h1, h2, K1, K2, params)
    return [(e1[i], h1[i], e2[i], h2[i], K1[i], K2[i]) for i in np.flatnonzero(~ok)]


def fuzz_ha_mean(n_trials, seed=0):
    """Vectorized fuzz of :func:`ha_mean_bound`; returns list of violations."""
    rng = stream(seed, "fuzz-ha")
    bad = []
    k = rng.integers(1, 12, size=n_trials)
    for kk in np.unique(k):
        rows = int(np.sum(k == kk))
        v = rng.uniform(1e-4, 100.0, size=(rows, kk))
        _, _, ok = ha_mean_bound(v)
        bad += [v[i].tolist() for i in np.flatnonzero(~ok)]
    return bad


# --- route-combinatorics constants ------------------------------------------

@dataclass(frozen=True)
class RouteConstants:
    N_eta: float
    N_hat_lam: float
    L_delta: float

    def n_eta_count(self):
        return count(self.N_eta)

    def n_hat_count(self):
        return count(self.N_hat_lam)


def route_constants(eta, lam, delta, K0, params, C_R0_hat, alpha, mu):
    """Route-length caps, cluster constants and the route error term.

    Returns ``(RouteConstants, error_fn)`` where ``error_fn(t)`` evaluates the
    geometric slack R_t(lam, eta, delta) = lam*(N_eta*L_delta*(6*L_delta+1/2)
    + 2*L_delta) + N_eta*L_delta*(1/2 + C_Q*t)*t^(-4/3) picked up when route
    gaps are chained together.  The feasibility condition linking (lam, eta)
    to (alpha, mu, delta) is enforced.
    """
    from .field import cluster_constants
    from .brownian import radial_drift_bound
    if not 0 < lam < eta:
        raise ConstraintViolation("need 0 < lam < eta")
    L_delta, eta_delta = cluster_constants(delta, params.d, K0, C_R0_hat)
    if not eta < eta_delta:
        raise ConstraintViolation(
            f"eta must lie below the admissible threshold {eta_delta:.6g}")
    N_eta = math.sqrt(64.0 * params.mu0 * math.sqrt(K0)) / eta
    N_hat = 0.5 * (1.0 + math.sqrt(64.0 * params.mu0 * math.sqrt(K0)) / (lam / 2.0))
    C_Q = radial_drift_bound(params.d)
    bracket = N_eta * L_delta * (6.0 * L_delta + 0.5) + 2.0 * L_delta

    def error_fn(t):
        return lam * bracket + N_eta * L_delta * (0.5 + C_Q * t) * t ** (-4.0 / 3.0)

    lhs = (1.0 - alpha) / 16.0 * (delta / mu) ** 4
    rhs = lam * K0 / 2.0 * bracket
    if not lhs > rhs:
        raise ConstraintViolation(
            "route-error budget infeasible: (1-alpha)/16*(delta/mu)^4 = "
            f"{lhs:.3e} must exceed lam*K0/2*bracket = {rhs:.3e}")
    return RouteConstants(N_eta, N_hat, L_delta), error_fn
