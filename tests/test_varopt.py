import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypam import field as fd, varopt
from hypam.config import ConstraintViolation
from hypam.varopt import ModelParams


def test_optimize_closed_forms(params2):
    sol = varopt.optimize_f(params2)
    assert sol.eps_star == 0.2
    a = params2.a
    assert abs(sol.K_star - 2 ** (5 / 3) / 5 ** (4 / 3) * a ** (1 / 3)) < 1e-12
    assert abs(sol.L_star - 3 * 2 ** (4 / 3) / 5 ** (5 / 3) * a ** (2 / 3)) < 1e-12
    assert sol.gradient_norm <= 1e-6
    assert sol.grid_gap <= 1e-6


def test_optimize_tiny_field_strength():
    # K* is about 8e-6 at sigma2 = 1e-14, below the 1e-5 finite-difference
    # step, so a fixed K step would evaluate the profile at a negative K
    for sigma2 in (1e-14, 1e-20):
        sol = varopt.optimize_f(ModelParams(2, sigma2))
        assert sol.K_star < 1e-5 and sol.grid_gap <= 1e-6


def test_optimize_failed_cross_check_is_typed():
    # at this strength the independent search cannot resolve the optimum
    with pytest.raises(varopt.CrossCheckFailed, match="disagrees"):
        varopt.optimize_f(ModelParams(2, 1e-40))


def test_optimize_scaling_law():
    base = varopt.optimize_f(ModelParams(2, 1.0))
    for c in (0.37, 2.0, 9.0):
        scaled = varopt.optimize_f(ModelParams(2, c))
        assert scaled.eps_star == base.eps_star == 0.2
        assert abs(scaled.L_star - c ** (2 / 3) * base.L_star) < 1e-9


def test_l_star_relaxed_reduction(params2):
    sol = varopt.optimize_f(params2)
    val = varopt.l_star_relaxed(1.0, params2.mu0)
    assert abs(val - sol.L_star) < 1e-6


@pytest.mark.parametrize("alpha, mu_factor", [(1.0, 1.0), (0.9, 1.1), (0.5, 2.0),
                                              (0.2, 0.5)])
def test_l_star_relaxed_matches_search(params2, alpha, mu_factor):
    # the closed form against the grid + golden-section search
    mu = mu_factor * params2.mu0
    K_star = (4.0 * mu / (25.0 * alpha)) ** (2.0 / 3.0)

    def value(v, K):
        return mu * np.sqrt(K) * (1.0 - v) - alpha * K * K / (4.0 * v)

    v_num, K_num, val_num = varopt._search_optimum(value, K_hi=max(5.0 * K_star, 1.0))
    assert abs(varopt.l_star_relaxed(alpha, mu) - val_num) <= 1e-6
    assert abs(v_num - 0.2) <= 1e-4 and abs(K_num - K_star) <= 1e-4


def test_l_star_relaxed_monotone(params2):
    alphas = np.linspace(0.2, 1.0, 5)
    mus = params2.mu0 * np.linspace(1.0, 2.0, 5)
    grid = np.array([[varopt.l_star_relaxed(a, m) for m in mus]
                     for a in alphas])
    assert np.all(np.diff(grid, axis=0) < 1e-12)    # decreasing in alpha
    assert np.all(np.diff(grid, axis=1) > -1e-12)   # increasing in mu


def test_l_star_relaxed_continuity(params2):
    sol = varopt.optimize_f(params2)
    near = varopt.l_star_relaxed(0.99, 1.01 * params2.mu0)
    assert abs(near - sol.L_star) <= 0.05 * sol.L_star
    tight = varopt.l_star_relaxed(1.0 - 1e-4, params2.mu0 * (1.0 + 1e-4))
    assert abs(tight - sol.L_star) <= 1e-3


def test_euclid_growth(params2):
    sol = varopt.optimize_f(params2)
    ratios = [varopt.euclid_growth(t, params2) / (sol.L_star * t ** (5 / 3))
              for t in (1e2, 1e4, 1e6)]
    assert ratios[0] > ratios[1] > ratios[2]
    with pytest.raises(ConstraintViolation):
        varopt.euclid_growth(2.0, params2)
    # proportional to sigma at fixed t
    v1 = varopt.euclid_growth(100.0, ModelParams(2, 1.0))
    v2 = varopt.euclid_growth(100.0, ModelParams(2, 4.0))
    assert abs(v2 / v1 - 2.0) < 1e-12


class TestInequalities:
    def test_chain_examples(self):
        lhs, rhs, ok = varopt.chain_bound([2.0, 4.0], [1.0, 2.0])
        assert ok and abs(lhs - 12.0) < 1e-12 and abs(rhs - 12.0) < 1e-12
        lhs, rhs, ok = varopt.chain_bound([3.0, 4.0], [1.0, 1.0])
        assert ok and abs(lhs - 25.0) < 1e-12 and abs(rhs - 24.5) < 1e-12
        lhs, rhs, ok = varopt.chain_bound([5.0], [0.7])
        assert ok and abs(lhs - rhs) < 1e-12

    def test_chain_length_mismatch(self):
        with pytest.raises(ConstraintViolation):
            varopt.chain_bound([1.0, 2.0], [1.0])

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10),
           st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_chain_property(self, D, u):
        k = min(len(D), len(u))
        _, _, ok = varopt.chain_bound(D[:k], u[:k])
        assert ok

    def test_hop_example(self, params2):
        lhs, rhs, ok = varopt.hop_inequality(0.1, 0.1, 0.4, 0.4, 0.2, 0.4, params2)
        assert ok and lhs <= rhs

    def test_hop_reduction_to_split_cost(self, params2):
        # equal distance scales: sides differ only through the jump costs
        e1, e2 = 0.15, 0.25
        h2 = 1.0 - e1 - e2 - 1e-9
        K = 0.7
        lhs, rhs, ok = varopt.hop_inequality(e1, e2, 1e-9, h2, K - 1e-12, K, params2)
        assert ok
        gap = rhs - lhs
        expected = K ** 2 / (4 * e1 ** 2) - K ** 2 / (4 * (e1 + e2))
        assert abs(gap - expected) < 1e-4

    def test_ha_example(self):
        harm, arit, ok = varopt.ha_mean_bound([1.0, 4.0])
        assert ok and abs(harm - 1.6) < 1e-12 and abs(arit - 2.5) < 1e-12
        harm, arit, ok = varopt.ha_mean_bound([3.0, 3.0, 3.0])
        assert ok and abs(harm - arit) < 1e-12

    @given(st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_ha_property(self, v):
        _, _, ok = varopt.ha_mean_bound(v)
        assert ok


class TestRouteConstants:
    # the constants do not depend on (alpha, mu); these pass the route-error
    # feasibility check at every (eta, lam, delta) below
    ALPHA, MU = 0.5, 0.01

    def consts(self, eta, lam, delta, params):
        return varopt.route_constants(eta, lam, delta, 1.0, params, 1.0,
                                      alpha=self.ALPHA, mu=self.MU)

    def test_worked_example(self, params2):
        consts, _ = self.consts(1e-3, 1e-4, 1.0, params2)
        assert abs(consts.L_delta - 2.02) < 1e-12
        _, eta_delta = fd.cluster_constants(1.0, params2.d, 1.0, 1.0)
        assert abs(eta_delta - 0.0275) < 5e-5

    def test_eta_halving_doubles_cap(self, params2):
        c1, _ = self.consts(1e-3, 1e-4, 1.0, params2)
        c2, _ = self.consts(5e-4, 1e-4, 1.0, params2)
        assert abs(c2.N_eta - 2.0 * c1.N_eta) < 1e-9

    def test_delta_scaling(self, params2):
        c1, _ = self.consts(1e-4, 1e-5, 1.0, params2)
        c2, _ = self.consts(1e-4, 1e-5, 0.5, params2)
        assert abs(c2.L_delta - 4.0 * c1.L_delta) < 1e-9

    def test_error_term_limit(self, params2):
        consts, err_fn = self.consts(1e-3, 1e-4, 1.0, params2)
        bracket = (consts.N_eta * consts.L_delta * (6 * consts.L_delta + 0.5)
                   + 2 * consts.L_delta)
        limit = 1e-4 * bracket
        vals = [err_fn(t) for t in (1e3, 1e6, 1e9, 1e18)]
        assert vals[0] > vals[1] > vals[2] > vals[3] > limit
        # the transient decays like t^(-1/3), so the limit is approached slowly
        assert abs(vals[-1] - limit) < 1e-2 * limit

    def test_constraint_violation_raised(self, params2):
        with pytest.raises(ConstraintViolation):
            varopt.route_constants(1e-3, 0.5e-3, 0.5, 2.0, params2, 1.0,
                                   alpha=0.9, mu=1.1 * params2.mu0)
