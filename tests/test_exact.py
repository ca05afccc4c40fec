import math

import numpy as np
import pytest

from hypam import exact, feynman_kac as fk, geometry as geo
from hypam.config import ConstraintViolation
from oracles import oracle_radial_pam_h3


def peak(height=3.0, width=1.0):
    return fk.PlantedPeakPotential(geo.origin(2), height, width).radial


class TestRadialPam:
    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_potential_grows_like_ct(self, d):
        # Crank-Nicolson's growth error is (c dt)^3 / 12 per step, 1.8e-7
        # here; within r < 1 the boundary at r_max = 10 is out of reach
        r, log_u = exact.radial_pam(lambda r: 0.7, d, 1.0)
        assert np.max(np.abs(log_u[r < 1.0] - 0.7)) < 1e-6

    def test_zero_time_is_log_one(self):
        r, log_u = exact.radial_pam(peak(), 2, 0.0)
        assert np.array_equal(log_u, np.zeros_like(r))

    def test_grid_convergence_off_centre(self):
        # u(1, o) for the peak at distance 1.5 is U(1, 1.5): halving dr and
        # dt moves it by about 5e-6 (0.089519 to 0.089514)
        coarse = exact.radial_pam(peak(), 2, 1.0)
        fine = exact.radial_pam(peak(), 2, 1.0, dr=0.005, dt=0.00125)
        a, b = (np.interp(1.5, *pair) for pair in (coarse, fine))
        assert abs(a - 0.089519) < 1e-5
        assert abs(a - b) < 1e-4

    def test_d3_matches_sinh_transform(self):
        # a second scheme on another grid: the two differ by about 8e-6,
        # falling fourfold when both grids are halved
        r, log_u = exact.radial_pam(peak(), 3, 1.0)
        r_w, log_w = oracle_radial_pam_h3(peak(), 1.0, 0.01, 0.0025, 10.0)
        at = np.array([0.05, 0.5, 1.0, 1.5, 2.0])
        assert np.max(np.abs(np.interp(at, r, log_u) - np.interp(at, r_w, log_w))) < 2e-5

    def test_growth_past_overflow_stays_finite(self):
        # e^811 overflows a float; the kept log scale holds it.  Each step of
        # a constant c multiplies U by Crank-Nicolson's (1 + c k/2) / (1 - c k/2)
        r, log_u = exact.radial_pam(lambda r: 800.0, 2, 1.0, dt=0.0005)
        assert abs(log_u[0] - 2000 * math.log(1.2 / 0.8)) < 1e-9 * 811
        assert np.all(np.isfinite(log_u))

    def test_feynman_kac_agrees_within_three_se(self):
        r, log_u = exact.radial_pam(peak(), 2, 1.0)
        est = fk.fk_estimate(fk.PlantedPeakPotential(geo.origin(2), 3.0, 1.0),
                             2, 1.0, 0.01, 20000, seed=0)
        assert abs(est.mean - math.exp(log_u[0])) < 3.0 * est.se

    @pytest.mark.parametrize("kwargs", [dict(d=1), dict(d=2.5), dict(t=-1.0),
                                        dict(t=math.nan), dict(dr=0.0),
                                        dict(dt=-0.1), dict(r_max=0.01)])
    def test_refuses_bad_arguments(self, kwargs):
        args = dict(d=2, t=1.0) | kwargs
        with pytest.raises(ConstraintViolation):
            exact.radial_pam(peak(), args.pop("d"), args.pop("t"), **args)
