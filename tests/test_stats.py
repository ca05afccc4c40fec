import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hypam.config import stream
from hypam.stats import linear_fit
from oracles import oracle_linear_fit


def fit_tuple(fit):
    return fit.slope, fit.intercept, fit.r2, fit.ci


def assert_bit_equal(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True), (got, want)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 40), log_spread=st.floats(-3.0, 3.0),
       offset=st.floats(-5.0, 5.0), slope=st.floats(-10.0, 10.0),
       noise=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
       seed=st.integers(0, 2 ** 31 - 1))
def test_linear_fit_matches_linregress(n, log_spread, offset, slope, noise, seed):
    # exact lines (r clamped to +-1), near-lines and plain noise, with x
    # spreads from 1e-3 to 1e3 around an offset of up to 5 spreads
    rng = stream(seed, "fit")
    spread = 10.0 ** log_spread
    x = (offset + rng.uniform(-1.0, 1.0, n)) * spread
    assume(np.amax(x) != np.amin(x))
    y = slope * x + noise * rng.standard_normal(n)
    fit = linear_fit(x, y)
    assert fit.n == n
    assert_bit_equal(fit_tuple(fit), oracle_linear_fit(x, y))


def test_two_points_have_infinite_interval():
    fit = linear_fit([1.0, 3.0], [2.0, -1.0])
    assert fit.slope == -1.5 and fit.ci == (-math.inf, math.inf)
    assert_bit_equal(fit_tuple(fit), oracle_linear_fit([1.0, 3.0], [2.0, -1.0]))


def test_equal_x_rejected():
    with pytest.raises(ValueError, match="x values are identical"):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        oracle_linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_equal_y_gives_nan_r2():
    x, y = [0.4, 0.2, 0.1], [0.0, 0.0, 0.0]
    fit = linear_fit(x, y)
    assert fit.slope == 0.0 and math.isnan(fit.r2)
    assert all(math.isnan(v) for v in fit.ci)
    assert_bit_equal(fit_tuple(fit), oracle_linear_fit(x, y))
    assert fit.to_dict()["r2"] is None and fit.to_dict()["ci"] == [None, None]
