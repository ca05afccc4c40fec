"""Small statistical helpers shared by the experiment modules."""

from dataclasses import dataclass, asdict

import numpy as np
from scipy import stats as sps


@dataclass(frozen=True)
class FitReport:
    """Least-squares line fit with a 95% slope confidence interval."""
    slope: float
    intercept: float
    r2: float
    n: int
    ci: tuple

    def to_dict(self):
        d = asdict(self)
        d["ci"] = list(self.ci)
        return d


def linear_fit(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    res = sps.linregress(x, y)
    n = x.size
    if n > 2:
        tval = sps.t.ppf(0.975, n - 2)
        half = tval * res.stderr
    else:
        half = np.inf
    return FitReport(float(res.slope), float(res.intercept),
                     float(res.rvalue ** 2), int(n),
                     (float(res.slope - half), float(res.slope + half)))


def wilson_ci(k, n):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
