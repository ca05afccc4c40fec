"""Small statistical helpers shared by the experiment modules.

Only numpy and ``scipy.special`` are imported here: ``scipy.stats`` alone
costs about half a second at import, which every ``hypam`` process would pay.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.special import stdtrit


@dataclass(frozen=True)
class FitReport:
    """Least-squares line fit with a 95% slope confidence interval."""
    slope: float
    intercept: float
    r2: float
    n: int
    ci: tuple

    def to_dict(self):
        """Plain dict for ``summary.json``; a non-finite ``r2`` or CI bound
        becomes ``None``, since JSON has no NaN or infinity."""
        d = asdict(self)
        d["r2"] = _finite_or_none(self.r2)
        d["ci"] = [_finite_or_none(v) for v in self.ci]
        return d


def _finite_or_none(v):
    return v if math.isfinite(v) else None


def linear_fit(x, y):
    """Least-squares line through (x, y) with a 95% Student-t interval on
    the slope; the interval is infinite for two points.

    The arithmetic is ``scipy.stats.linregress``'s, step for step, so every
    fit equals ``linregress`` + ``t.ppf(0.975, n - 2)`` bit for bit.  With
    all y equal, r2 and the interval are NaN; all x equal raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if np.amax(x) == np.amin(x) and n > 1:
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    xmean = np.mean(x, None)
    ymean = np.mean(y, None)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        # ssxm * ssym can underflow to 0 (y spread near 1e-160); the quotient
        # is then +-inf or NaN, and linregress clamps it the same way
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = ymean - slope * xmean
    if n > 2:
        stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
        half = stdtrit(n - 2, 0.975) * stderr
    else:
        half = np.inf
    return FitReport(float(slope), float(intercept), float(r ** 2), int(n),
                     (float(slope - half), float(slope + half)))


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
