"""Shared constants, error types, RNG streams and run configuration.

Every numerical tolerance used by the geometry layer lives in this module so
that the whole package agrees on what "equal" means.  Randomness is organised
around one master seed: every consumer derives an independent counter-based
stream with :func:`stream`, which makes results reproducible bit-for-bit and
independent of scheduling or chunking.
"""

from dataclasses import dataclass, fields, asdict

import numpy as np

# --- geometry tolerances -------------------------------------------------
HYPERBOLOID_ATOL = 1e-10    # |<x,x>_M + 1| for a valid point

# --- field / linear algebra ----------------------------------------------
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)   # multiples of sigma2 tried in turn
COND_RADIUS_FACTOR = 1.5                    # conditioning radius, in units of R0
COND_SITE_CAP = 96                          # nearest sites an extension conditions on
LATTICE_SPACING_FACTOR = 0.25               # default site spacing, in units of R0
COINCIDENT_DISTANCE = float(np.arccosh(1 + 1e-14))  # closer field sites coincide

# --- budgets ---------------------------------------------------------------
MAX_PACKING_CENTERS = 4096      # packing truncates here (recorded on the result)
MAX_FIELD_SITES = 20000         # conditional-simulation site budget
MAX_ONESHOT_SITES = 4096        # one-shot Cholesky site budget
MAX_CALIBRATION_PATHS = 200000  # Monte Carlo heat-kernel calibration paths
LONG_ROUTE_N_CAP = 8            # convolution recursion depth cap


class ConstraintViolation(ValueError):
    """A parameter constraint required by an operation does not hold."""


class BudgetExceeded(RuntimeError):
    """A configured desk-scale budget (sites, centers, depth) was passed."""


class FactorizationError(RuntimeError):
    """Covariance factorisation failed within the allowed jitter cap."""


class KernelUnavailable(ValueError):
    """No usable heat kernel for the requested dimension."""


def stream(seed, *ids):
    """Child generator keyed by ``(seed, *ids)``.

    Uses Philox (counter-based) seeded through ``SeedSequence`` so distinct id
    tuples give independent streams and the mapping is stable across runs,
    platforms and worker counts.  String ids are hashed to stable integers.
    """
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for i in ids:
        if isinstance(i, str):
            h = 2166136261
            for ch in i.encode():
                h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
            key.append(h)
        else:
            key.append(int(i) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tuple(key))))


def count(x):
    """Floor a real cap to the integer count actually used (at least 1)."""
    return max(1, int(np.floor(x)))


# --- run configuration -----------------------------------------------------

@dataclass
class RunConfig:
    """Flat, typed configuration for the experiment harness.

    One instance covers every subcommand; each subcommand reads the subset it
    needs.  Validation happens before dispatch and raises
    :class:`ConstraintViolation` with a message naming the violated rule.
    """

    d: int = 2
    sigma2: float = 1.0
    R0: float = 1.0
    kernel_shape: str = "poly3"
    t: float = 1.0
    dt: float = 0.01
    n_paths: int = 1000
    n_reps: int = 32
    delta: float = 0.5
    eta: float = 5e-4
    lam: float = 1e-4
    alpha: float = 0.9
    mu_factor: float = 1.1     # mu = mu_factor * mu0
    K0: float = 2.0
    C_R0_hat: float = 1.0
    seed: int = 0
    mode: str = "quenched"
    spacing_factor: float = LATTICE_SPACING_FACTOR
    site_cap: int = 2048
    R_list: str = "5,10,20"
    s_list: str = "0.4,0.2,0.1,0.05"
    eps: float = 0.2
    K: float = 0.4
    delta_tube: float = 1.0
    r_peak: float = 1.0
    peak_height: float = 2.0
    peak_distance: float = 1.5
    zeta: float = 1e-3
    N_hops: int = 4
    out: str = "out"

    def r_values(self):
        return self._floats("R_list")

    def s_values(self):
        return self._floats("s_list")

    def _floats(self, key):
        text = str(getattr(self, key))
        try:
            return [float(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise ConstraintViolation(
                f"{key} must be comma-separated numbers, got {text!r}") from None

    def validate(self, need_cluster_scales=False):
        if self.d < 2:
            raise ConstraintViolation("dimension d must be >= 2")
        if self.sigma2 <= 0 or self.R0 <= 0:
            raise ConstraintViolation("sigma2 and R0 must be positive")
        if self.dt <= 0:
            raise ConstraintViolation("dt must be positive")
        for key in ("n_paths", "n_reps", "site_cap"):
            if getattr(self, key) < 1:
                raise ConstraintViolation(f"{key} must be at least 1")
        if self.spacing_factor <= 0:
            raise ConstraintViolation("spacing_factor must be positive")
        if need_cluster_scales:
            from . import field as _field
            _, eta_delta = _field.cluster_constants(
                self.delta, self.d, self.K0, self.C_R0_hat)
            if not self.eta < eta_delta:
                raise ConstraintViolation(
                    "eta must lie below the admissible cluster threshold "
                    f"eta_delta(delta)={eta_delta:.6g} (got eta={self.eta})")
        return self


def _parse_item(item, where):
    """Typed ``(field, value)`` of one ``key=value`` item.  The value is all
    of the item after the first ``=``, parsed by calling the field's type
    (int, float or str).  A missing ``=``, an unknown key (``subcommand`` is
    none) or a type mismatch raises ``ValueError`` naming ``where``."""
    key, eq, value = item.partition("=")
    if not eq:
        raise ValueError(f"{where}: expected 'key = value', got {item!r}")
    key = key.strip()
    if key == "lambda":   # friendlier alias for the reserved word
        key = "lam"
    types = {f.name: f.type for f in fields(RunConfig)}
    if key not in types:
        raise ValueError(f"{where}: unknown config key {key!r}")
    try:
        return key, types[key](value)
    except ValueError as exc:
        raise ValueError(f"{where}: field {key!r} cannot take value {value!r}") from exc


def parse_config(text, path="<config>"):
    """Parse flat ``key = value`` text into a :class:`RunConfig`.

    ``#`` starts a comment, and each line's value is stripped before
    :func:`_parse_item` types it.  Keys not given keep their defaults, a
    repeated key keeps its last value.  A ``subcommand`` key is allowed and
    returned separately (manifests carry it so a run can be replayed).
    """
    pairs = {}
    subcommand = None
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        key, eq, value = line.partition("=")
        if eq and key.strip() == "subcommand":
            subcommand = value.strip()
        elif line:
            pairs.update([_parse_item(key + eq + value.strip(), f"{path}:{lineno}")])
    return RunConfig(**pairs), subcommand


def format_config(cfg, subcommand=None):
    """Render a config (plus optional subcommand) back to flat text."""
    lines = []
    if subcommand is not None:
        lines.append(f"subcommand = {subcommand}")
    for key, val in asdict(cfg).items():
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    return "\n".join(lines) + "\n"
