"""Deterministic solutions of the parabolic Anderson model, the exact oracles
the Feynman-Kac estimators are checked against.

A potential V that is radial around a centre c keeps the solution with
u(0) = 1 radial around c: u(t, x) = U(t, d(x, c)), where

    U_t = U_rr + (d-1) coth(r) U_r + V(r) U,    U(0, r) = 1,

with the generator Delta of ``brownian.simulate_bm_batch``.  The radial part
of Delta, ``sinh^(1-d) (sinh^(d-1) U_r)_r``, is discretised once, by
cell-centred finite volumes in flux form (:func:`radial_laplacian`); the
solvers build on that one operator.  Nothing here is imported by the CLI.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from .config import ConstraintViolation

# 3-point Gauss-Legendre rule on [-1, 1]: each cell's volume exactly for
# d <= 6 near the origin, where sinh^(d-1) r is a polynomial to leading order
_CELL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_CELL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def radial_laplacian(d, dr, n_cells):
    """The radial Laplacian on ``n_cells`` cells of width dr over [0, r_max],
    r_max = n_cells * dr, with a Dirichlet value at r_max.

    Cell i spans [i dr, (i+1) dr] with centre ``r[i] = (i + 1/2) dr`` and
    weight m_i, its ``sinh^(d-1)`` volume (3-point Gauss-Legendre over the
    cell).  The flux through the face at f between centres a dr apart is
    ``sinh^(d-1)(f) (U_right - U_left) / a``; the face at r = 0 has weight 0,
    so the no-flux condition at the origin needs no special case, and the
    outer face takes the boundary value at a = dr / 2.  So ``(L U)_i =
    (flux out of face i+1 - flux in through face i) / m_i``.

    Returns ``(r, band, edge)``: ``band`` is L in ``solve_banded``'s (1, 1)
    layout (``band[0, 1:]`` the super-, ``band[1]`` the main and
    ``band[2, :-1]`` the sub-diagonal), and ``edge`` the coefficient of the
    boundary value in the last cell's row.
    """
    faces = dr * np.arange(n_cells + 1)
    r = faces[:-1] + 0.5 * dr
    mass = 0.5 * dr * (np.sinh(r[:, None] + 0.5 * dr * _CELL_NODES) ** (d - 1)
                       @ _CELL_WEIGHTS)
    conductance = np.sinh(faces) ** (d - 1) / dr
    conductance[-1] *= 2.0
    band = np.zeros((3, n_cells))
    band[0, 1:] = conductance[1:-1] / mass[:-1]
    band[1] = -(conductance[:-1] + conductance[1:]) / mass
    band[2, :-1] = conductance[1:-1] / mass[1:]
    return r, band, conductance[-1] / mass[-1]


def radial_pam(V, d, t, dr=0.01, dt=0.0025, r_max=10.0):
    """``(r, log_u)``: log U(t, r) on the cell centres r of
    :func:`radial_laplacian`, U solving the radial parabolic Anderson model
    above with ``U = 1`` at ``r_max`` (rounded to a whole number of cells).

    ``V`` maps an array of radii to potential values and is read at the cell
    centres.  Time runs in ceil(t / dt) equal Crank-Nicolson steps, each one
    ``solve_banded`` call.  After each step U is divided by its maximum and
    the log of that maximum is kept apart, so U stays representable however
    large it grows; a cell whose scaled U underflows reads -inf.  Near the
    centre U is even in r, so ``log_u[0]`` (at r = dr / 2) is log U(t, 0) up
    to O(dr^2).  For V of compact support, U = 1 at r_max is exact only as
    r_max grows without bound: choose r_max beyond the reach of paths over
    time t.
    """
    if not (float(d).is_integer() and d >= 2):
        raise ConstraintViolation(f"dimension d must be an integer >= 2, got {d!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ConstraintViolation(f"t must be finite and >= 0 (got t={t})")
    if not (dr > 0 and dt > 0 and math.isfinite(r_max) and r_max >= 2 * dr):
        raise ConstraintViolation(
            f"need dr > 0, dt > 0 and a finite r_max >= 2 dr (got dr={dr}, "
            f"dt={dt}, r_max={r_max})")
    r, op, edge = radial_laplacian(int(d), dr, round(r_max / dr))
    op[1] += V(r)
    n_steps = math.ceil(t / dt)
    step = t / n_steps if n_steps else 0.0
    half = 0.5 * step * op
    lhs = -half
    lhs[1] += 1.0
    u = np.ones_like(r)
    log_scale = 0.0
    for _ in range(n_steps):
        rhs = u + half[1] * u
        rhs[:-1] += half[0, 1:] * u[1:]
        rhs[1:] += half[2, :-1] * u[:-1]
        rhs[-1] += step * edge * math.exp(-log_scale)
        u = solve_banded((1, 1), lhs, rhs, check_finite=False)
        top = u.max()
        u /= top
        log_scale += math.log(top)
    with np.errstate(divide="ignore"):
        return r, np.log(u) + log_scale
