"""Closed-form evaluation of the two BCC Weyl walk unitaries.

A single step of the walk acts in momentum space as a 2x2 unitary

    A(k) = d(k) I - i n_tilde(k) . sigma = exp(-i n(k) . sigma),

with trigonometric closed forms in the arguments k_alpha / sqrt(3).  There
are exactly two branches, selected by a chirality sign: the two are mirror
images of each other through the reflection k_y -> -k_y.  The minus branch
reduces to exp(-i k/sqrt(3) . sigma) at small wavevector; the plus branch
reduces to the same generator with k_y reflected.

Every evaluation takes wavevectors as ``k[..., 3]``, so a whole grid of
k-points costs one call; everything here is a pure function of its
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _AXIS_TOL, MAX_STEPS, MINUS, PLUS, SQRT3, DegeneratePointError, _axis_undefined, _check_sign, _step_products

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: sigma^mu for mu = 0..3 (identity first)
PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])

@dataclass(frozen=True)
class BlochData:
    """Bloch decomposition of walk steps: A = d I - i n_tilde.sigma = exp(-i n.sigma).

    For wavevectors ``k[..., 3]`` the fields have shapes ``d[...]``,
    ``n_tilde[..., 3]``, ``lam[...]``, ``n[..., 3]`` and ``grad_d[..., 3]``;
    a single wavevector gives float scalars and 3-vectors.

    Invariants: d^2 + |n_tilde|^2 = 1, lam = arccos(d), |n| = lam, and
    n = lam * n_tilde / sin(lam) away from the removable sin(lam) -> 0 limit.
    ``grad_d`` is the gradient of d with respect to k.
    """

    d: float
    n_tilde: np.ndarray
    lam: float
    n: np.ndarray
    grad_d: np.ndarray


def _components(v):
    """The three components of ``v[..., 3]``.

    A single vector gives numpy scalars, not 0-d arrays, which keeps the
    per-call cost of one wavevector near that of scalar code.
    """
    return v[..., 0][()], v[..., 1][()], v[..., 2][()]


def _vectors(x, y, z) -> np.ndarray:
    """3-vectors ``[..., 3]`` from their component arrays (cheaper than np.stack)."""
    out = np.empty(np.shape(x) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def _closed_forms(k, sign):
    """(d, n_tilde, |n_tilde|, lam, grad d) at every wavevector of ``k[..., 3]``.

    The trigonometric products come from ``_step_products``; lam is
    atan2(|n_tilde|, d), which agrees with arccos(d) but stays fully
    accurate near d = +-1.
    """
    s = _check_sign(sign)
    a = np.asarray(k, dtype=float) / SQRT3
    if a.ndim == 0 or a.shape[-1] != 3:
        raise ValueError(f"wavevectors must have shape (..., 3), got {a.shape}")
    d, (nx, ny, nz), grad = _step_products(_components(np.cos(a)), _components(np.sin(a)), s)
    nt_norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    lam = np.arctan2(nt_norm, d)  # in [0, pi]; |n_tilde| = sin(lam)
    return d, _vectors(nx, ny, nz), nt_norm, lam, _vectors(*grad) / SQRT3


def bloch_data(k, sign) -> BlochData:
    """Evaluate d, n_tilde, lam, n and grad d at wavevectors ``k[..., 3]`` for one branch.

    All quantities are periodic in each component of k with period
    2*pi*sqrt(3).  The lam -> 0 limit of n = lam*n_tilde/sin(lam) is
    removable and handled without division blow-up; at an exact lam = pi
    degeneracy (n_tilde = 0 with d = -1) the axis is genuinely undefined and
    a DegeneratePointError is raised if any wavevector of the batch sits
    there.
    """
    d, n_tilde, nt_norm, lam, grad_d = _closed_forms(k, sign)
    tiny = nt_norm < _AXIS_TOL
    undefined = _axis_undefined(nt_norm, d)
    if undefined.any():
        where = np.asarray(k, dtype=float).reshape(-1, 3)[np.ravel(undefined)][0]
        raise DegeneratePointError(f"rotation axis undefined at k={where} (lam=pi, n_tilde=0)")
    # lam/sin(lam) = 1 + lam^2/6 + ...; below _AXIS_TOL lam <= ~1e-14, so the
    # series collapses to n = n_tilde
    scale = np.where(tiny, 1.0 + lam * lam / 6.0, lam / np.where(tiny, 1.0, nt_norm))
    n = scale[..., None] * n_tilde
    return BlochData(d=d[()], n_tilde=n_tilde, lam=lam[()], n=n, grad_d=grad_d)


def _power_coefficients(k, sign, t: int):
    """Real (c[...], v[..., 3]) with A(k)^t = c I - i v.sigma: step_power's coefficients."""
    if abs(t) > MAX_STEPS:
        raise ValueError(f"t must satisfy |t| <= {MAX_STEPS}, got {t}")
    d, n_tilde, nt_norm, lam, _ = _closed_forms(k, sign)
    tiny = nt_norm < _AXIS_TOL
    angle = np.fmod(t * lam, 2.0 * math.pi)
    parity = np.where(d > 0.0, 1.0, (-1.0) ** (int(t) % 2))
    c = np.where(tiny, parity, np.cos(angle))
    axis = n_tilde / np.where(tiny, 1.0, nt_norm)[..., None]
    return c, np.where(tiny, 0.0, np.sin(angle))[..., None] * axis


def step_power(k, sign, t: int) -> np.ndarray:
    """A(k)^t in closed form at wavevectors ``k[..., 3]``, shape (..., 2, 2).

    Each power is a rotation by angle t*lam about the fixed axis, with t*lam
    reduced mod 2*pi before the trig evaluation.  Every entry is within
    1e-15 (1 + |t|) of the exact power (50-digit mpmath, in the tests) for
    |t| up to MAX_STEPS = 10**6; a larger |t| raises ValueError.  Negative t
    gives inverse steps.  Where |n_tilde| vanishes, A = d*I with d = +-1 and
    the power is d^t * I.
    """
    c, v = _power_coefficients(k, sign, t)
    # c I - i v.sigma
    coeffs = np.concatenate([np.asarray(c, dtype=complex)[..., None], -1j * v], axis=-1)
    return np.einsum("...m,mij->...ij", coeffs, PAULI)
