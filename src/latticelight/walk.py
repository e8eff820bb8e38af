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
arguments.  This is a test reference: acceptance criteria 1, 2 and 5c and the
tests hold the float routines to it, no subcommand loads it, and its numpy
comes from the ``test`` extra (``pip install '.[test]'``).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import (
    _AXIS_TOL,
    MINUS,
    PLUS,
    SQRT3,
    DegeneratePointError,
    _axis_undefined,
    _check_sign,
    _step_gradient,
    _step_products,
)


BlochData = namedtuple("BlochData", "d n_tilde lam n grad_d")
BlochData.__doc__ = """Bloch decomposition of walk steps: A = d I - i n_tilde.sigma = exp(-i n.sigma).

For wavevectors ``k[..., 3]`` the fields have shapes ``d[...]``,
``n_tilde[..., 3]``, ``lam[...]``, ``n[..., 3]`` and ``grad_d[..., 3]``;
a single wavevector gives float scalars and 3-vectors.

Invariants: d^2 + |n_tilde|^2 = 1, lam = arccos(d), |n| = lam, and
n = lam * n_tilde / sin(lam) away from the removable sin(lam) -> 0 limit.
``grad_d`` is the gradient of d with respect to k.
"""


def bloch_data(k, sign) -> BlochData:
    """Evaluate d, n_tilde, lam, n and grad d at wavevectors ``k[..., 3]`` for one branch.

    The trigonometric products come from ``_step_products`` and
    ``_step_gradient``; lam is atan2(|n_tilde|, d), which agrees with
    arccos(d) but stays fully accurate near d = +-1.  All quantities are
    periodic in each component of k with period 2*pi*sqrt(3).  The lam -> 0
    limit of n = lam*n_tilde/sin(lam) is removable and handled without
    division blow-up; at an exact lam = pi degeneracy (n_tilde = 0 with
    d = -1) the axis is genuinely undefined and a DegeneratePointError is
    raised if any wavevector of the batch sits there.
    """
    s = _check_sign(sign)
    a = np.asarray(k, dtype=float) / SQRT3
    if a.ndim == 0 or a.shape[-1] != 3:
        raise ValueError(f"wavevectors must have shape (..., 3), got {a.shape}")
    cos, sin = np.moveaxis(np.cos(a), -1, 0), np.moveaxis(np.sin(a), -1, 0)  # three component arrays each
    (d, (nx, ny, nz)), grad = _step_products(cos, sin, s), _step_gradient(cos, sin, s)
    del cos, sin
    nt_norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    lam = np.arctan2(nt_norm, d)  # in [0, pi]; |n_tilde| = sin(lam)
    n_tilde, grad_d = np.stack((nx, ny, nz), axis=-1), np.stack(grad, axis=-1) / SQRT3
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

