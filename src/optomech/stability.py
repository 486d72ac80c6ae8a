"""Routh-Hurwitz stability test for 4x4 real drift matrices.

The characteristic polynomial is assembled from sums of principal minors
rather than from an eigenvalue decomposition, so the stability verdict does
not depend on the eigensolver it is tested against.  Every function takes one
4x4 matrix or a stack of shape (..., 4, 4); a stack gives arrays of shape
(...) where one matrix gives Python scalars.

Before the minors are formed, each matrix is scaled by the power of two that
brings its largest entry into [1/2, 1).  The scaling is exact, so the signs of
the Hurwitz quantities do not depend on it, and it keeps their products finite
for any finite matrix (entries more than about 1e150 below the largest can
still underflow, and the answer then comes from exact rationals).  Sums of
minors, unlike the power-sum traces of Newton's identities, do not cancel
when the eigenvalue magnitudes are far apart: a detuning of 1e10 against a
mechanical frequency of 1 leaves no correct digit in a trace-based det A.

The minors have one form per representation, and the input picks it.
_hurwitz_verdicts forms them on Python floats, read from a flat list of 16
floats per matrix, and gives a list of bools with no numpy round trip.
routh_hurwitz_stable and characteristic_coefficients take arrays, and
_scaled forms their minors entry-wise across the numpy stack, whatever its
size.  Both forms give the same bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_NORMAL = 2.0 ** -1022  # the smallest normal float
_OVERFLOW = Fraction(2**1024 - 2**970)  # the smallest rational that rounds to inf


def _polynomial(a):
    """(a1, a2, a3, a4, a1 a2 a3 - a3^2 - a1^2 a4) of a 4x4 matrix.

    a holds the rows of the matrix; the entries are floats, or arrays of one
    shape for a stack.  a_k is (-1)^k times the sum of the k x k principal
    minors; 3x3 minors expand along their first row, det A along rows (0, 1)
    against the complementary minors of rows (2, 3).
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    # u_cd, w_cd: 2x2 minors of rows (0, 1) and (2, 3) on columns (c, d)
    u01, u02, u03 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    u12, u13, u23 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    w01, w02, w03 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    w12, w13, w23 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    # v_cd: rows (1, 3); t_cd: rows (1, 2)
    v01, v03, v13 = a10 * a31 - a11 * a30, a10 * a33 - a13 * a30, a11 * a33 - a13 * a31
    t01, t02, t12 = a10 * a21 - a11 * a20, a10 * a22 - a12 * a20, a11 * a22 - a12 * a21
    a1 = -(a00 + a11 + a22 + a33)
    a2 = u01 + (a00 * a22 - a02 * a20) + (a00 * a33 - a03 * a30) + t12 + v13 + w23
    a3 = -(
        (a11 * w23 - a12 * w13 + a13 * w12)
        + (a00 * w23 - a02 * w03 + a03 * w02)
        + (a00 * v13 - a01 * v03 + a03 * v01)
        + (a00 * t12 - a01 * t02 + a02 * t01)
    )
    a4 = u01 * w23 - u02 * w13 + u03 * w12 + u12 * w03 - u13 * w02 + u23 * w01
    return a1, a2, a3, a4, a1 * a2 * a3 - a3 * a3 - a1 * a1 * a4


def _scaled(A):
    """_polynomial of every A 2^-e along a last axis of five values, and the exponents e."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2:] != (4, 4):
        raise ValueError(f"A must be 4x4 or a stack of 4x4 matrices (got shape {A.shape})")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must have finite entries")
    e = np.frexp(np.max(np.abs(A), axis=(-2, -1), initial=0.0))[1]  # initial: a stack may be empty
    S = np.ldexp(A, -e[..., None, None])
    return np.stack(_polynomial([[S[..., i, j] for j in range(4)] for i in range(4)]), -1), e


def _exact(m):
    """_polynomial of one matrix of 16 Python floats, on exact rationals."""
    f = [Fraction(x) for x in m]
    return _polynomial((f[0:4], f[4:8], f[8:12], f[12:16]))


def _nearest_float(q):
    """The float nearest the rational q, or an inf of its sign past the float range."""
    return float(q) if abs(q) < _OVERFLOW else (math.inf if q > 0 else -math.inf)


def characteristic_coefficients(A):
    """Coefficients (a1, a2, a3, a4) of det(s I - A) = s^4 + a1 s^3 + ... + a4.

    a_k is (-1)^k times the sum of the k x k principal minors of A, formed on
    the scaled matrix and times 2^(k e), or exactly and rounded where a scaled
    a_k is below 2^-1022.  A coefficient past the float range is an inf of its
    sign.  One matrix gives a tuple of floats, a stack a tuple of arrays.
    """
    values, e = _scaled(A)
    with np.errstate(over="ignore", under="ignore"):
        a = np.ldexp(values[..., :4], np.multiply.outer(e, [1, 2, 3, 4]))
    rows, m = a.reshape(-1, 4), np.asarray(A, dtype=float).reshape(-1, 16)  # rows is a view of a
    for k in np.flatnonzero(np.any(np.abs(values[..., :4]) < _NORMAL, axis=-1)):  # may have lost bits
        rows[k] = [_nearest_float(c) for c in _exact(m[k].tolist())[:4]]
    return tuple(a.tolist()) if a.ndim == 1 else tuple(np.moveaxis(a, -1, 0))


def _exact_verdict(m):
    """The verdict of one matrix of 16 Python floats, from exact rational quantities."""
    a1, _, a3, a4, h = _exact(m)
    return a1 > 0 and a3 > 0 and a4 > 0 and h > 0


def _hurwitz_verdicts(m):
    """Routh-Hurwitz verdicts of n matrices given as one flat list m of 16 n Python floats.

    The matrices follow one another in m, each row by row, and the verdicts
    come back as a list of n bools.  Each matrix is scaled on Python floats as
    _scaled scales arrays, however long the list, so the verdicts are those of
    routh_hurwitz_stable, and a non-finite entry raises its ValueError.
    """
    verdicts = []
    for k in range(0, len(m), 16):
        x = m[k : k + 16]
        if not all(map(math.isfinite, x)):
            raise ValueError("A must have finite entries")
        e = math.frexp(max(map(abs, x)))[1]
        s = [math.ldexp(v, -e) for v in x]
        a1, _, a3, a4, h = _polynomial((s[0:4], s[4:8], s[8:12], s[12:16]))
        if min(abs(a1), abs(a3), abs(a4), abs(h)) < _NORMAL:  # may have lost its sign
            verdicts.append(_exact_verdict(x))
        else:
            verdicts.append(a1 > 0 and a3 > 0 and a4 > 0 and h > 0)
    return verdicts


def routh_hurwitz_stable(A):
    """True iff every eigenvalue of the 4x4 matrix A has negative real part.

    The verdict is strict: a Hurwitz quantity of exactly zero reads not
    stable.  A stack of matrices gives a boolean array.  The verdict reads
    the signs of the scaled quantities, exact even where the unscaled ones
    overflow, or of exact rational ones where a scaled one is below 2^-1022.
    Every stack, one matrix included, is evaluated across numpy arrays.
    """
    A = np.asarray(A, dtype=float)
    q = _scaled(A)[0][..., [0, 2, 3, 4]].reshape(-1, 4)
    verdicts = np.all(q > 0, axis=-1)
    for k in np.flatnonzero(np.any(np.abs(q) < _NORMAL, axis=-1)):  # may have lost its sign
        verdicts[k] = _exact_verdict(A.reshape(-1, 16)[k].tolist())
    return bool(verdicts[0]) if A.ndim == 2 else verdicts.reshape(A.shape[:-2])
