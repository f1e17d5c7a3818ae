"""numpy references for the pure-Python conic fit and pencil cubic.

``poncelet.projective`` fits conics by pivoted elimination (five points) or
pivoted Householder QR (more points) and solves the pencil cubic of
``conic_conic_intersect`` in closed form, so ``construct`` never loads
numpy.  The LAPACK routes they replaced are kept here as oracles:

* ``svd_conic_fit``: the null vector of the design matrix from an SVD,
  with the same rank test (s[4] < 1e-10 s[0]) and degeneracy check;
* ``np_cubic_roots``: companion-matrix roots (``numpy.roots``);
* ``np_conic_conic_intersect``: the pencil solved with ``numpy.roots``
  and otherwise unchanged (same candidate loop and polish);
* ``np_eigenvector_frame``: the doubling fallback's frame from
  ``numpy.linalg.eig``.

The earlier fit took ``vh[-1]``, the conjugate of the null vector, so it
fitted the conjugate conic to non-real points; ``svd_conic_fit`` takes
the null vector itself.
"""

import math

import numpy as np

from poncelet.errors import DegenerateInput, NonFiniteElement, NumericalRankDeficiency
from poncelet.projective import (
    Conic,
    ProjPoint,
    _polish_on_two_conics,
    _split_degenerate_conic,
    conic_contains,
    line_conic_intersect,
)


def design_matrix(points):
    return np.array(
        [[x * x, 2 * x * y, 2 * x * z, y * y, 2 * y * z, z * z]
         for x, y, z in (p.coords for p in points)],
        dtype=complex,
    )


def svd_null_vector(points):
    """(null vector, s[4] / s[0]) of the design matrix."""
    _, s, vh = np.linalg.svd(design_matrix(points))
    return vh[-1].conj(), s[4] / s[0]


def svd_conic_fit(points):
    if len(points) < 5:
        raise ValueError("conic_fit needs at least 5 points")
    v, ratio = svd_null_vector(points)
    if ratio < 1e-10:
        raise NumericalRankDeficiency("points do not determine a unique conic")
    conic = Conic(tuple(v))
    if conic.degenerate:
        raise DegenerateInput("fitted conic is degenerate")
    return conic


def np_cubic_roots(coeffs):
    """numpy.roots of coefficients highest degree first (leading zeros stripped)."""
    return [complex(r) for r in np.roots(np.array(coeffs, dtype=complex))]


def pencil_cubic(a, b):
    """Coefficients (highest first) of det(a + t b), as conic_conic_intersect forms them."""

    def det_mix(t):
        e = tuple(ai + t * bi for ai, bi in zip(a.entries, b.entries))
        a00, a01, a02, a11, a12, a22 = e
        return (
            a00 * (a11 * a22 - a12 * a12)
            - a01 * (a01 * a22 - a12 * a02)
            + a02 * (a01 * a12 - a11 * a02)
        )

    d0, d1, dm1, d2 = det_mix(0), det_mix(1), det_mix(-1), det_mix(2)
    c2 = (d1 + dm1) / 2 - d0
    c3 = (d2 - d0 - 4 * c2 - (d1 - dm1)) / 6
    c1 = (d1 - dm1) / 2 - c3
    coeffs = [c3, c2, c1, d0]
    lead = max(abs(z) for z in coeffs)
    coeffs = [z / lead for z in coeffs]
    while len(coeffs) > 1 and abs(coeffs[0]) < 1e-13:
        coeffs = coeffs[1:]
    return coeffs


def np_conic_conic_intersect(a, b):
    """conic_conic_intersect with the pencil cubic solved by numpy.roots."""
    coeffs = pencil_cubic(a, b)
    candidates = np_cubic_roots(coeffs) if len(coeffs) > 1 else []
    best, best_err = None, math.inf
    for t0 in candidates:
        d = Conic(tuple(ai + t0 * bi for ai, bi in zip(a.entries, b.entries)))
        try:
            g, h = _split_degenerate_conic(d)
        except (NonFiniteElement, ZeroDivisionError):
            continue
        pts = []
        try:
            for line in (g, h):
                p1, p2, _ = line_conic_intersect(line, a)
                pts.extend([p1, p2])
        except DegenerateInput:
            continue
        pts = [_polish_on_two_conics(p, a, b) for p in pts]
        err = max(max(conic_contains(a, p), conic_contains(b, p)) for p in pts)
        if err < best_err:
            best, best_err = pts, err
    if best is None:
        raise DegenerateInput("failed to split any degenerate pencil member")
    return best


def np_eigenvector_frame(a, b):
    """Eigenvectors of dual(b) A from numpy.linalg.eig, as points."""
    m = np.array(b.dual().rows(), dtype=complex) @ np.array(a.rows(), dtype=complex)
    _, vecs = np.linalg.eig(m)
    return [ProjPoint(tuple(vecs[:, k])) for k in range(3)]
