"""Certified roots of square-free polynomials over Z and Z[i].

Aberth's simultaneous iteration (Aberth 1973), started from Bini's
Newton-polygon points (Bini 1996), finds every root in floats; each is then
polished on the 2^-200 grid by ``exact_newton`` and enclosed in a disc.

The enclosure is the Newton inclusion theorem: the disc
|w - z| <= d |p/p'|(z) around any point z holds a root of the degree-d
polynomial p.  ``exact_newton`` reaches its iterate by one Newton step s
from the previous one, rounded to the grid, so the disc of radius
(d + 1) |s| + 2^-200 around the iterate holds a root.  When the d discs are
pairwise disjoint each holds exactly one root, and no root is missed.
Where discs meet, the cluster they form runs Aberth sweeps on the exact
grid (the Newton quotient exact, the repulsion from every other root in
floats) from its float seeds, or from a circle around the cluster where two
seeds coincide; its discs are d |p/p'| at the final points.

For a real polynomial a seed is polished on the real line when its
imaginary part is within its own float Newton radius, and a root whose disc
meets its mirror image in the real axis, while no other disc does, is real:
its centre moves onto the axis.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

from .errors import InseparableRoots
from .ratpoly import (
    GRID_BITS,
    GaussInt,
    Poly,
    _newton_parts,
    _newton_quotient,
    _parts,
    _ratio_float,
    exact_newton,
)

EPS = 2.0 ** -53
ULP = 2.0 ** -GRID_BITS     # bounds the grid rounding of a Newton step
SLACK = 1 + 2.0 ** -40      # covers the float rounding of radii and distances
FLOAT_SWEEPS = 50
EXACT_SWEEPS = 100
CONVERGED = 2.0 ** -190     # Newton quotient at which an exact sweep leaves a point
FINE = 2.0 ** -128          # disc radius, relative to max(1, |centre|), that needs no refining
ANGLE = 0.7                 # Bini's offset: no start circle is symmetric in the real axis


class IsolatedRoot(NamedTuple):
    x: tuple        # the centre as the homogeneous pair (numerator, 2^200)
    value: complex  # the centre, each part correctly rounded
    radius: float   # the disc around the centre holds this root and no other


def isolate_roots(p: Poly) -> list[IsolatedRoot]:
    """Every root of the square-free polynomial p, each in a disc that holds
    no other; raises ``InseparableRoots`` when the discs cannot be made
    pairwise disjoint."""
    d = p.degree
    if d < 1:
        return []
    c, dc = parts = _newton_parts(p)
    real = not any(zi for _, zi in c)
    coeffs = p.complex_coefficients()
    seeds = float_seeds(coeffs)
    if len(seeds) != d:
        raise InseparableRoots(f"{len(seeds)} float seeds for a degree-{d} polynomial")
    discs = []
    for z, r in seeds:
        if real and abs(z.imag) <= r:
            z = complex(z.real)
        (num, _), _, step = exact_newton(p, z, parts)
        discs.append([*_parts(num), _disc_radius(d + 1, step)])
    clusters = _clusters(discs)
    for members in clusters:
        _restart(c, dc, discs, seeds, members, _root_bound(coeffs))
    overlapping = sum(len(g) for g in _clusters(discs) if len(g) > 1) if clusters else 0
    if overlapping:
        raise InseparableRoots(
            f"{overlapping} of the {d} root discs of a degree-{d} polynomial "
            "still overlap after the exact Aberth sweeps"
        )
    if real:
        _snap_real(discs)
    one = 1 << GRID_BITS
    return [
        IsolatedRoot((GaussInt(xr, xi) if xi else xr, one),
                     complex(_ratio_float(xr, one), _ratio_float(xi, one)), radius)
        for xr, xi, radius in discs
    ]


def _disc_radius(factor: int, q: float) -> float:
    """factor * q rounded up, plus the grid rounding of the step behind q."""
    return factor * q * SLACK + ULP


# ---------------------------------------------------------------------------
# float seeds


def float_seeds(a: Sequence[complex]) -> list[tuple[complex, float]]:
    """Aberth-Ehrlich approximations of the roots of the polynomial with
    ascending coefficients a, each with its float Newton radius (d |p/p'|,
    |p| raised to the Horner rounding bound).  A seed stops once |p| is
    within that bound; zero coefficients at the bottom are roots at 0."""
    zeros = next(k for k, z in enumerate(a) if z)
    a = a[zeros:]
    zs = _bini_starts(a)
    radii = [math.inf] * len(zs)
    done = [False] * len(zs)
    for _ in range(FLOAT_SWEEPS):
        for i, z in enumerate(zs):
            if done[i]:
                continue
            inv, radii[i], done[i] = _newton_float(a, z)
            if not done[i]:
                t = inv - sum(1 / (z - w) for w in zs if w != z)
                zs[i] = z - 1 / t if t else z + (1 + abs(z)) * 2.0 ** -26
        if all(done):
            break
    return [(0j, 0.0)] * zeros + list(zip(zs, radii))


def _bini_starts(a: Sequence[complex]) -> list[complex]:
    """For each edge (k, l) of the upper convex hull of (k, log|a_k|),
    l - k points on the circle of radius |a_k / a_l|^(1/(l - k))."""
    d = len(a) - 1
    hull: list[tuple[int, float]] = []
    for k, z in enumerate(a):
        if not z:
            continue
        q = (k, math.log(abs(z)))
        while len(hull) > 1 and _turn(hull[-2], hull[-1], q) >= 0:
            hull.pop()
        hull.append(q)
    starts = []
    for (k, lk), (l, ll) in zip(hull, hull[1:]):
        m = l - k
        u = math.exp(min((lk - ll) / m, 700.0))
        starts += [cmath.rect(u, 2 * math.pi * (j / m + k / d) + ANGLE) for j in range(m)]
    return starts


def _turn(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _newton_float(a: Sequence[complex], z: complex) -> tuple[complex, float, bool]:
    """p'(z) / p(z), the float Newton radius d |p/p'| with |p(z)| raised to
    the Horner rounding bound, and whether |p(z)| is within that bound.
    Past |z| = 1 the reversed polynomial is evaluated at 1/z, so no power
    of the argument exceeds 1."""
    d = len(a) - 1
    rev = abs(z) > 1
    y = 1 / z if rev else z
    ay = abs(y)
    v = dv = 0j
    s = 0.0
    for c in a if rev else reversed(a):
        dv = dv * y + v
        v = v * y + c
        s = s * ay + abs(c)
    if rev:
        # p = z^d q(y) and p' = z^(d-1) (d q - y q'), so p'/p = y (d q - y q') / q
        dv = y * (d * v - y * dv)
    noise = 4 * d * EPS * s
    radius = d * max(abs(v), noise) / abs(dv) if dv else math.inf
    small = abs(v) <= noise
    return (0j if small else dv / v), radius, small


def _root_bound(a: Sequence[complex]) -> float:
    """Fujiwara's bound on the moduli of the roots: 2 max |a_(d-k) / a_d|^(1/k)."""
    d = len(a) - 1
    return 2 * max(abs(a[d - k] / a[d]) ** (1 / k) for k in range(1, d + 1))


# ---------------------------------------------------------------------------
# discs on the exact grid: [real numerator, imaginary numerator, radius]


def _gap(a, b) -> complex:
    """Centre of a minus centre of b, from the exact numerators."""
    return complex(math.ldexp(a[0] - b[0], -GRID_BITS), math.ldexp(a[1] - b[1], -GRID_BITS))


def _meet(a, b) -> bool:
    return abs(_gap(a, b)) <= (a[2] + b[2]) * SLACK


def _clusters(discs: list[list]) -> list[list[int]]:
    """The discs that meet another, grouped into connected clusters, and as
    clusters of one the discs wider than ``FINE`` relative to their centre."""
    rmax = max(r for _, _, r in discs)
    parent = list(range(len(discs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    order = sorted(range(len(discs)), key=lambda i: discs[i][0])
    for n, i in enumerate(order):
        for j in order[n + 1:]:
            if math.ldexp(discs[j][0] - discs[i][0], -GRID_BITS) > (discs[i][2] + rmax) * SLACK:
                break
            if _meet(discs[i], discs[j]):
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(len(discs)):
        groups.setdefault(find(i), []).append(i)
    return [g for g in groups.values() if len(g) > 1 or _coarse(discs[g[0]])]


def _coarse(disc: list) -> bool:
    scale = max(1 << GRID_BITS, abs(disc[0]), abs(disc[1]))
    return disc[2] > math.ldexp(scale, -GRID_BITS) * FINE


def _restart(c, dc, discs, seeds, members, bound: float) -> None:
    """Aberth sweeps on the exact grid for one cluster.

    Several members start at their float seeds; where two seeds coincide,
    on a circle around their mean centre that holds every root (whose
    moduli are at most ``bound``).  A single member starts at its
    centre, where the sweeps are Newton steps on p deflated by every other
    root.  The other discs stay fixed and repel.  A member stops once its
    Newton quotient is below ``CONVERGED`` (or after ``EXACT_SWEEPS``); its
    radius is d |p/p'| at that point.
    """
    d, k = len(c) - 1, len(members)
    starts = [seeds[i][0] for i in members]
    if k > 1 and len(set(starts)) < k:
        cr = sum(discs[i][0] for i in members) // k
        ci = sum(discs[i][1] for i in members) // k
        centre = complex(math.ldexp(cr, -GRID_BITS), math.ldexp(ci, -GRID_BITS))
        radius = abs(centre) + bound
        starts = [centre + cmath.rect(radius, 2 * math.pi * j / k + ANGLE) for j in range(k)]
    for i, z in zip(members if k > 1 else (), starts):
        discs[i] = [round(math.ldexp(z.real, GRID_BITS)), round(math.ldexp(z.imag, GRID_BITS)),
                    math.inf]
    for sweep in range(EXACT_SWEEPS + 1):
        moved = False
        for i in members:
            disc = discs[i]
            quotient = _newton_quotient(c, dc, disc[0], disc[1])
            if quotient:
                nr, ni, den = quotient
                q = complex(_ratio_float(nr, den << GRID_BITS), _ratio_float(ni, den << GRID_BITS))
            else:
                q = math.inf
            disc[2] = _disc_radius(d, abs(q))
            if abs(q) <= CONVERGED or sweep == EXACT_SWEEPS:
                continue
            moved = True
            t = (1 / q if quotient else 0j) - sum(
                1 / g for other in discs if other is not disc and (g := _gap(disc, other)))
            w = 1 / t if t else q
            disc[0] -= round(math.ldexp(w.real, GRID_BITS))
            disc[1] -= round(math.ldexp(w.imag, GRID_BITS))
        if not moved:
            break


def _snap_real(discs: list[list]) -> None:
    """Move onto the real axis the centre of every root proved real.

    A disc D that meets its mirror image D* while no other disc does holds a
    real root x: x* is a root in D*, hence in D.  With h = |Im c| and r the
    radius, |x - Re c| <= sqrt(r^2 - h^2), and that disc lies inside the
    union of D and D*, which meets no other disc.
    """
    for a in discs:
        h = math.ldexp(abs(a[1]), -GRID_BITS)
        if not a[1] or h > a[2]:
            continue
        mirror = [a[0], -a[1], a[2]]
        if not any(b is not a and _meet(mirror, b) for b in discs):
            a[1], a[2] = 0, math.sqrt(a[2] * a[2] - h * h) * SLACK
