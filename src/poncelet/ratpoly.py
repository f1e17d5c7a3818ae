"""Exact univariate polynomial arithmetic over Z and Z[i].

Engine behind the closure polynomials: chain points are carried as pairs
(numerator, denominator) of polynomials in the coordinate of the unknown
point, reduced by a polynomial GCD after every step so that degrees match
the reduced rational functions.  Every coefficient is a Python int or a
``GaussInt``: ``chains`` scales each known point to an integer pair once, by
``_gauss_fraction`` (floats convert to exact dyadic rationals, inputs in
Q(i), which a chart of a real conic can produce, to Gaussian integers), and
no rational number reaches a ``Poly``.  Z and Z[i] run through the same code: GCDHEU certified by exact division,
Collins' primitive PRS as its fallback, and Newton polishing of roots in
integer fixed point.

The chain step knows most of its common factor in advance.  With
c1 = [q1q4][q3q4][q5q6] and c2 = [q1q6][q2q3][q4q5] the next point is
a = c1*q2[0] - c2*q4[0], b = c1*q2[1] - c2*q4[1], and the identities

    a*q4[1] - b*q4[0] = c1*[q2q4],    a*q2[1] - b*q2[0] = c2*[q2q4]

show that gcd(a, b) divides gcd(c1, c2)*[q2q4].  ``chain_next_vector``
cancels the shared bracket factors before it multiplies and divides by
[q2q4] where that divides exactly.  ``normalize_pair`` stays the
certificate: it removes whatever common factor is left, so the reduced
pair is the same as from the full products.

No exact product is formed twice in a call.  A step's [q2q3], [q3q4] and
[q4q5] are the previous step's [q3q4], [q4q5] and [q5q6]: ``closure_system``
forms each bracket of neighbouring points once and carries it.
``_hom_eval`` splits the denominator w = m*2^k, so on the 2^-200 grid of
``exact_newton`` and the wrap residuals each coefficient enters by a shift.
On a real system ``chains.closure_roots`` gives a root whose grid numerator
mirrors an evaluated one the same residuals: the same integers, conjugated.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence


class GaussInt:
    """Gaussian integer re + im*i; mixes with ints in ``+ - *`` and ``divmod``."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *a):
        raise AttributeError("GaussInt is immutable")

    def __add__(self, other):
        c, d = _parts(other)
        return GaussInt(self.re + c, self.im + d)

    __radd__ = __add__

    def __sub__(self, other):
        c, d = _parts(other)
        return GaussInt(self.re - c, self.im - d)

    def __rsub__(self, other):
        return GaussInt(other - self.re, -self.im)

    def __mul__(self, other):
        a, b, (c, d) = self.re, self.im, _parts(other)
        return GaussInt(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if type(other) not in (GaussInt, int):
            return NotImplemented
        return (self.re, self.im) == _parts(other)

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __divmod__(self, other):
        """(q, r) with self = q*other + r, q the quotient rounded to the
        nearest Gaussian integer: |r|^2 <= |other|^2 / 2, and r is zero
        exactly when other divides self."""
        c, d = _parts(other)
        n2 = 2 * (c * c + d * d)
        if not n2:
            raise ZeroDivisionError("Gaussian integer division by zero")
        qr = (2 * (self.re * c + self.im * d) + n2 // 2) // n2
        qi = (2 * (self.im * c - self.re * d) + n2 // 2) // n2
        return GaussInt(qr, qi), GaussInt(self.re - qr * c + qi * d, self.im - qr * d - qi * c)

    def __rdivmod__(self, other):
        return divmod(GaussInt(other), self)

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


_UNITS = (1, GaussInt(0, 1), -1, GaussInt(0, -1))


def _parts(z) -> tuple:
    """(re, im) of an int or Gaussian integer."""
    return (z.re, z.im) if type(z) is GaussInt else (z, 0)


def _gauss_fraction(x) -> tuple[int, int, int]:
    """(re, im, den) in integers with x = (re + i*im) / den and den > 0.

    ``x`` is an int, Fraction, float, complex or Gaussian integer, or a
    homogeneous pair (num, den) of such a num and a nonzero int den.
    """
    if isinstance(x, tuple):
        num, den = x
        re, im, w = _gauss_fraction(num)
        return (re, im, w * den) if den > 0 else (-re, -im, -w * den)
    if type(x) is GaussInt:
        return x.re, x.im, 1
    xr, xi = Fraction(x.real), Fraction(x.imag)
    w = math.lcm(xr.denominator, xi.denominator)
    return xr.numerator * (w // xr.denominator), xi.numerator * (w // xi.denominator), w


class Poly:
    """Dense univariate polynomial, coefficients ascending: ints or Gaussian
    integers."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "c", tuple(c))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        out = list(map(operator.sub, a, b))
        k = len(out)
        out += a[k:] if len(a) > k else [-z for z in b[k:]]
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        if not a or not b:
            return Poly(())
        out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    def eval_ints(self, x) -> tuple[int, int, int]:
        """(re, im, den) in integers with p(x) = (re + i*im) / den and den > 0,
        unreduced; x is any value ``_gauss_fraction`` takes."""
        return _hom_eval(self.int_form(), *_gauss_fraction(x))

    def int_form(self) -> list[tuple[int, int]]:
        """The (re, im) parts of the coefficients, ``[(0, 0)]`` for zero: the
        form ``_hom_eval`` evaluates; build it once to evaluate p often."""
        return [_parts(z) for z in self.c] or [(0, 0)]

    def derivative(self) -> "Poly":
        return Poly([k * z for k, z in enumerate(self.c)][1:])

    def complex_coefficients(self) -> tuple[complex, ...]:
        """Integer or Gaussian-integer coefficients as floats, jointly
        normalized by the largest magnitude (past the float range, after
        division by an exact power of two).  Non-real coefficients are first
        divided exactly by the leading one: the view of the monic polynomial
        over Q(i), whatever unit and content the canonical form carries."""
        if self.is_zero():
            return ()
        parts, den = [_parts(z) for z in self.c], 1
        if any(im for _, im in parts):
            lr, li = parts[-1]
            parts = [(re * lr + im * li, im * lr - re * li) for re, im in parts]
            den = lr * lr + li * li
        top = max(abs(x).bit_length() for p in parts for x in p)
        for d in (den, den << max(top - den.bit_length(), 0)):
            floats = [(_ratio_float(re, d), _ratio_float(im, d)) for re, im in parts]
            scale = max(math.hypot(*f) for f in floats)
            if not math.isinf(scale):
                break
        return tuple(complex(re / scale, im / scale) for re, im in floats)

    def __repr__(self):
        return f"Poly({list(self.c)})"


def _ratio_float(n: int, d: int) -> float:
    """float(Fraction(n, d)) for d > 0 without reducing the fraction
    (int/int true division rounds correctly); past the float range an
    infinity of n's sign instead of OverflowError."""
    try:
        return n / d
    except OverflowError:
        g = math.gcd(n, d)
        n, d = n // g, d // g
        shift = max(n.bit_length(), d.bit_length()) - 500
        if shift > 0:
            n >>= shift
            d >>= shift
        return n / d if d else math.copysign(math.inf, n)


# ---------------------------------------------------------------------------
# polynomials over Z and Z[i]: ascending lists of ints or Gaussian integers,
# last entry nonzero


def _gcd(*zs):
    """GCD of integers, or an associate of the GCD when a Gaussian integer
    is among them (Euclid with rounded quotients)."""
    try:
        return math.gcd(*zs)
    except TypeError:
        g = 0
        for z in zs:
            while z:
                g, z = z, divmod(g, z)[1]
        return g


def _unit(z):
    """The unit u (±1, ±i) with z / u in the canonical quadrant re > 0, im >= 0."""
    if type(z) is not GaussInt:
        return 1 if z > 0 else -1
    return next(u for u in _UNITS if (w := divmod(z, u)[0]).re > 0 and w.im >= 0)


def _primitive(f: list) -> list:
    """Primitive part, its leading coefficient in the canonical quadrant
    (over Z: positive)."""
    c = _gcd(*f)
    c = c * _unit(divmod(f[-1], c)[0])
    return [divmod(z, c)[0] for z in f]


def _exact_quo(f: list, g: list) -> list | None:
    """f / g over Z or Z[i] if g divides f exactly, else None."""
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return None if any(f) else []  # 0 = 0 * g
    rem = list(f)
    lead = g[-1]
    q = [0] * (len(f) - dg)
    for pos in range(len(q) - 1, -1, -1):
        k, r = divmod(rem[pos + dg], lead)
        if r:
            return None
        q[pos] = k
        if k:
            for i in range(dg):
                rem[pos + i] -= k * g[i]
    if any(rem[:dg]):
        return None
    return q


def _pack(f: list, k: int):
    """f(2^k)."""
    acc_r = acc_i = 0
    for z in reversed(f):
        re, im = _parts(z)
        acc_r = (acc_r << k) + re
        acc_i = (acc_i << k) + im
    return GaussInt(acc_r, acc_i) if acc_i else acc_r


def _unpack(v, k: int) -> list:
    """The polynomial whose coefficients' real and imaginary parts are the
    balanced base-2^k digits of v's, least significant first."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits: tuple[list[int], list[int]] = ([], [])
    for x, out in zip(_parts(v), digits):
        while x:
            d = x & mask
            if d > half:
                d -= 1 << k
            out.append(d)
            x = (x - d) >> k
    dr, di = digits
    return [GaussInt(a, b) for a, b in itertools.zip_longest(dr, di, fillvalue=0)] if di else dr


HEU_GCD_TRIES = 6


def _heu_gcd(f: list, g: list) -> tuple[list, list, list] | None:
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive polynomials over Z
    or Z[i].

    The candidate rebuilt from the balanced digits of gcd(f(xi), g(xi)) is
    the GCD once it divides both inputs, because xi = 2^k exceeds twice the
    larger coefficient modulus plus 2; the exact quotients come back with
    it (a candidate 1 returns the inputs, with no division).  After
    HEU_GCD_TRIES unlucky evaluation points it gives up and returns None.
    """
    k = (2 * max(abs(re) + abs(im) for re, im in map(_parts, f + g)) + 2).bit_length()
    for _ in range(HEU_GCD_TRIES):
        h = _primitive(_unpack(_gcd(_pack(f, k), _pack(g, k)), k))
        if h == [1]:
            return h, f, g
        qf = _exact_quo(f, h)
        if qf is not None:
            qg = _exact_quo(g, h)
            if qg is not None:
                return h, qf, qg
        k += k // 4 + 2
    return None


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b: lc(b)^(deg a - deg b + 1) * a mod b."""
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        r = [z * lead for z in r[:-1]]
        for i in range(db):
            r[shift + i] -= c * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def _prs_gcd(f: list, g: list) -> tuple[list, list, list]:
    """(h, f/h, g/h) as ``_heu_gcd`` returns them, h by the primitive PRS
    (Collins 1967); the fallback when GCDHEU gives up.  A ``g`` of higher
    degree than ``f`` comes back from ``_prem`` unchanged, which swaps them."""
    a, b = f, g
    while b:
        a, b = b, _prem(a, b)
        b = b and _primitive(b)
    h = _primitive(a)
    return h, _exact_quo(f, h), _exact_quo(g, h)


def _gcd_cofactors(f: list, g: list) -> tuple[list, list, list]:
    """(h, f/h, g/h) for nonzero polynomials over Z or Z[i], h in canonical
    form; the cofactors are exact quotients."""
    cf, cg = _gcd(*f), _gcd(*g)
    pf, pg = [divmod(z, cf)[0] for z in f], [divmod(z, cg)[0] for z in g]
    h, qf, qg = _heu_gcd(pf, pg) or _prs_gcd(pf, pg)
    return h, [cf * z for z in qf], [cg * z for z in qg]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD in the canonical form of ``primitive``: GCDHEU certified by exact
    division, with the primitive PRS as fallback."""
    if a.is_zero() or b.is_zero():
        return primitive(b if a.is_zero() else a)
    return Poly(_gcd_cofactors(a.c, b.c)[0])


def squarefree(p: Poly) -> Poly:
    """p / gcd(p, p'): the same roots, each simple."""
    return _exact_div(p, poly_gcd(p, p.derivative())) if p.degree > 0 else p


def normalize_pair(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Reduce a homogeneous polynomial pair: cancel the GCD, tame coefficients.

    The pair comes out jointly primitive over Z (over Z[i] for Gaussian
    inputs), with the leading coefficient of ``b`` (of ``a`` when ``b`` is
    zero) in the canonical quadrant: positive over Z.
    """
    if a.is_zero() and b.is_zero():
        return a, b
    f, g = a.c, b.c
    if len(f) > 1 and len(g) > 1:  # with a constant side only content is common
        _, f, g = _gcd_cofactors(f, g)
    fg = _primitive(f + g)
    return Poly(fg[:len(f)]), Poly(fg[len(f):])


def primitive(p: Poly) -> Poly:
    """Canonical form: primitive over Z or Z[i], the leading coefficient in
    the canonical quadrant re > 0, im >= 0 (over Z: positive)."""
    return Poly(_primitive(p.c)) if p.c else p


# ---------------------------------------------------------------------------
# chain iteration on polynomial vectors


PolyVec = tuple[Poly, Poly]


def _pv_bracket(u: PolyVec, v: PolyVec) -> Poly:
    return u[0] * v[1] - u[1] * v[0]


def _cancel(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) with h a GCD of f and g (up to a constant) and exact
    quotients; h is 1 when either polynomial is constant or zero.  When one
    divides the other, that one is h and no GCD is computed."""
    if f.degree < 1 or g.degree < 1:
        return Poly([1]), f, g
    q = _exact_div(f, g)
    if q is not None:
        return g, q, Poly([1])
    q = _exact_div(g, f) if g.degree > f.degree else None
    if q is not None:
        return f, Poly([1]), q
    h, qf, qg = _gcd_cofactors(list(f.c), list(g.c))
    return Poly(h), Poly(qf), Poly(qg)


def _exact_div(f: Poly, g: Poly) -> Poly | None:
    """f / g if g divides f exactly over Z or Z[i], else None."""
    q = _exact_quo(list(f.c), list(g.c))
    return None if q is None else Poly(q)


def chain_next_vector(window: Sequence[PolyVec], seams: Sequence[Poly]) -> PolyVec:
    """Next chain point from six consecutive ones, as a reduced polynomial pair.

    The points are pairs as ``normalize_pair`` returns them (integer or
    Gaussian-integer coefficients).  Of the factor gcd(c1, c2)*[q2q4] that
    bounds gcd(a, b) (see the module docstring), the brackets with a common
    centre carry the shared part: a chain through a doubled vertex or edge
    runs back on itself, so [q2q3] shares its roots with [q1q4] and [q3q4]
    with [q1q6].  Those two pairs are cancelled before the products are
    formed, and both components are divided by [q2q4] when it divides them
    exactly.  ``normalize_pair`` then removes whatever common factor is
    left, so the result is the reduced pair of the full six-bracket
    products, bit for bit.  ``seams`` are [q2q3], [q3q4], [q4q5], [q5q6],
    which the caller carries (see the module docstring).
    """
    q1, q2, q3, q4, q5, q6 = window
    p23, p34, p45, p56 = seams
    h1, b14, b23 = _cancel(_pv_bracket(q1, q4), p23)
    h2, b34, b16 = _cancel(p34, _pv_bracket(q1, q6))
    c1, c2 = b14 * b34 * p56, b16 * b23 * p45
    a, b = c1 * q2[0] - c2 * q4[0], c1 * q2[1] - c2 * q4[1]
    if a.is_zero() or b.is_zero():
        # normalize_pair cancels nothing in such a pair: restore the product
        h = h1 * h2
        return normalize_pair(a * h, b * h)
    p24 = _pv_bracket(q2, q4)
    if p24.degree > 0:
        p24 = primitive(p24)
        qa = _exact_div(a, p24)
        qb = _exact_div(b, p24) if qa is not None else None
        if qb is not None:
            a, b = qa, qb
    return normalize_pair(a, b)


def _round_div(n: int, d: int) -> int:
    """n / d rounded half to even, as ``round(Fraction(n, d))``; d > 0."""
    q, r = divmod(2 * n + d, 2 * d)
    return q - (not r and q & 1)


def _hom_eval(c: list[tuple[int, int]], xr: int, xi: int, w: int) -> tuple[int, int, int]:
    """``Poly.eval_ints`` at x = (xr + i*xi) / w from the ``int_form``: (re,
    im, w^deg), re + i*im = w^deg * p(x).  With w = m * 2^k the coefficient
    of x^(deg-j) enters as c * m^j << j*k, on the 2^-200 grid a shift."""
    k = (w & -w).bit_length() - 1
    m, mj, s = w >> k, 1, 0
    ar, ai = c[-1]
    for cr, ci in reversed(c[:-1]):
        mj, s = mj * m, s + k
        ar, ai = ar * xr - ai * xi + (cr * mj << s), ar * xi + ai * xr + (ci * mj << s)
    return ar, ai, mj << s


GRID_BITS = 200


def _newton_parts(p: Poly) -> tuple[list, list]:
    """The (re, im) integer coefficients of p and of its derivative, as
    ``exact_newton`` and ``_newton_quotient`` take them."""
    c = p.int_form()
    return c, [(k * zr, k * zi) for k, (zr, zi) in enumerate(c)][1:]


def _taylor_shift(c: list, mr: int, mi: int, bits: int) -> Poly:
    """2^(bits d) p(m + y), m = (mr + i mi) / 2^bits, from the ``int_form``
    of p: Horner's shift of R(u) = 2^(bits d) p(u / 2^bits) to u = 2^bits m
    + t, then t = 2^bits y."""
    d = len(c) - 1
    a = [[cr << bits * (d - j), ci << bits * (d - j)] for j, (cr, ci) in enumerate(c)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            (ar, ai), (br, bi) = a[j], a[j + 1]
            a[j] = [ar + br * mr - bi * mi, ai + br * mi + bi * mr]
    return Poly([GaussInt(ar << bits * j, ai << bits * j) for j, (ar, ai) in enumerate(a)])


def _newton_quotient(c: list, dc: list, xr: int, xi: int) -> tuple[int, int, int] | None:
    """The Newton step p/p' at x = (xr + i*xi) / 2^GRID_BITS, exactly, as
    (nr, ni, den) with p/p' = (nr + i*ni) / (den * 2^GRID_BITS) and den > 0:
    (0, 0, 1) where p vanishes, None where only p' does."""
    one = 1 << GRID_BITS
    fr, fi, _ = _hom_eval(c, xr, xi, one)
    if not (fr or fi):
        return 0, 0, 1
    dr, di, _ = _hom_eval(dc, xr, xi, one) if dc else (0, 0, 1)
    if fi or di:
        den = dr * dr + di * di
        return (fr * dr + fi * di, fi * dr - fr * di, den) if den else None
    if not dr:
        return None
    return (fr, 0, dr) if dr > 0 else (-fr, 0, -dr)


def exact_newton(p: Poly, seed: complex,
                 parts: tuple | None = None) -> tuple[tuple, complex, float]:
    """Polish a root with up to 16 Newton steps in exact arithmetic.

    The iterate is kept on the 2^-200 grid as an integer (or Gaussian
    integer) numerator; each step evaluates p and p' homogeneously in
    integers and rounds the new iterate half to even, so clustered roots
    separate far below double precision.  Returns the iterate as the
    homogeneous pair (numerator, 2^200), its complex value, and the length
    of the Newton step that led to it (0.0 when p vanishes at the iterate,
    inf when no step was taken).  ``parts`` is ``_newton_parts(p)`` when the
    caller has it already.
    """
    one = 1 << GRID_BITS
    c, dc = parts or _newton_parts(p)
    gaussian = seed.imag != 0 or any(zi for _, zi in c)
    # the seed on the grid; its imaginary part is 0 unless gaussian
    xr, xi = (_round_div(n * one, d) for n, d in (seed.real.as_integer_ratio(),
                                                    seed.imag.as_integer_ratio()))
    step = math.inf
    for _ in range(16):
        q = _newton_quotient(c, dc, xr, xi)
        if q is None:
            break
        nr, ni, den = q
        if not (nr or ni):
            step = 0.0
            break
        # the new numerator is round(x - (nr + i*ni) / den)
        xr = _round_div(xr * den - nr, den)
        if ni:
            xi = _round_div(xi * den - ni, den)
        step = math.hypot(_ratio_float(nr, den << GRID_BITS), _ratio_float(ni, den << GRID_BITS))
        if step < 1e-45:
            break
    num = GaussInt(xr, xi) if gaussian else xr
    return (num, one), complex(_ratio_float(xr, one), _ratio_float(xi, one)), step
