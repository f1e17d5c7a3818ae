"""Exact univariate polynomial arithmetic over Q and Q(i).

Engine behind the closure polynomials: chain points are carried as pairs
(numerator, denominator) of polynomials in the coordinate of the unknown
point, with a polynomial-GCD reduction after every step so that degrees
match the reduced rational functions.  On the rational path every reduced
pair has primitive integer coefficients (plain Python ints), the GCD is the
heuristic GCDHEU certified by exact division, and roots are polished by
Newton steps in integer fixed point.  Floating inputs are converted to
exact dyadic rationals, so there is a single exact code path; complex
inputs use Gaussian rationals and the field Euclid.

The chain step knows most of its common factor in advance.  With
c1 = [q1q4][q3q4][q5q6] and c2 = [q1q6][q2q3][q4q5] the next point is
a = c1*q2[0] - c2*q4[0], b = c1*q2[1] - c2*q4[1], and the identities

    a*q4[1] - b*q4[0] = c1*[q2q4],    a*q2[1] - b*q2[0] = c2*[q2q4]

show that gcd(a, b) divides gcd(c1, c2)*[q2q4].  ``chain_next_vector``
cancels the shared bracket factors before it multiplies and divides by
[q2q4] where that divides exactly.  ``normalize_pair`` stays the
certificate: it removes whatever common factor is left, so the reduced
pair is the same as from the full products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence, Union


class GaussQ:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussQ is immutable")

    @classmethod
    def from_complex(cls, z: complex) -> "GaussQ":
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        other = _as_gauss(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        return GaussQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gauss(other) - self

    def __mul__(self, other):
        other = _as_gauss(other)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussQ")
        return GaussQ(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = _as_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussQ({self.re}, {self.im})"


def _as_gauss(x) -> GaussQ:
    if isinstance(x, GaussQ):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussQ(x, 0)
    if isinstance(x, float):
        return GaussQ(Fraction(x), 0)
    if isinstance(x, complex):
        return GaussQ.from_complex(x)
    raise TypeError(f"cannot convert {type(x).__name__} to GaussQ")


Coeff = Union[int, Fraction, GaussQ]


def exact_scalar(z, gaussian: bool) -> Coeff:
    """Exact field element from an int/float/complex value."""
    if gaussian:
        return _as_gauss(z)
    if isinstance(z, complex):
        if z.imag != 0:
            raise ValueError("complex value in a rational-only context")
        z = z.real
    return Fraction(z)


def _quo(a: Coeff, b: Coeff) -> Coeff:
    """Exact field quotient; a quotient of ints stays an int when exact."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return a / b


class Poly:
    """Dense univariate polynomial, coefficients ascending, exact field
    (ints, Fractions or GaussQ)."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence[Coeff]):
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

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, z in enumerate(b):
            out[i] = out[i] + z
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        out = list(map(operator.sub, a, b))
        k = len(out)
        out += a[k:] if len(a) > k else [-z for z in b[k:]]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-z for z in self.c])

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

    def scale(self, k: Coeff) -> "Poly":
        return Poly([z * k for z in self.c])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        d = other.c
        dd = len(d) - 1
        lead = d[-1]
        q = [self.c[0] * 0 if self.c else Fraction(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = _quo(rem[-1], lead)
            pos = len(rem) - 1 - dd
            q[pos] = k
            for i in range(len(d)):
                rem[pos + i] = rem[pos + i] - k * d[i]
            rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.c[-1]
        return Poly([_quo(z, lead) for z in self.c])

    def eval_exact(self, x: Coeff) -> Coeff:
        """Exact value at x (Fraction, or GaussQ on the Gaussian path), from one
        homogeneous evaluation in integers."""
        hr, hi, den = self.eval_ints(x)
        if isinstance(x, (GaussQ, complex)) or _is_gauss(self):
            return GaussQ(Fraction(hr, den), Fraction(hi, den))
        return Fraction(hr, den)

    def eval_ints(self, x: Coeff) -> tuple[int, int, int]:
        """(re, im, den) in integers with p(x) = (re + i*im) / den and den > 0,
        unreduced; x is an int, Fraction, GaussQ or complex."""
        if self.is_zero():
            return 0, 0, 1
        xr, xi = (x.re, x.im) if isinstance(x, GaussQ) else (Fraction(x.real), Fraction(x.imag))
        w = math.lcm(xr.denominator, xi.denominator)
        c, den = _gauss_ints(self)
        hr, hi = _hom_eval(c, xr.numerator * (w // xr.denominator),
                           xi.numerator * (w // xi.denominator), w)
        return hr, hi, den * w ** self.degree

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly(())
        return Poly([k * z for k, z in enumerate(self.c)][1:])

    def complex_coefficients(self) -> tuple[complex, ...]:
        """Coefficients as floats, jointly normalized by the largest magnitude
        (past the float range, after division by an exact power of two)."""
        if self.is_zero():
            return ()
        c = self.c
        scale = max(_coeff_norm(z) for z in c)
        if math.isinf(scale):
            parts = [f for z in c for f in ((z.re, z.im) if isinstance(z, GaussQ) else (z,))]
            shift = max(f.numerator.bit_length() - f.denominator.bit_length() for f in parts)
            c = [_quo(z, 1 << shift) for z in c]
            scale = max(_coeff_norm(z) for z in c)
        return tuple(_coeff_to_complex(z, scale) for z in c)

    def __repr__(self):
        return f"Poly({list(self.c)})"


def _coeff_norm(z: Coeff) -> float:
    if isinstance(z, GaussQ):
        return math.hypot(_frac_to_float(z.re), _frac_to_float(z.im))
    return abs(_frac_to_float(z))


def _frac_to_float(f: Fraction | int) -> float:
    try:
        return float(f)
    except OverflowError:
        # huge integers: fall back to a scaled conversion
        n, d = f.numerator, f.denominator
        shift = max(n.bit_length(), d.bit_length()) - 500
        if shift > 0:
            n >>= shift
            d >>= shift
        return n / d if d else math.copysign(math.inf, n)


def to_complex(z: Coeff) -> complex:
    """Complex value of an exact scalar; magnitudes past the float range
    become infinities instead of raising OverflowError."""
    if isinstance(z, GaussQ):
        return complex(_frac_to_float(z.re), _frac_to_float(z.im))
    if isinstance(z, (int, Fraction)):
        return complex(_frac_to_float(z), 0.0)
    return complex(z)


def _coeff_to_complex(z: Coeff, scale: float) -> complex:
    if isinstance(z, GaussQ):
        return complex(_frac_to_float(z.re) / scale, _frac_to_float(z.im) / scale)
    return complex(_frac_to_float(z) / scale, 0.0)


def _is_gauss(p: Poly) -> bool:
    return GaussQ in map(type, p.c)


def _field_gcd(a: Poly, b: Poly) -> Poly:
    """Monic GCD over the coefficient field (Euclid with monic remainders)."""
    a, b = a.monic() if not a.is_zero() else a, b.monic() if not b.is_zero() else b
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# integer polynomials: ascending lists of Python ints, last entry nonzero


def _integral(*coeff_lists: Sequence) -> list[list[int]]:
    """Rational coefficient lists jointly scaled by their common denominator."""
    den = math.lcm(*(z.denominator for c in coeff_lists for z in c))
    return [[z.numerator * (den // z.denominator) for z in c] for c in coeff_lists]


def _primitive_ints(f: list[int]) -> list[int]:
    """Primitive part with a positive leading coefficient."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [z // c for z in f]


def _exact_quo(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x] if g divides f exactly, else None."""
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return None
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


def _pack(f: list[int], k: int) -> int:
    """f(2^k)."""
    acc = 0
    for z in reversed(f):
        acc = (acc << k) + z
    return acc


def _unpack(v: int, k: int) -> list[int]:
    """Balanced base-2^k digits of v, least significant first."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    while v:
        d = v & mask
        if d > half:
            d -= 1 << k
        out.append(d)
        v = (v - d) >> k
    return out


HEU_GCD_TRIES = 6


def _heu_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]] | None:
    """GCDHEU (Char, Geddes & Gonnet 1989) on primitive integer polynomials.

    The candidate rebuilt from the balanced digits of gcd(f(xi), g(xi)) is
    the GCD once it divides both inputs, because xi = 2^k exceeds twice the
    larger coefficient norm plus 2; the exact quotients come back with it.
    After HEU_GCD_TRIES unlucky evaluation points it gives up and returns
    None.
    """
    k = (2 * max(max(map(abs, f)), max(map(abs, g))) + 2).bit_length()
    for _ in range(HEU_GCD_TRIES):
        h = _primitive_ints(_unpack(math.gcd(_pack(f, k), _pack(g, k)), k))
        qf = _exact_quo(f, h)
        if qf is not None:
            qg = _exact_quo(g, h)
            if qg is not None:
                return h, qf, qg
        k += k // 4 + 2
    return None


def _gcd_cofactors(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for nonzero integer polynomials, h primitive with a
    positive leading coefficient; the cofactors are exact integer quotients."""
    cf, cg = math.gcd(*f), math.gcd(*g)
    pf, pg = [z // cf for z in f], [z // cg for z in g]
    found = _heu_gcd(pf, pg)
    if found is None:
        h = list(primitive(_field_gcd(Poly(pf), Poly(pg))).c)
        found = h, _exact_quo(pf, h), _exact_quo(pg, h)
    h, qf, qg = found
    return h, [cf * z for z in qf], [cg * z for z in qg]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD in the canonical form of ``primitive``.

    Rational inputs run GCDHEU on integer coefficients, certified by exact
    division, with the field Euclid as fallback; Gaussian inputs use the
    field Euclid alone.
    """
    if a.is_zero() or b.is_zero() or _is_gauss(a) or _is_gauss(b):
        return primitive(_field_gcd(a, b))
    (f,), (g,) = _integral(a.c), _integral(b.c)
    return Poly(_gcd_cofactors(f, g)[0])


def normalize_pair(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Reduce a homogeneous polynomial pair: cancel the GCD, tame coefficients.

    Rational pairs come out as jointly primitive integer polynomials with the
    leading coefficient of ``b`` (of ``a`` when ``b`` is zero) positive;
    Gaussian pairs come out with that coefficient equal to 1.
    """
    if a.is_zero() and b.is_zero():
        return a, b
    if _is_gauss(a) or _is_gauss(b):
        if not a.is_zero() and not b.is_zero():
            g = _field_gcd(a, b)
            if g.degree > 0:
                a = a // g
                b = b // g
        lead = (b if not b.is_zero() else a).c[-1]
        return a.scale(GaussQ(1) / lead), b.scale(GaussQ(1) / lead)
    f, g = _integral(a.c, b.c)
    if f and g:
        _, f, g = _gcd_cofactors(f, g)
    k = math.gcd(*f, *g)
    if (g or f)[-1] < 0:
        k = -k
    return Poly([z // k for z in f]), Poly([z // k for z in g])


def primitive(p: Poly) -> Poly:
    """Canonical form: integer primitive with positive leading coefficient
    (rational case) or monic (Gaussian case)."""
    if p.is_zero():
        return p
    if _is_gauss(p):
        return p.monic()
    (f,) = _integral(p.c)
    return Poly(_primitive_ints(f))


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
    if g.degree <= f.degree:
        q = _exact_div(f, g)
        if q is not None:
            return g, q, Poly([1])
    else:
        q = _exact_div(g, f)
        if q is not None:
            return f, Poly([1]), q
    if _is_gauss(f) or _is_gauss(g):
        h = _field_gcd(f, g)
        return h, f // h, g // h
    h, qf, qg = _gcd_cofactors(list(f.c), list(g.c))
    return Poly(h), Poly(qf), Poly(qg)


def _exact_div(f: Poly, g: Poly) -> Poly | None:
    """f / g if g divides f exactly, else None."""
    if _is_gauss(f) or _is_gauss(g):
        q, r = f.divmod(g)
        return q if r.is_zero() else None
    q = _exact_quo(list(f.c), list(g.c))
    return None if q is None else Poly(q)


def chain_next_vector(window: Sequence[PolyVec]) -> PolyVec:
    """Next chain point from six consecutive ones, as a reduced polynomial pair.

    The points are pairs as ``normalize_pair`` returns them (integer or
    Gaussian coefficients).  Of the factor gcd(c1, c2)*[q2q4] that bounds
    gcd(a, b) (see the module docstring), the brackets with a common centre
    carry the shared part: a chain through a doubled vertex or edge runs
    back on itself, so [q2q3] shares its roots with [q1q4] and [q3q4] with
    [q1q6].  Those two pairs are cancelled before the products are formed,
    and both components are divided by [q2q4] when it divides them exactly.
    ``normalize_pair`` then removes whatever common factor is left, so the
    result is the reduced pair of the full six-bracket products, bit for bit.
    """
    q1, q2, q3, q4, q5, q6 = window
    h1, b14, b23 = _cancel(_pv_bracket(q1, q4), _pv_bracket(q2, q3))
    h2, b34, b16 = _cancel(_pv_bracket(q3, q4), _pv_bracket(q1, q6))
    c1 = b14 * b34 * _pv_bracket(q5, q6)
    c2 = b16 * b23 * _pv_bracket(q4, q5)
    a = c1 * q2[0] - c2 * q4[0]
    b = c1 * q2[1] - c2 * q4[1]
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


def constant_vector(x, gaussian: bool) -> PolyVec:
    """Constant chain point from a homogeneous coordinate pair or affine value."""
    if isinstance(x, tuple):
        a, b = x
    else:
        a, b = x, 1
    return Poly([exact_scalar(a, gaussian)]), Poly([exact_scalar(b, gaussian)])


def variable_vector(gaussian: bool) -> PolyVec:
    one = exact_scalar(1, gaussian)
    zero = exact_scalar(0, gaussian)
    return Poly([zero, one]), Poly([one])


def _round_div(n: int, d: int) -> int:
    """n / d rounded half to even, as ``round(Fraction(n, d))``; d > 0."""
    q, r = divmod(n, d)
    r2 = 2 * r
    if r2 > d or (r2 == d and q & 1):
        q += 1
    return q


def _ratio_float(n: int, d: int) -> float:
    """float(Fraction(n, d)), with _frac_to_float's overflow rule, without
    reducing the fraction: int/int true division rounds correctly."""
    try:
        return n / d
    except OverflowError:
        return _frac_to_float(Fraction(n, d))


def _gauss_ints(p: Poly) -> tuple[list[tuple[int, int]], int]:
    """Coefficients as Gaussian-integer pairs times their common denominator,
    and that denominator."""
    parts = [x for z in p.c for x in ((z.re, z.im) if isinstance(z, GaussQ) else (z, 0))]
    den = math.lcm(*(x.denominator for x in parts))
    flat = [x.numerator * (den // x.denominator) for x in parts]
    return list(zip(flat[0::2], flat[1::2])), den


def _hom_eval(c: list[tuple[int, int]], xr: int, xi: int, w: int) -> tuple[int, int]:
    """w^deg * p(x) at x = (xr + i*xi) / w, exactly in Gaussian integers."""
    ar, ai = c[-1]
    wk = 1
    for cr, ci in reversed(c[:-1]):
        wk *= w
        ar, ai = ar * xr - ai * xi + cr * wk, ar * xi + ai * xr + ci * wk
    return ar, ai


def exact_newton(p: Poly, seed: complex) -> tuple[Coeff, complex]:
    """Polish a root with up to 16 Newton steps in exact arithmetic.

    The iterate is kept on the 2^-200 grid as an integer (or Gaussian
    integer) numerator; each step evaluates p and p' homogeneously in
    integers and rounds the new iterate half to even, so clustered roots
    separate far below double precision.  Returns both the exact iterate and
    its complex value.
    """
    gaussian = isinstance(p.c[0], GaussQ) or abs(seed.imag) > 0
    bits = 200
    one = 1 << bits
    xr = round(Fraction(seed.real) * one)
    xi = round(Fraction(seed.imag) * one) if gaussian else 0
    c, _ = _gauss_ints(p)
    dc = [(k * zr, k * zi) for k, (zr, zi) in enumerate(c)][1:]
    for _ in range(16):
        fr, fi = _hom_eval(c, xr, xi, one)
        if not (fr or fi):
            break
        dr, di = _hom_eval(dc, xr, xi, one) if dc else (0, 0)
        if not (dr or di):
            break
        # step = f / (d * 2^bits); the new numerator is round(x - f / d)
        if gaussian:
            den = dr * dr + di * di
            nr, ni = fr * dr + fi * di, fi * dr - fr * di
            xr = _round_div(xr * den - nr, den)
            xi = _round_div(xi * den - ni, den)
            mag = math.hypot(_ratio_float(nr, den << bits), _ratio_float(ni, den << bits))
        else:
            if dr < 0:
                fr, dr = -fr, -dr
            xr = _round_div(xr * dr - fr, dr)
            mag = abs(_ratio_float(fr, dr << bits))
        if mag < 1e-45:
            break
    x: Coeff = GaussQ(Fraction(xr, one), Fraction(xi, one)) if gaussian else Fraction(xr, one)
    return x, to_complex(x)
