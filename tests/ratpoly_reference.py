"""Field-arithmetic references for the integer engine of ``poncelet.ratpoly``.

The engine runs on Z and Z[i] alone.  The routes it replaced are kept here
so that tests can recompute its results in exact field arithmetic over Q
and Q(i): the Gaussian rational ``GaussQ``, polynomial long division and
the monic field Euclid, evaluation by Horner's rule and Newton polishing
with the iterate rounded onto the 2^-200 grid.
"""

import math
from fractions import Fraction

from poncelet.ratpoly import GaussInt, Poly, primitive


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
        other = as_gauss(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gauss(other)
        return GaussQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gauss(other) - self

    def __mul__(self, other):
        other = as_gauss(other)
        return GaussQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gauss(other)
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
            other = as_gauss(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussQ({self.re}, {self.im})"


def as_gauss(x) -> GaussQ:
    if isinstance(x, GaussQ):
        return x
    if isinstance(x, GaussInt):
        return GaussQ(x.re, x.im)
    if isinstance(x, (int, Fraction)):
        return GaussQ(x, 0)
    if isinstance(x, float):
        return GaussQ(Fraction(x), 0)
    if isinstance(x, complex):
        return GaussQ.from_complex(x)
    raise TypeError(f"cannot convert {type(x).__name__} to GaussQ")


def field(p: Poly) -> Poly:
    """p over Q (Fraction coefficients) or Q(i) (GaussQ coefficients)."""
    if any(isinstance(z, (GaussInt, GaussQ)) for z in p.c):
        return Poly([as_gauss(z) for z in p.c])
    return Poly([Fraction(z) for z in p.c])


def field_value(x):
    """An exact scalar as a Fraction or GaussQ; a pair (num, den) is num/den."""
    if isinstance(x, tuple):
        return field_value(x[0]) / x[1]
    if isinstance(x, (GaussInt, GaussQ, complex)):
        return as_gauss(x)
    return Fraction(x)


def field_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division over the coefficient field."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(field(a).c)
    d = field(b).c
    dd = len(d) - 1
    q = [Fraction(0)] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        k = rem[-1] / d[-1]
        pos = len(rem) - 1 - dd
        q[pos] = k
        for i in range(len(d)):
            rem[pos + i] = rem[pos + i] - k * d[i]
        rem.pop()
    return Poly(q), Poly(rem)


def monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    p = field(p)
    lead = p.c[-1]
    return Poly([z / lead for z in p.c])


def field_gcd(a: Poly, b: Poly) -> Poly:
    """Monic GCD over the coefficient field (Euclid with monic remainders)."""
    a, b = monic(a), monic(b)
    while not b.is_zero():
        a, b = b, monic(field_divmod(a, b)[1])
    return a


def canonical(p: Poly) -> Poly:
    """A field polynomial scaled to Z or Z[i] (a ``GaussInt`` only where the
    imaginary part is nonzero, as the engine keeps it), in ``primitive``'s
    canonical form: equal canonical forms mean proportional polynomials."""
    c = [as_gauss(z) for z in field(p).c]
    den = math.lcm(*(f.denominator for z in c for f in (z.re, z.im)))
    return primitive(Poly([GaussInt(int(z.re * den), int(z.im * den)) if z.im else int(z.re * den)
                           for z in c]))


def horner(p: Poly, x):
    acc = x * 0
    for z in reversed(field(p).c):
        acc = acc * x + z
    return acc


def reference_newton(p, seed, steps=16, bits=200):
    """Newton polishing in Fraction/GaussQ field arithmetic, with the iterate
    rounded half to even onto the 2^-bits grid after every step."""
    one = 1 << bits
    p = field(p)

    def rnd(x):
        if isinstance(x, GaussQ):
            return GaussQ(Fraction(round(x.re * one), one), Fraction(round(x.im * one), one))
        return Fraction(round(x * one), one)

    gaussian = isinstance(p.c[0], GaussQ) or abs(seed.imag) > 0
    x = rnd(GaussQ.from_complex(seed) if gaussian else Fraction(seed.real))
    dp = p.derivative()
    for _ in range(steps):
        fx = horner(p, x)
        if not fx:
            break
        dx = horner(dp, x)
        if not dx:
            break
        step = fx / dx
        x = rnd(x - step)
        if isinstance(step, GaussQ):
            mag = math.hypot(float(step.re), float(step.im))
        else:
            mag = abs(float(step))
        if mag < 1e-45:
            break
    return x
