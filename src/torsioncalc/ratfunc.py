"""Exact univariate polynomials and rational functions over the rationals.

The cosmology metrics are built from polynomials of one variable t, but their
inverse metric components are 1/s_i(t); everything downstream of an inverse
therefore lives in the rational-function field implemented here.  ``Poly``
keeps ``Fraction`` coefficients: it parses configs and feeds the quadrature
grid; its Sturm sequences run on integer coefficients.  ``RationalFunction``
keeps integer coefficients in a unique canonical form, so its arithmetic is
plain int products and equality is structural.  Its reductions take the gcd from ``Poly.gcd``, a
primitive remainder sequence on integer coefficients (Brown, JACM 1971), and
divide by it exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import format_polynomial


def _mul(a, b):
    """Schoolbook product of two coefficient sequences."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _add(a, b):
    """Sum of two coefficient sequences, trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _primitive(coeffs):
    """The integer polynomial with content 1 and a positive leading
    coefficient that is a rational multiple of ``coeffs`` (nonzero, no
    trailing zeros, int or Fraction entries)."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _pseudo_remainder(a, b):
    """A positive integer multiple of the remainder of ``a`` by ``b``, both
    integer coefficient lists with no trailing zeros and b nonzero.  Each
    step scales by |lead(b)|, so every sign of the remainder is kept."""
    a = list(a)
    db, lead_b = len(b) - 1, b[-1]
    scale, sign = abs(lead_b), 1 if lead_b > 0 else -1
    while len(a) > db:
        lead_a, shift = sign * a[-1], len(a) - 1 - db
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= lead_a * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _sturm_sequence(coeffs):
    """The Sturm sequence p, p', -rem(p, p'), ... of a nonzero polynomial as
    integer coefficient lists.  Scaled only by positive constants (a common
    denominator, |lead| in :func:`_pseudo_remainder`, a positive content),
    each member is a positive multiple of the one over the rationals, so it
    has the same signs."""
    scale = math.lcm(*(c.denominator for c in coeffs))
    seq = [[c.numerator * (scale // c.denominator) for c in coeffs]]
    d = [i * c for i, c in enumerate(seq[0]) if i]
    while d:
        seq.append(d)
        r = _pseudo_remainder(seq[-2], d)
        content = math.gcd(*r)
        d = [-c // content for c in r]
    return seq


class Poly:
    """Dense univariate polynomial, ascending coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _strip(Fraction(c) if not isinstance(c, (int, Fraction)) else c
                             for c in coeffs)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def t(cls) -> "Poly":
        return cls((0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(_mul(self.coeffs, other.coeffs))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Poly":
        if factor == 0:
            return Poly()
        return Poly(tuple(factor * c for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; the zero polynomial when both are
        zero.  Primitive remainder sequence on integer coefficients."""
        if self.is_zero() or other.is_zero():
            a = self if other.is_zero() else other
            if a.is_zero():
                return a
            return a.scale(Fraction(1, 1) / a.leading())
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        while len(b) > 1:  # if deg a < deg b, the first step swaps them
            r = _pseudo_remainder(a, b)
            if not r:
                return Poly(tuple(Fraction(c, b[-1]) for c in b))
            a, b = b, _primitive(r)
        return ONE  # the sequence reached a nonzero constant

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, t):
        total = 0
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def has_root_in(self, t0, t1) -> bool:
        """True iff the polynomial vanishes somewhere on the closed interval
        between ``t0`` and ``t1``; exact, no floats and no grid.

        The endpoints are tested directly.  Inside, the distinct real roots
        are counted with the Sturm sequence p, p', -rem(p, p'), ...: for
        endpoints that are not roots, the drop in sign variations from t0 to
        t1 is that count, whatever the multiplicities.
        """
        t0, t1 = sorted((Fraction(t0), Fraction(t1)))
        if self.is_zero() or self.evaluate(t0) == 0 or self.evaluate(t1) == 0:
            return True
        seq = [Poly(p) for p in _sturm_sequence(self.coeffs)]

        def variations(t):
            signs = [v > 0 for v in (p.evaluate(t) for p in seq) if v != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        return variations(t0) > variations(t1)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return format_polynomial(
            (c, "" if i == 0 else "t" if i == 1 else f"t^{i}")
            for i, c in enumerate(self.coeffs) if c
        )


ONE = Poly((1,))


def _exact_quotient(a, g):
    """a / g for integer coefficient lists, g primitive and dividing a: by
    Gauss's lemma every coefficient of the quotient is an integer."""
    a, dg, lead = list(a), len(g) - 1, g[-1]
    q = [0] * (len(a) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + dg] // lead
        for i, y in enumerate(g, k):
            a[i] -= c * y
    return q


def _gcd(a, b):
    """The primitive gcd of two integer coefficient sequences, from
    ``Poly.gcd``; a constant or zero on either side shares no factor."""
    if len(a) > 1 and len(b) > 1:
        g = Poly.gcd(Poly(a), Poly(b)).coeffs
        if len(g) > 1:
            return _primitive(g)
    return [1]


def _cancel(a, b):
    """``a`` and ``b`` divided by their gcd."""
    g = _gcd(a, b)
    if len(g) > 1:
        return _exact_quotient(a, g), _exact_quotient(b, g)
    return a, b


def _canonical(n, d):
    """The RationalFunction n/d for coprime integer coefficient sequences, d
    nonzero: the joint content divided out, signed so that lead(d) > 0."""
    if not n:
        d = (1,)
    c = math.gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    out = object.__new__(RationalFunction)
    out.n, out.d = tuple(x // c for x in n), tuple(x // c for x in d)
    return out


class RationalFunction:
    """Reduced quotient n/d of two integer polynomials in t, in canonical
    form: ``n`` and ``d`` are ascending coefficient tuples with no common
    polynomial factor, lead(d) > 0 and joint content 1; zero is ((), (1,)).
    The form is unique, so ``==`` and ``hash`` compare it directly.  ``num``
    and ``den`` are read-only ``Poly`` views with a monic denominator."""

    __slots__ = ("n", "d")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        scale = math.lcm(*(c.denominator for c in num.coeffs + den.coeffs))
        n, d = ([c.numerator * (scale // c.denominator) for c in p.coeffs] for p in (num, den))
        value = _canonical(*_cancel(n, d))
        self.n, self.d = value.n, value.d

    @classmethod
    def from_value(cls, value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.constant(Fraction(value)))

    @property
    def num(self) -> Poly:
        return Poly(tuple(Fraction(c, self.d[-1]) for c in self.n))

    @property
    def den(self) -> Poly:
        return Poly(tuple(Fraction(c, self.d[-1]) for c in self.d))

    def is_zero(self) -> bool:
        return not self.n

    def is_polynomial(self) -> bool:
        return len(self.d) == 1

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if not other.n:
            return self
        if not self.n:
            return other
        if self.d == other.d:
            return _canonical(*_cancel(_add(self.n, other.n), self.d))
        # Henrici: with g = gcd(d1, d2), the sum n1 (d2/g) + n2 (d1/g) over
        # (d1/g)(d2/g) g can share factors with g only
        g = _gcd(self.d, other.d)
        a, b = _exact_quotient(self.d, g), _exact_quotient(other.d, g)
        n, g = _cancel(_add(_mul(self.n, b), _mul(other.n, a)), g)
        return _canonical(n, _mul(_mul(a, b), g))

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.from_value(other))

    def __rsub__(self, other) -> "RationalFunction":
        return RationalFunction.from_value(other) - self

    def __neg__(self) -> "RationalFunction":
        out = object.__new__(RationalFunction)
        out.n, out.d = tuple(-c for c in self.n), self.d
        return out

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if not self.n or not other.n:
            return RF_ZERO
        # each numerator can share factors only with the other denominator
        (n1, d2), (n2, d1) = _cancel(self.n, other.d), _cancel(other.n, self.d)
        return _canonical(_mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if not other.n:
            raise ZeroDivisionError("division by the zero rational function")
        (n1, n2), (d2, d1) = _cancel(self.n, other.n), _cancel(other.d, self.d)
        return _canonical(_mul(n1, d2), _mul(d1, n2))

    def __rtruediv__(self, other) -> "RationalFunction":
        return RationalFunction.from_value(other) / self

    def derivative(self) -> "RationalFunction":
        n, d = self.n, self.d
        dn, dd = ([i * c for i, c in enumerate(p)][1:] for p in (n, d))
        return _canonical(*_cancel(_add(_mul(dn, d), _mul(n, [-c for c in dd])), _mul(d, d)))

    def evaluate(self, t):
        d = Poly(self.d).evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return Fraction(Poly(self.n).evaluate(t), 1) / d

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction.from_value(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __repr__(self) -> str:
        if len(self.d) == 1:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


RF_ZERO = RationalFunction(Poly())
RF_ONE = RationalFunction(ONE)
