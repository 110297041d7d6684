"""Exact univariate polynomials and rational functions over the rationals.

The cosmology metrics are built from polynomials of one variable t, but their
inverse metric components are 1/s_i(t); everything downstream of an inverse
therefore lives in the rational-function field implemented here.  Values are
canonical (reduced fraction, monic denominator), so equality is structural.

Reducing a quotient needs the gcd of numerator and denominator.  ``Poly.gcd``
clears denominators and runs a primitive remainder sequence on integer
coefficients: each step takes an integer pseudo-remainder and divides out its
content, so no ``Fraction`` is built until the result is made monic at the
end.  A quotient whose denominator is a constant needs no gcd at all, sums
and products with a zero operand return at once, and a product with a
nonzero constant only rescales the numerator.
"""

from __future__ import annotations

import math
from fractions import Fraction


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
    ints = [int(c * scale) for c in coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of ``a`` by ``b``, both
    integer coefficient lists with no trailing zeros and b nonzero."""
    a = list(a)
    db, lead_b = len(b) - 1, b[-1]
    while len(a) > db:
        lead_a, shift = a[-1], len(a) - 1 - db
        a = [lead_b * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= lead_a * c
        while a and a[-1] == 0:
            a.pop()
    return a


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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Poly":
        if factor == 0:
            return Poly()
        return Poly(tuple(factor * c for c in self.coeffs))

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        quot = [0] * max(0, len(rem) - dd)
        for k in range(len(rem) - dd - 1, -1, -1):
            q = Fraction(rem[k + dd], 1) / lead
            if q:
                quot[k] = q
                for i, c in enumerate(div):
                    rem[k + i] -= q * c
        return Poly(quot), Poly(rem)

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
        seq = [self, self.derivative()]
        while not seq[-1].is_zero():
            seq.append(-seq[-2].divmod(seq[-1])[1])
        seq.pop()

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
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")


ONE = Poly((1,))


class RationalFunction:
    """Reduced quotient of two polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), ONE
        else:
            if den.degree() > 0:  # a constant denominator shares no factor
                g = num.gcd(den)
                if g.degree() > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                inv = Fraction(1, 1) / lead
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.constant(Fraction(value)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.from_value(other))

    def __rsub__(self, other) -> "RationalFunction":
        return RationalFunction.from_value(other) - self

    def __neg__(self) -> "RationalFunction":
        # -num over the same monic den is already reduced
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        for c, f in ((other, self), (self, other)):
            if c.num.degree() == 0 and c.den == ONE:
                # a reduced quotient times a nonzero constant stays reduced
                # over the same monic denominator
                out = RationalFunction.__new__(RationalFunction)
                out.num, out.den = f.num * c.num, f.den
                return out
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction.from_value(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return RationalFunction.from_value(other) / self

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, t):
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return Fraction(self.num.evaluate(t), 1) / d

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction.from_value(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


RF_ZERO = RationalFunction(Poly())
RF_ONE = RationalFunction(ONE)
