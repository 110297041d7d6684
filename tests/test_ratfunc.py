import random
from fractions import Fraction

import pytest

from torsioncalc.ratfunc import ONE, RF_ONE, RF_ZERO, Poly, RationalFunction


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over ``Fraction`` coefficients: the reference
    for the integer remainder sequence of ``Poly.gcd``."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.scale(Fraction(1, 1) / a.leading())


def _coeff(rng, fractional):
    if fractional and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-9, 9)


def _poly(rng, degree, fractional=False):
    lead = 0
    while lead == 0:
        lead = _coeff(rng, fractional)
    return Poly([_coeff(rng, fractional) for _ in range(degree)] + [lead])


def _pairs(seed):
    """(a, b) pairs: planted common factors, coprime-looking pairs,
    constants and the zero polynomial, with and without fractions."""
    rng = random.Random(seed)
    pairs = []
    for fractional in (False, True):
        for _ in range(12):
            common = _poly(rng, rng.randint(1, 3), fractional)
            a = common * _poly(rng, rng.randint(0, 4), fractional)
            b = common * _poly(rng, rng.randint(0, 4), fractional)
            pairs.append((a, b))
        for _ in range(6):
            pairs.append((_poly(rng, rng.randint(1, 5), fractional),
                          _poly(rng, rng.randint(1, 5), fractional)))
        p = _poly(rng, 3, fractional)
        pairs += [
            (p, Poly.constant(Fraction(3, 7))),
            (Poly.constant(-2), p),
            (p, Poly()),
            (Poly(), p),
            (p, p),
            (p, p.scale(Fraction(-5, 3))),
        ]
    pairs.append((Poly(), Poly()))
    # (t - 1)^2 (t + 2) and (t - 1)(t + 2)^2 share (t - 1)(t + 2)
    t = Poly.t()
    pairs.append(((t - ONE) * (t - ONE) * (t + ONE.scale(2)),
                  (t - ONE) * (t + ONE.scale(2)) * (t + ONE.scale(2))))
    return pairs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_gcd_matches_fraction_euclid(seed):
    for a, b in _pairs(seed):
        g = a.gcd(b)
        assert g == _euclid_gcd(a, b), (a, b)
        assert g.is_zero() or g.leading() == 1
        for p in (a, b):
            if not g.is_zero():
                assert p.divmod(g)[1].is_zero()


def test_planted_factor_divides_the_gcd():
    rng = random.Random(4)
    for _ in range(20):
        common = _poly(rng, rng.randint(1, 3), fractional=True)
        a = common * _poly(rng, 2, fractional=True)
        b = common * _poly(rng, 3, fractional=True)
        assert a.gcd(b).divmod(common)[1].is_zero()


def _rf(rng):
    return RationalFunction(_poly(rng, 2, True), _poly(rng, 2, True))


def test_zero_operands_short_circuit_to_canonical_values():
    rng = random.Random(5)
    for _ in range(10):
        x = _rf(rng)
        assert x + RF_ZERO is x
        assert RF_ZERO + x is x
        assert x + 0 is x
        assert x - RF_ZERO is x
        assert x * RF_ZERO is RF_ZERO
        assert RF_ZERO * x is RF_ZERO
        assert 0 * x is RF_ZERO
        minus = RF_ZERO - x
        assert minus == RationalFunction(-x.num, x.den)
        assert minus.den.leading() == 1
    assert RF_ZERO + RF_ZERO is RF_ZERO
    assert (RF_ZERO * RF_ZERO).den == ONE


def test_negation_and_constant_denominators_stay_canonical():
    rng = random.Random(6)
    for _ in range(10):
        x = _rf(rng)
        neg = -x
        assert (neg.num, neg.den) == (-x.num, x.den)
        assert (neg + x).is_zero()
        p = _poly(rng, 3, True)
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        r = RationalFunction(p, Poly.constant(c))
        assert r.den == ONE and r.num == p.scale(1 / c)
        assert r == RationalFunction(p.scale(2), Poly.constant(2 * c))
    assert RationalFunction(ONE) == RF_ONE
