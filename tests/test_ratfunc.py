import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsioncalc.ratfunc import ONE, RF_ONE, RF_ZERO, Poly, RationalFunction, _sturm_sequence

from oracles import FractionRationalFunction, poly_divmod, sturm_sequence_fraction


def _euclid_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over ``Fraction`` coefficients: the reference
    for the integer remainder sequence of ``Poly.gcd``."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
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
                assert poly_divmod(p, g)[1].is_zero()


def test_planted_factor_divides_the_gcd():
    rng = random.Random(4)
    for _ in range(20):
        common = _poly(rng, rng.randint(1, 3), fractional=True)
        a = common * _poly(rng, 2, fractional=True)
        b = common * _poly(rng, 3, fractional=True)
        assert poly_divmod(a.gcd(b), common)[1].is_zero()


def _variations(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_integer_sturm_sequence_matches_the_fraction_one():
    """Every member of the integer Sturm sequence is a positive multiple of
    the Fraction one, so both count the same roots.  Leads of either sign,
    repeated roots, a quadratic without real roots and endpoints on roots."""
    rng = random.Random(6)
    t = Poly.t()
    for _ in range(300):
        roots = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        roots += roots[: rng.randint(0, len(roots))]
        p = Poly((Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3)),))
        for r in roots:
            p = p * (t - Poly((r,)))
        if rng.random() < 0.5:
            p = p * (t * t + Poly((rng.randint(1, 5),)))
        ints, exact = _sturm_sequence(p.coeffs), sturm_sequence_fraction(p)
        assert len(ints) == len(exact), p
        for x, y in zip(ints, exact):
            ratio = x[-1] / y.leading()
            assert ratio > 0 and Poly(x) == y.scale(ratio), p
        ends = sorted(
            rng.choice(roots) if roots and rng.random() < 0.5
            else Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            for _ in range(2)
        )
        counts = [
            _variations(q.evaluate(ends[0]) for q in seq) - _variations(q.evaluate(ends[1]) for q in seq)
            for seq in ([Poly(x) for x in ints], exact)
        ]
        assert counts[0] == counts[1], (p, ends)
        assert p.has_root_in(*ends) is any(ends[0] <= r <= ends[1] for r in roots), (p, ends)


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


def test_constant_products_rescale_without_a_gcd(monkeypatch):
    rng = random.Random(7)
    pairs = []
    for _ in range(10):
        x = _rf(rng)
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        # the general path: multiply out, then reduce by the gcd
        pairs.append((x, c, RationalFunction(x.num.scale(c), x.den)))
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for x, c, expected in pairs:
        constant = RationalFunction(Poly.constant(c))
        for product in (x * c, c * x, x * constant, constant * x):
            assert product == expected
            assert product.den.leading() == 1
    assert RF_ONE * RF_ONE == RF_ONE
    assert not calls


# ---------------------------------------------------------------------------
# integer canonical form against the Fraction reference
# ---------------------------------------------------------------------------

_COEFFS = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
_LEADS = st.sampled_from([1, -1, 3, -2, Fraction(1, 2), Fraction(-5, 3)])
_SCALES = st.sampled_from([1, 2, -6, Fraction(4, 9), Fraction(-3, 2)])


@st.composite
def _polys(draw, max_degree=2):
    """Nonzero, with a leading coefficient that may be negative or a Fraction."""
    degree = draw(st.integers(0, max_degree))
    return Poly(draw(st.lists(_COEFFS, min_size=degree, max_size=degree)) + [draw(_LEADS)])


@st.composite
def _quotients(draw):
    """(num, den): a planted common factor (a constant one scales the
    content), a scale that makes the integer content greater than 1, and
    zero or constant numerators."""
    common, scale = draw(_polys(1)), draw(_SCALES)
    num = draw(st.one_of(st.just(Poly()), _polys(0), _polys()))
    return num * common * scale, draw(_polys()) * common * scale


_APPLY = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "neg": lambda x, y: -x,
    "d/dt": lambda x, y: x.derivative(),
    "* c": lambda x, y: x * Fraction(-3, 2),
    "c -": lambda x, y: 1 - x,
}
_POINTS = (0, 1, -1, Fraction(1, 3), Fraction(-5, 2))


def _value_at(x, t):
    try:
        return x.evaluate(t)
    except ZeroDivisionError:
        return "pole"


def _assert_canonical(x):
    """Coprime integer tuples, lead(d) > 0, joint content 1; zero is
    ((), (1,))."""
    n, d = x.n, x.d
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0 and (not n or n[-1])
    assert math.gcd(*n, *d) == 1
    assert _euclid_gcd(Poly(n), Poly(d)) == ONE


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_quotients(), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(sorted(_APPLY)), st.integers(0, 99),
                       st.integers(0, 99)), max_size=6),
)
def test_integer_form_matches_the_fraction_reference(operands, steps):
    pool = [(RationalFunction(n, d), FractionRationalFunction(n, d)) for n, d in operands]
    for op, i, j in steps:
        (x, rx), (y, ry) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "/" and y.is_zero():
            for a, b in ((x, y), (rx, ry)):
                with pytest.raises(ZeroDivisionError):
                    a / b
            continue
        pool.append((_APPLY[op](x, y), _APPLY[op](rx, ry)))
    for x, rx in pool:
        _assert_canonical(x)
        assert (x.num, x.den, repr(x)) == (rx.num, rx.den, repr(rx))
        assert x.is_polynomial() == rx.is_polynomial()
        assert [_value_at(x, t) for t in _POINTS] == [_value_at(rx, t) for t in _POINTS]
    for (x, rx), (y, ry) in itertools.product(pool, repeat=2):
        assert (x == y) == (rx == ry)
        assert x != y or hash(x) == hash(y)
    assert len({x for x, _ in pool}) == len({rx for _, rx in pool})


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys(1), _SCALES, _polys(1))
def test_scaled_inputs_give_one_canonical_value(num, den, common, scale, z):
    x = RationalFunction(num, den)
    _assert_canonical(x)
    for y in (
        RationalFunction(num * common * scale, den * common * scale),
        RationalFunction(-num, -den),
        x * z / z,
        x / z * z,
        x + z - z,
        RationalFunction(num.scale(Fraction(1, 2)), den.scale(Fraction(1, 2))),
    ):
        _assert_canonical(y)
        assert (y.n, y.d) == (x.n, x.d)
        assert y == x and hash(y) == hash(x)


def test_zero_and_constants_have_their_canonical_tuples():
    assert (RF_ZERO.n, RF_ZERO.d) == ((), (1,))
    assert (RF_ONE.n, RF_ONE.d) == ((1,), (1,))
    t = Poly.t()
    assert (RationalFunction(Poly(), t).n, RationalFunction(Poly(), t).d) == ((), (1,))
    half = RationalFunction.from_value(Fraction(-1, 2))
    assert (half.n, half.d) == ((-1,), (2,))
    x = RationalFunction(t.scale(Fraction(2, 3)), (t + ONE).scale(-4))
    assert (x.n, x.d) == ((0, -1), (6, 6))
    assert (x - x).n == () and (x - x).d == (1,)
