"""The Kronecker-packed product path of ``contract`` and
``covariant_derivative`` against the term-dict (``_fma_terms``) path."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsioncalc import algebra
from torsioncalc.algebra import ExponentOverflowError, ScalarField, TensorField, contract
from torsioncalc.connection import ALL_KINDS, ConnectionField, DerivKind, covariant_derivative
from torsioncalc.sampling import derive_rng, random_tensor_field

from conftest import make_instance

BIG = 2**62


@contextmanager
def products(path, forbid_term_dicts=False):
    """Run every product on one path: "dicts" (``_fma_terms``) or "packed"
    (whenever the coefficients are ints, whatever the cost estimate says).
    With ``forbid_term_dicts`` a product of two nonzero term dicts through
    ``_fma_terms`` fails the test."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "dicts":
            mp.setattr(algebra, "_kronecker_layout", lambda *args: None)
        else:
            mp.setattr(algebra, "_DICT_PRODUCT", 10**9)
        if forbid_term_dicts:

            def refuse(acc, ta, tb, sign=1):
                assert not (ta and tb), "a product took the term-dict path"

            mp.setattr(algebra, "_fma_terms", refuse)
        yield


def both_paths(fn, fractional):
    with products("dicts"):
        expected = fn()
    with products("packed", forbid_term_dicts=not fractional):
        got = fn()
    return got, expected


small = st.integers(-4, 4)
near_big = st.one_of(small.map(lambda d: BIG + d), small.map(lambda d: -BIG - d))
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def polynomials(dim, coefficients):
    exponents = st.tuples(*[st.integers(0, 2)] * dim)
    return st.dictionaries(exponents, coefficients, max_size=5).map(
        lambda terms: ScalarField.from_terms(terms, dim)
    )


def tensors(dim, valence, coefficients):
    count = dim ** sum(valence)
    drawn = st.lists(polynomials(dim, coefficients), min_size=count, max_size=count)
    return st.one_of(
        drawn.map(lambda entries: TensorField(dim, valence, entries)),
        st.just(TensorField.zero(dim, valence)),
    )


def coefficient_kinds(fractional):
    ints = st.one_of(small, near_big)
    return st.one_of(ints, fractions) if fractional else ints


# SWAR weights as algebra.nonzero_sums builds them: one signed
# member coefficient per 70-bit slot
swar = st.lists(small, min_size=2, max_size=17).map(
    lambda cs: sum(c << (70 * k) for k, c in enumerate(cs))
)
int_weights = st.one_of(st.sampled_from([1, -1]), small, swar)

# (spec, operand valences); every output is a (1, 1) tensor [i][j]
SPECS = (
    ("iA,Aj->ij", ((1, 1), (1, 1))),
    ("Aj,iA->ij", ((1, 1), (1, 1))),
    ("iAB,BjA->ij", ((1, 2), (1, 2))),
    ("i,j->ij", ((1, 0), (0, 1))),
    ("iA,jA->ij", ((1, 1), (1, 1))),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_contract_equals_term_dicts(data):
    dim = data.draw(st.sampled_from([2, 3, 4]), label="dim")
    fractional = data.draw(st.booleans(), label="fractional")
    coefficients = coefficient_kinds(fractional)
    weights = st.one_of(int_weights, fractions) if fractional else int_weights
    terms = []
    for _ in range(data.draw(st.integers(1, 3), label="terms")):
        spec, (vx, vy) = data.draw(st.sampled_from(SPECS))
        x = data.draw(tensors(dim, vx, coefficients))
        y = data.draw(tensors(dim, vy, coefficients))
        terms.append((data.draw(weights), spec, x, y))
    if data.draw(st.booleans(), label="single"):
        terms.append((data.draw(weights), "ji->ij", data.draw(tensors(dim, (1, 1), coefficients))))
    got, expected = both_paths(lambda: contract((1, 1), *terms), fractional)
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_covariant_derivative_equals_term_dicts(data):
    dim = data.draw(st.sampled_from([2, 3, 4]), label="dim")
    fractional = data.draw(st.booleans(), label="fractional")
    coefficients = coefficient_kinds(fractional)
    valence = data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 2)]), label="valence")
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    a = data.draw(tensors(dim, valence, coefficients), label="a")
    # even connection coefficients keep the symmetric part integral; odd
    # ones give it Fractions, which take the term-dict path
    L = ConnectionField(data.draw(tensors(dim, (1, 2), coefficients), label="L").scale(2))
    if kind is DerivKind.SYM and data.draw(st.booleans(), label="odd"):
        L = ConnectionField(L.coeffs.scale(Fraction(1, 2)))
        fractional = True
    got, expected = both_paths(lambda: covariant_derivative(kind, a, L), fractional)
    assert got == expected


@pytest.mark.parametrize("scale", [1, -(BIG + 3)])
def test_packed_products_in_dimension_six(scale):
    rng = derive_rng(61, f"dim6:{scale}")
    L = ConnectionField(random_tensor_field(rng, 6, (1, 2), degree=1).scale(2 * scale))
    a = random_tensor_field(rng, 6, (1, 1), degree=1)
    b = random_tensor_field(rng, 6, (1, 1), degree=1).scale(scale)
    for fn in (
        lambda: covariant_derivative(DerivKind.K1, a, L),
        lambda: contract((1, 1), (1, "iA,Aj->ij", a, b), (-(2**300) + 5, "Aj,iA->ij", b, a)),
    ):
        got, expected = both_paths(fn, fractional=False)
        assert got == expected
        assert not got.is_zero()


@pytest.mark.parametrize("k", [3, 63])
def test_coefficients_at_the_slot_bound_decode_exactly(k):
    # every product has the same sign, so each output coefficient reaches the
    # width bound exactly: 2 * 2^k * 2^k = 2^(2k+1), whose bit length 2k+2
    # is a whole number of bytes
    c = 2**k
    def constant(valence, value):
        count = 2 ** sum(valence)
        return TensorField(2, valence, [ScalarField.constant(value, 2)] * count)

    for sign in (1, -1):
        x, y = constant((1, 1), sign * c), constant((1, 1), c)
        got, expected = both_paths(lambda: contract((1, 1), (1, "iA,Aj->ij", x, y)), False)
        assert got == expected == constant((1, 1), sign * 2 * c * c)
        L = ConnectionField(constant((1, 2), sign * c))
        got, expected = both_paths(
            lambda: covariant_derivative(DerivKind.K1, constant((1, 0), c), L), False
        )
        assert got == expected == constant((1, 1), sign * 2 * c * c)


def test_catalogue_sized_products_are_packed_and_fractions_are_not():
    # no monkeypatched costs: the choice the estimate makes by itself
    L, a = make_instance(62, "packed-choice", 3, degree=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_fma_terms", lambda acc, ta, tb, sign=1: pytest.fail("term dicts"))
        d = covariant_derivative(DerivKind.SYM, a, L)
        covariant_derivative(DerivKind.SYM, d, L)
        contract((1, 3), (1, "Ajm,iAn->ijmn", L.torsion_half(), d))
    calls = []
    real = algebra._fma_terms
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_fma_terms", lambda *args: calls.append(1) or real(*args))
        covariant_derivative(DerivKind.SYM, a.scale(Fraction(1, 3)), L)
    assert calls


def test_covariant_derivative_checks_exponent_overflow():
    # the packed keys of a connection term would carry into the next slot
    def field(valence, e):
        count = 2 ** sum(valence)
        return TensorField(2, valence, [ScalarField.from_terms({(e, 0): 2}, 2)] * count)

    with pytest.raises(ExponentOverflowError, match="x0: exponents 100 \\+ 200"):
        covariant_derivative(DerivKind.K1, field((1, 0), 200), ConnectionField(field((1, 2), 100)))
    fits = covariant_derivative(DerivKind.K1, field((0, 1), 155), ConnectionField(field((1, 2), 100)))
    assert max(map(sum, fits.get(0, 0).terms())) == 255
