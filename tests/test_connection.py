from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsioncalc.algebra import ScalarField, TensorField, contract
from torsioncalc.connection import (
    ALL_KINDS,
    DEPENDENT_TRIPLES,
    INDEPENDENT_TRIPLES,
    KIND_BY_NUMBER,
    ConnectionField,
    DerivKind,
    covariant_derivative,
    derivative_kind_rank,
    derivative_relations,
)
from torsioncalc.sampling import derive_rng, random_connection, random_tensor_field

from conftest import make_instance
from oracles import (
    covariant_derivative_entrywise,
    double_covariant_derivative_explicit,
    kronecker_delta,
    random_symmetric_connection,
)

HALF = Fraction(1, 2)

# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_symmetric_has_zero_torsion():
    L = random_symmetric_connection(derive_rng(1, "dec"), 3)
    sym, tor = L.symmetric_part(), L.torsion_half()
    assert tor.is_zero()
    assert sym.coeffs == L.coeffs


def test_decompose_single_entry():
    # one nonzero coefficient splits into half symmetric, half antisymmetric
    entries = [ScalarField(3)] * 27
    entries = list(entries)
    one = ScalarField.constant(1, 3)
    entries[(1 * 3 + 2) * 3 + 0] = one  # L^1_{20} in 0-based slots
    L = ConnectionField(TensorField(3, (1, 2), entries))
    sym, tor = L.symmetric_part(), L.torsion_half()
    assert sym.coeffs.get(1, 2, 0) == ScalarField.constant(HALF, 3)
    assert sym.coeffs.get(1, 0, 2) == ScalarField.constant(HALF, 3)
    assert tor.get(1, 2, 0) == ScalarField.constant(HALF, 3)
    assert tor.get(1, 0, 2) == ScalarField.constant(-HALF, 3)


def test_decompose_round_trip():
    rng = derive_rng(2, "roundtrip")
    for _ in range(50):
        L = random_connection(rng, 3, degree=1)
        sym, tor = L.symmetric_part(), L.torsion_half()
        assert sym.coeffs + tor == L.coeffs
        assert sym.coeffs.swap_last_lower() == sym.coeffs
        assert tor.swap_last_lower() == -tor


# ---------------------------------------------------------------------------
# covariant derivative
# ---------------------------------------------------------------------------


ORACLE_VALENCES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    valence=st.sampled_from(ORACLE_VALENCES),
    dim=st.integers(1, 4),
    fractional=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_covariant_derivative_matches_entrywise_oracle(kind, valence, dim, fractional, seed):
    rng = derive_rng(seed, "entrywise")
    # degree 1 above dim 2 keeps the oracle's ScalarField products cheap
    degree = 2 if dim <= 2 else 1
    L = random_connection(rng, dim, degree)
    a = random_tensor_field(rng, dim, valence, degree)
    if fractional:
        # odd coefficients give the symmetric and antisymmetric parts halves
        a = a.scale(Fraction(1, 3))
    else:
        L = ConnectionField(L.coeffs.scale(2))
    assert covariant_derivative(kind, a, L) == covariant_derivative_entrywise(kind, a, L)


@pytest.mark.parametrize("valence", ORACLE_VALENCES)
def test_covariant_derivative_entries_are_the_oracles_entries(valence):
    rng = derive_rng(15, f"entries:{valence}")
    dim = 3
    L = random_connection(rng, dim, 1)
    a = random_tensor_field(rng, dim, valence, 1)
    for kind in ALL_KINDS:
        full = covariant_derivative_entrywise(kind, a, L).entries
        count = len(full)
        for start, stop in ((0, count), (0, dim), (count - dim, count), (1, count - 1)):
            part = covariant_derivative(kind, a, L, entries=range(start, stop))
            assert part == full[start:stop], (kind, start, stop)


def test_valence_past_the_alphabet_is_accepted():
    # rank 30 needs more index letters than a-z; dimension 1 keeps it to one entry
    rng = derive_rng(14, "long-valence")
    L = random_connection(rng, 1, degree=2)
    a = random_tensor_field(rng, 1, (13, 17), degree=3)
    for kind in ALL_KINDS:
        got = covariant_derivative(kind, a, L)
        assert got.valence == (13, 18)
        assert got == covariant_derivative_entrywise(kind, a, L)
        assert not got.is_zero()


def test_zero_connection_reduces_to_partials():
    rng = derive_rng(3, "zeroL")
    a = random_tensor_field(rng, 3, (1, 1))
    L = ConnectionField.zero(3)
    grad = a.partial_gradient()
    for kind in ALL_KINDS:
        assert covariant_derivative(kind, a, L) == grad


def test_kronecker_rule1_vanishes():
    L = random_connection(derive_rng(4, "delta"), 3)
    delta = kronecker_delta(3)
    assert covariant_derivative(DerivKind.K1, delta, L).is_zero()


def test_kronecker_rule3_gives_torsion():
    L = random_connection(derive_rng(5, "delta3"), 3)
    delta = kronecker_delta(3)
    assert covariant_derivative(DerivKind.K3, delta, L) == L.torsion_half().scale(2)


def test_dimension_mismatch():
    a = random_tensor_field(derive_rng(6, "dm"), 2, (1, 1))
    L = ConnectionField.zero(3)
    with pytest.raises(ValueError):
        covariant_derivative(DerivKind.SYM, a, L)


def test_linearity():
    rng = derive_rng(7, "lin")
    L = random_connection(rng, 2)
    a = random_tensor_field(rng, 2, (1, 1))
    b = random_tensor_field(rng, 2, (1, 1))
    for kind in ALL_KINDS:
        left = covariant_derivative(kind, a + b.scale(3), L)
        right = covariant_derivative(kind, a, L) + covariant_derivative(kind, b, L).scale(3)
        assert left == right


def test_product_rule_mixed_valence():
    # derivative of a (1,1) x (0,1) product obeys the Leibniz rule
    rng = derive_rng(8, "leibniz")
    L = random_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    b = random_tensor_field(rng, 2, (0, 1), degree=1)
    c = contract((1, 2), (1, "ij,l->ijl", a, b))  # lower index order (j, l)
    for kind in ALL_KINDS:
        dc = covariant_derivative(kind, c, L)  # indices (i; j, l, k)
        da = covariant_derivative(kind, a, L)  # (i; j, k)
        db = covariant_derivative(kind, b, L)  # (l, k)
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    for k in range(2):
                        expected = da.get(i, j, k) * b.get(l) + a.get(i, j) * db.get(l, k)
                        assert dc.get(i, j, l, k) == expected


def test_symmetric_rule_is_average_of_pairs():
    rng = derive_rng(9, "avg")
    L = random_connection(rng, 3)
    a = random_tensor_field(rng, 3, (1, 1))
    ds = covariant_derivative(DerivKind.SYM, a, L)
    d1 = covariant_derivative(DerivKind.K1, a, L)
    d2 = covariant_derivative(DerivKind.K2, a, L)
    d3 = covariant_derivative(DerivKind.K3, a, L)
    d4 = covariant_derivative(DerivKind.K4, a, L)
    assert ds == (d1 + d2).scale(HALF)
    assert ds == (d3 + d4).scale(HALF)


def test_relations_hold_on_seeded_instances():
    for dim in (2, 3):
        for idx in range(3):
            L, a = make_instance(77, f"rel:{dim}:{idx}", dim, even=False)
            for tag, terms in derivative_relations(L, a):
                assert contract((1, 2), *terms).is_zero(), tag


def test_relations_trivial_for_symmetric_connection():
    rng = derive_rng(10, "symrel")
    L = random_symmetric_connection(rng, 2)
    a = random_tensor_field(rng, 2, (1, 1))
    derivs = {k: covariant_derivative(k, a, L) for k in ALL_KINDS}
    baseline = derivs[DerivKind.SYM]
    for kind in ALL_KINDS:
        assert derivs[kind] == baseline  # all rules coincide, so all relations do


# ---------------------------------------------------------------------------
# rule independence
# ---------------------------------------------------------------------------


def test_independent_triples_have_rank_three():
    for label, kinds in INDEPENDENT_TRIPLES:
        assert derivative_kind_rank(kinds) == 3, label


def test_dependent_triples_have_rank_two():
    for label, kinds in DEPENDENT_TRIPLES:
        assert derivative_kind_rank(kinds) == 2, label


def test_rank_of_all_five_is_three():
    assert derivative_kind_rank(ALL_KINDS) == 3


def test_rank_rejects_duplicates():
    with pytest.raises(ValueError):
        derivative_kind_rank([DerivKind.K1, DerivKind.K1])
    with pytest.raises(ValueError):
        derivative_kind_rank([])


# ---------------------------------------------------------------------------
# second derivatives
# ---------------------------------------------------------------------------


def test_double_derivative_zero_connection():
    rng = derive_rng(11, "dd0")
    a = random_tensor_field(rng, 2, (1, 1))
    L = ConnectionField.zero(2)
    k1 = KIND_BY_NUMBER[1]
    dd = covariant_derivative(k1, covariant_derivative(k1, a, L), L)
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for n in range(2):
                    assert dd.get(i, j, m, n) == a.get(i, j).partial(m).partial(n)


def test_composition_matches_explicit_formulas():
    # spot pairs here; the full nine-pair sweep runs in the acceptance suite
    rng = derive_rng(12, "ddx")
    L = random_connection(rng, 3, degree=1)
    a = random_tensor_field(rng, 3, (1, 1), degree=2)
    for p, q in ((1, 1), (2, 3), (3, 3)):
        kp, kq = KIND_BY_NUMBER[p], KIND_BY_NUMBER[q]
        comp = covariant_derivative(kq, covariant_derivative(kp, a, L), L)
        expl = double_covariant_derivative_explicit(p, q, a, L)
        assert comp == expl, (p, q)


def test_explicit_rejects_rule_four():
    rng = derive_rng(13, "dd4")
    L = random_connection(rng, 2, degree=0)
    a = random_tensor_field(rng, 2, (1, 1), degree=0)
    with pytest.raises(ValueError):
        double_covariant_derivative_explicit(1, 4, a, L)
    # composition path accepts every rule
    covariant_derivative(DerivKind.K4, covariant_derivative(DerivKind.SYM, a, L), L)
