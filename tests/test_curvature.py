from fractions import Fraction

import pytest

from torsioncalc.algebra import ScalarField, TensorField
from torsioncalc.connection import (
    DerivKind,
    covariant_derivative,
)
from torsioncalc.curvature import (
    CURVATURE_R_MEMBER,
    INDEPENDENT_SIX_SETS,
    RhoCoefficients,
    curvature_R,
    rho,
    rho_catalogue,
    rho_family_rank,
    six_set_members,
)
from torsioncalc.sampling import (
    derive_rng,
    random_connection,
    random_even_connection,
    random_tensor_field,
)

from oracles import (
    bracket_objects,
    bracket_objects_raw,
    kronecker_delta,
    random_symmetric_connection,
    zero_connection,
)

# ---------------------------------------------------------------------------
# the curvature tensor of the torsion-free part
# ---------------------------------------------------------------------------


def test_curvature_of_flat_connection_vanishes():
    assert curvature_R(zero_connection(3)).is_zero()


def test_curvature_of_constant_connection_is_commutator():
    # derivative terms vanish, leaving the quadratic commutator
    rng = derive_rng(1, "constL")
    L = random_symmetric_connection(rng, 2, degree=0)
    R = curvature_R(L)
    for i in range(2):
        for j in range(2):
            for m in range(2):
                for n in range(2):
                    expected = ScalarField(2)
                    for al in range(2):
                        expected = expected + (
                            L.coeffs.get(al, j, m) * L.coeffs.get(i, al, n)
                            - L.coeffs.get(al, j, n) * L.coeffs.get(i, al, m)
                        )
                    assert R.get(i, j, m, n) == expected


def test_curvature_antisymmetric_in_last_pair():
    L = random_symmetric_connection(derive_rng(2, "anti"), 3)
    R = curvature_R(L)
    assert R.swap_last_lower() == -R


def test_curvature_rejects_torsion():
    L = random_connection(derive_rng(3, "rej"), 2)
    assert not L.is_symmetric()
    with pytest.raises(ValueError):
        curvature_R(L)


# ---------------------------------------------------------------------------
# the five-parameter family
# ---------------------------------------------------------------------------


def test_torsion_free_family_collapses_to_R():
    rng = derive_rng(4, "collapse")
    L = random_symmetric_connection(rng, 3, degree=1)
    R = curvature_R(L)
    for _ in range(10):
        coeffs = RhoCoefficients(
            *[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
        )
        assert rho(coeffs, L) == R


def _member_oracle(index_1based, L):
    """Independent transcription of one catalogued member, evaluated with
    generic tensor operations rather than the ``contract`` terms inside rho()."""
    signs = {
        1: (1, -1, 1, -1, -2),
        2: (1, -1, -1, -1, 0),
        10: (-1, 1, -1, 1, 2),
        14: (-1, -1, 1, 1, 0),
    }[index_1based]
    u, up, v, vp, w = signs
    sym, tor = L.symmetric_part(), L.torsion_half()
    R = curvature_R(sym)
    D = covariant_derivative(DerivKind.SYM, tor, L)
    dim = L.dim

    def entry(i, j, m, n):
        total = R.get(i, j, m, n) + D.get(i, j, m, n).scale(u) + D.get(i, j, n, m).scale(up)
        for al in range(dim):
            total = total + (tor.get(al, j, m) * tor.get(i, al, n)).scale(v)
            total = total + (tor.get(al, j, n) * tor.get(i, al, m)).scale(vp)
            total = total + (tor.get(al, m, n) * tor.get(i, j, al)).scale(w)
        return total

    return TensorField.build(dim, (1, 3), entry)


def test_members_match_transcription_oracle():
    L = random_even_connection(derive_rng(5, "oracle"), 3, degree=1)
    catalogue = rho_catalogue()
    for idx in (1, 2, 10, 14):
        assert rho(catalogue[idx - 1], L) == _member_oracle(idx, L), idx


def test_catalogue_spot_values():
    catalogue = rho_catalogue()
    assert catalogue[0] == RhoCoefficients(1, -1, 1, -1, -2)
    assert catalogue[1] == RhoCoefficients(1, -1, -1, -1, 0)
    assert catalogue[9] == RhoCoefficients(-1, 1, -1, 1, 2)
    assert catalogue[13] == RhoCoefficients(-1, -1, 1, 1, 0)
    assert len(catalogue) == 14


def test_rho_coefficients_compare_and_hash_by_their_fields():
    member = RhoCoefficients(1, -1, 1, -1, -2)
    same = RhoCoefficients(Fraction(1), -1, 1, -1, Fraction(-2))
    assert member == same and hash(member) == hash(same) and len({member, same}) == 1
    for k in range(5):
        values = [1, -1, 1, -1, -2]
        values[k] += 1
        assert member != RhoCoefficients(*values)
    assert member != member.basis_vector()[1:]
    assert CURVATURE_R_MEMBER == RhoCoefficients(0, 0, 0, 0, 0)
    by_name = RhoCoefficients(u=1, u_prime=2, v=3, v_prime=4, w=5)
    assert by_name.basis_vector() == (1, 1, 2, 3, 4, 5)


def test_family_ranks():
    catalogue = rho_catalogue()
    assert rho_family_rank(catalogue) == 6
    for label, indices in INDEPENDENT_SIX_SETS:
        assert rho_family_rank(six_set_members(indices)) == 6, label
    assert rho_family_rank([CURVATURE_R_MEMBER]) == 1


def test_rank_monotone_under_inclusion():
    catalogue = rho_catalogue()
    previous = 0
    for size in range(1, len(catalogue) + 1):
        r = rho_family_rank(catalogue[:size])
        assert r >= previous
        previous = r
    assert previous == 6


def test_swap_pairing():
    # swapping the two antisymmetrised slots negates the member with the
    # induced coefficient swap (u <-> -u', v <-> -v', w fixed)
    L = random_even_connection(derive_rng(6, "swap"), 3, degree=1)
    for c in (rho_catalogue()[0], rho_catalogue()[6], RhoCoefficients(2, 0, -1, 1, 3)):
        swapped = RhoCoefficients(-c.u_prime, -c.u, -c.v_prime, -c.v, c.w)
        assert rho(c, L).swap_last_lower() == -rho(swapped, L)


# ---------------------------------------------------------------------------
# bracket objects
# ---------------------------------------------------------------------------


def test_brackets_vanish_without_torsion():
    rng = derive_rng(8, "bz")
    L = random_symmetric_connection(rng, 3, degree=1)
    a = random_tensor_field(rng, 3, (1, 1), degree=1)
    for obj in bracket_objects(a, L):
        assert obj.is_zero()


def test_brackets_raw_equals_decomposed():
    rng = derive_rng(9, "br")
    for trial in range(3):
        L = random_even_connection(rng, 3, degree=1)
        a = random_tensor_field(rng, 3, (1, 1), degree=1)
        dec = bracket_objects(a, L)
        raw = bracket_objects_raw(a, L)
        for idx, (x, y) in enumerate(zip(dec, raw)):
            assert x == y, f"object {idx} trial {trial}"


def test_first_bracket_of_kronecker_vanishes():
    # both summands differentiate the identity tensor
    L = random_connection(derive_rng(10, "bd"), 3)
    delta = kronecker_delta(3)
    assert bracket_objects(delta, L)[0].is_zero()
