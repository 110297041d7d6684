import itertools
from fractions import Fraction

import pytest

from torsioncalc import ricci
from torsioncalc.algebra import ScalarField, contract, matrix_rank
from torsioncalc.connection import DerivKind, covariant_derivative, double_covariant_derivative
from torsioncalc.curvature import curvature_R
from torsioncalc.ricci import (
    _ANTISYMMETRIC,
    _DD_BLOCKS,
    ALL_COMBINATIONS,
    ID,
    SWAP,
    CATALOGUE_BY_PQRS,
    IdentityCoefficients,
    IdentityUnsolvableError,
    IdentityWorkspace,
    MixWeights,
    _column,
    _dd_refs,
    _instance_workspace,
    _solve_combos,
    _split_target,
    catalogue_independence_rank,
    identity_catalogue,
    identity_row,
    solve_all_identities,
    solve_identity_coefficients,
    span_basis,
    verify_expanded_identity,
    verify_identity,
    verify_mixed_family,
    verify_solutions,
)
from torsioncalc.sampling import (
    derive_rng,
    random_symmetric_connection,
    random_tensor_field,
)

from conftest import make_instance

# v -> a different value in {-1, 0, 1}
FLIP = {1: 0, 0: -1, -1: 1}


def flipped(ic: IdentityCoefficients, k: int) -> IdentityCoefficients:
    c = list(ic.c)
    c[k] = FLIP[c[k]]
    return IdentityCoefficients(tuple(c), ic.pqrs)

# ---------------------------------------------------------------------------
# catalogue data
# ---------------------------------------------------------------------------


def test_catalogue_size_and_tags():
    catalogue = identity_catalogue()
    assert len(catalogue) == 17
    assert catalogue[0].tag == "ric11-11"
    assert CATALOGUE_BY_PQRS[(1, 2, 1, 1)].tag == "ric12-11"
    assert all(len(ic.c) == 17 for ic in catalogue)


def test_catalogue_entry_1111():
    c = CATALOGUE_BY_PQRS[(1, 1, 1, 1)].c
    assert c == (0, 0, -1, 0, 0, 1, -1, 1, -1, -1, 1, -1, 1, -1, -1, 0, 0)


def test_catalogue_entry_2222_torsion_derivative_sign():
    c = CATALOGUE_BY_PQRS[(2, 2, 2, 2)].c
    assert c[2] == 1  # the +2 T a| term
    assert c[:2] == (0, 0) and c[3:5] == (0, 0)


def test_catalogue_entry_3333_single_positive_derivative_term():
    c = CATALOGUE_BY_PQRS[(3, 3, 3, 3)].c
    assert c[2] == 1
    assert all(v == 0 for k, v in enumerate(c[:5]) if k != 2)


def test_coefficient_entries_bounded():
    with pytest.raises(ValueError):
        IdentityCoefficients((2,) + (0,) * 16, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        IdentityCoefficients((0,) * 16, (1, 1, 1, 1))


def test_catalogue_rank_is_sixteen():
    # one member is an exact combination of three others: the corrected
    # (1,3,1,2) member satisfies (12-11) - (13-11) - (12-12) + (13-12) = 0,
    # so the seventeen chosen members span a 16-dimensional space
    assert catalogue_independence_rank() == 16


def test_four_member_dependency_is_structural():
    L, a = make_instance(21, "dep", 3)
    ws = IdentityWorkspace(a, L)
    total = None
    for pqrs in ((1, 2, 1, 1), (1, 3, 1, 2)):
        t = ws.lhs(pqrs)
        total = t if total is None else total + t
    for pqrs in ((1, 3, 1, 1), (1, 2, 1, 2)):
        total = total - ws.lhs(pqrs)
    assert total.is_zero()


def test_square_quadruple_lhs_sums_to_four_commutators():
    L, a = make_instance(22, "quad", 3)
    ws = IdentityWorkspace(a, L)
    total = None
    for pqrs in ((1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 1, 2), (2, 1, 2, 1)):
        t = ws.lhs(pqrs)
        total = t if total is None else total + t
    assert total == ws.r_commutator().scale(4)


def test_completion_to_rank_seventeen():
    rows = [identity_row(ic) for ic in identity_catalogue()]
    extra = solve_identity_coefficients((3, 2, 3, 2), dims=(3,), verify_dims=(3,))
    rows.append(identity_row(extra))
    assert matrix_rank(rows) == 17


# ---------------------------------------------------------------------------
# right-side evaluation
# ---------------------------------------------------------------------------


def test_torsion_free_rhs_is_commutator():
    rng = derive_rng(23, "tf")
    L = random_symmetric_connection(rng, 3, degree=1)
    a = random_tensor_field(rng, 3, (1, 1), degree=1)
    ws = IdentityWorkspace(a, L)
    R = curvature_R(L)
    for pqrs in ((1, 1, 1, 1), (2, 3, 2, 3)):
        rhs = ws.rhs(CATALOGUE_BY_PQRS[pqrs])
        assert rhs == ws.r_commutator()
    # and the left side agrees: all rules reduce to the single derivative
    assert ws.lhs((1, 1, 1, 1)) == ws.r_commutator()


def test_zero_coefficients_leave_commutator():
    L, a = make_instance(24, "zc", 2)
    zero = IdentityCoefficients((0,) * 17, (1, 1, 1, 1))
    ws = IdentityWorkspace(a, L)
    assert ws.rhs(zero) == ws.r_commutator()


def test_rhs_matches_composition_for_1111():
    L, a = make_instance(25, "cmp", 3)
    lhs = double_covariant_derivative(1, 1, a, L) - double_covariant_derivative(
        1, 1, a, L
    ).swap_last_lower()
    rhs = IdentityWorkspace(a, L).rhs(CATALOGUE_BY_PQRS[(1, 1, 1, 1)])
    assert lhs == rhs


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_spot_combinations():
    for idx in range(3):
        L, a = make_instance(26, f"res:{idx}", 3)
        for pqrs in ((1, 2, 1, 1), (3, 1, 3, 1)):
            assert verify_identity(pqrs, a, L).is_zero(), pqrs


def test_residuals_all_catalogued_small_dimensions():
    for dim in (2, 4):
        L, a = make_instance(27, f"resN:{dim}", dim)
        ws = IdentityWorkspace(a, L)
        for ic in identity_catalogue():
            assert ws.residual(ic).is_zero(), (dim, ic.tag)


def _two_step_residual(ws, ic):
    """The residual as separate tensor additions, one piece at a time."""
    p, q, r, s = ic.pqrs
    rhs = ws.r_commutator()
    for k, ck in enumerate(ic.c, start=1):
        rhs = rhs + ws.basis(k).scale(ck)
    return ws.dd(p, q) - ws.dd(r, s).swap_last_lower() - rhs, rhs


def test_one_pass_residual_matches_two_step_tensor():
    L, a = make_instance(41, "onepass", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    for n, ic in enumerate(identity_catalogue()):
        p, q, r, s = ic.pqrs
        expected, rhs = _two_step_residual(ws, ic)
        assert ws.lhs(ic.pqrs) == ws.dd(p, q) - ws.dd(r, s).swap_last_lower()
        assert ws.rhs(ic) == rhs
        assert ws.residual(ic) == expected
        assert expected.is_zero(), ic.tag
        # a flipped coefficient leaves a nonzero residual, equal in both forms
        bad = flipped(ic, n % 17)
        expected, _ = _two_step_residual(ws, bad)
        assert ws.residual(bad) == expected
        assert not expected.is_zero(), ic.tag


def test_mixed_residual_is_integer_scaled():
    L, a = make_instance(42, "mixint", 2, degree=1)
    ws = IdentityWorkspace(a, L)
    rng = derive_rng(42, "mixint-w")
    scales = set()
    for n, ic in enumerate(identity_catalogue()):
        weights = MixWeights.random(rng)
        assert ws.mixed_residual(ic, weights).is_zero(), ic.tag
        bad = flipped(ic, n % 17)
        scaled = ws.mixed_residual(bad, weights)
        rational = ws.lhs(bad.pqrs) - ws.rhs_mixed(bad, weights)
        assert not scaled.is_zero(), ic.tag
        # D from the first nonzero coefficient, then the whole tensor
        e = next(i for i, x in enumerate(rational.entries) if not x.is_zero())
        key, value = next(iter(rational.entries[e].terms().items()))
        D = Fraction(scaled.entries[e].terms()[key]) / value
        assert D.denominator == 1 and D > 0
        assert scaled == rational.scale(D)
        assert all(type(v) is int for x in scaled.entries for v in x.terms().values())
        scales.add(D)
    # the weights' denominators reach up to 4, so some check really is scaled
    assert max(scales) > 1


def test_symmetric_connection_residuals_trivial():
    rng = derive_rng(28, "symres")
    L = random_symmetric_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    for pqrs in CATALOGUE_BY_PQRS:
        assert verify_identity(pqrs, a, L).is_zero()


def test_verify_identity_rejects_uncatalogued():
    L, a = make_instance(29, "rej", 2)
    with pytest.raises(ValueError):
        verify_identity((2, 3, 3, 2), a, L)


# ---------------------------------------------------------------------------
# second derivatives and basis terms from shared columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_block_assembled_dd_matches_composition(dim, even):
    # plain instances carry half-integer sym and tor parts (Fraction
    # coefficients); constant fields keep the dim-4 one affordable
    degree = 0 if (dim, even) == (4, False) else 1
    L, a = make_instance(48, f"blocks:{dim}:{even}", dim, degree=degree, even=even)
    ws = IdentityWorkspace(a, L)
    for p, q in itertools.product((1, 2, 3), repeat=2):
        assert contract((1, 3), *ws._pieces(_dd_refs(p, q))) == ws.dd(p, q), (p, q)
    swapped = contract((1, 3), *ws._pieces(_dd_refs(2, 3, sign=-1, swap=True)))
    assert swapped == -ws.dd(2, 3).swap_last_lower()
    if not even:  # dd has integer coefficients, its blocks do not
        sym_second = ws._pieces(_dd_refs(1, 1))[0][2]
        assert any(type(v) is Fraction for e in sym_second.entries for v in e.terms().values())


def _upper_part(tor, x):
    """U: tor^i_{A n} x^A_{j..}, the upper-index torsion term of a rule."""
    spec = "iAm,Aj->ijm" if x.valence == (1, 1) else "iAn,Ajm->ijmn"
    return contract((1, x.valence[1] + 1), (1, spec, tor, x))


def _lower_part(tor, x):
    """V: sum over x's lower slots of tor^A_{. n} x^i_{..A..}."""
    if x.valence == (1, 1):
        return contract((1, 2), (1, "Ajm,iA->ijm", tor, x))
    return contract((1, 3), (1, "Ajn,iAm->ijmn", tor, x), (1, "Amn,ijA->ijmn", tor, x))


@pytest.mark.parametrize("even", [True, False])
def test_leibniz_and_torsion_blocks_are_basis_columns(even):
    L, a = make_instance(49, f"leibniz:{even}", 3, degree=1, even=even)
    ws = IdentityWorkspace(a, L)
    tor = L.torsion_half()
    parts = {
        "S": lambda x: covariant_derivative(DerivKind.SYM, x, L),
        "U": lambda x: _upper_part(tor, x),
        "V": lambda x: _lower_part(tor, x),
    }
    # each rule is S + sigma_up U + sigma_lo V
    for kind in (DerivKind.K1, DerivKind.K2, DerivKind.K3, DerivKind.K4):
        split = parts["S"](a) + parts["U"](a).scale(kind.sigma_up)
        assert covariant_derivative(kind, a, L) == split + parts["V"](a).scale(kind.sigma_lo)

    def column_sum(columns):
        return contract((1, 3), *ws._pieces([_column(k, 1) for k in columns]))

    blocks = {(outer, inner): columns for outer, inner, columns in _DD_BLOCKS}
    # Leibniz: S(Ua) = dtor.a + tor.(Sa), S(Va) likewise
    Ua, Va = parts["U"](a), parts["V"](a)
    assert covariant_derivative(DerivKind.SYM, Ua, L) == column_sum(blocks["S", "U"])
    assert covariant_derivative(DerivKind.SYM, Va, L) == column_sum(blocks["S", "V"])
    for (outer, inner), columns in blocks.items():
        assert parts[outer](parts[inner](a)) == column_sum(columns), (outer, inner)


def test_basis_terms_match_their_written_out_contractions():
    L, a = make_instance(50, "basis", 3, degree=1, even=False)
    ws = IdentityWorkspace(a, L)
    tor = L.torsion_half()
    d_sym = covariant_derivative(DerivKind.SYM, a, L)
    dtor = covariant_derivative(DerivKind.SYM, tor, L)
    written = (
        (2, "Ajm,iAn->ijmn", tor, d_sym),
        (2, "Ajn,iAm->ijmn", tor, d_sym),
        (2, "Amn,ijA->ijmn", tor, d_sym),
        (2, "iAn,Ajm->ijmn", tor, d_sym),
        (2, "iAm,Ajn->ijmn", tor, d_sym),
        (1, "Aj,iAmn->ijmn", a, dtor),
        (1, "Aj,iAnm->ijmn", a, dtor),
        (1, "Aj,BAm,iBn->ijmn", a, tor, tor),
        (1, "Aj,BAn,iBm->ijmn", a, tor, tor),
        (2, "Aj,iAB,Bmn->ijmn", a, tor, tor),
        (-1, "iA,Ajmn->ijmn", a, dtor),
        (-1, "iA,Ajnm->ijmn", a, dtor),
        (-1, "iA,ABn,Bjm->ijmn", a, tor, tor),
        (-1, "iA,ABm,Bjn->ijmn", a, tor, tor),
        (-2, "iA,AjB,Bmn->ijmn", a, tor, tor),
        (-2, "iAm,Bjn,AB->ijmn", tor, tor, a),
        (-2, "iAn,Bjm,AB->ijmn", tor, tor, a),
    )
    for k, term in enumerate(written, start=1):
        assert ws.basis(k) == contract((1, 3), term), k


def test_residual_piece_weights_are_integers():
    # a Fraction weight would push every accumulation onto Fraction arithmetic
    L, a = make_instance(51, "intweights", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    for n, ic in enumerate(identity_catalogue()):
        for member in (ic, flipped(ic, n % 17)):
            pieces = ws.residual_pieces(member)
            assert pieces and all(type(w) is int and w for w, _, _ in pieces), member
            # merged: at most one piece per (read, tensor)
            assert len({(spec, id(t)) for _, spec, t in pieces}) == len(pieces)


# ---------------------------------------------------------------------------
# coefficient solving
# ---------------------------------------------------------------------------


def test_solver_reproduces_catalogue_entries():
    for pqrs in ((1, 1, 1, 1), (1, 3, 1, 2), (2, 3, 2, 3)):
        sol = solve_identity_coefficients(pqrs, dims=(3,), verify_dims=(3,))
        assert sol.c == CATALOGUE_BY_PQRS[pqrs].c, pqrs


def test_solver_handles_uncatalogued_combination():
    sol = solve_identity_coefficients((2, 3, 3, 2), dims=(3,), verify_dims=(3,))
    assert all(v in (-1, 0, 1) for v in sol.c)
    # verify on an independent instance
    L, a = make_instance(30, "fresh", 3)
    ws = IdentityWorkspace(a, L)
    assert ws.lhs((2, 3, 3, 2)) == ws.rhs(sol)


def test_solver_swap_pairing():
    # solving the reversed combination negates the identity under an m,n swap
    a_sol = solve_identity_coefficients((1, 2, 3, 3), dims=(3,), verify_dims=(3,))
    b_sol = solve_identity_coefficients((3, 3, 1, 2), dims=(3,), verify_dims=(3,))
    L, a = make_instance(31, "pair", 3)
    ws = IdentityWorkspace(a, L)
    left = ws.rhs(a_sol).swap_last_lower()
    assert left == -ws.rhs(b_sol)


@pytest.fixture(scope="module")
def solved_degree_one():
    return solve_all_identities(degree=1)


def test_solve_all_checks_a_seventeen_member_span_basis(solved_degree_one):
    solutions = solved_degree_one
    assert len(solutions) == 81
    for pqrs, ic in CATALOGUE_BY_PQRS.items():
        assert solutions[pqrs].c == ic.c, pqrs
    kept = span_basis(solutions.values())
    assert len(kept) == 17
    assert matrix_rank(identity_row(ic) for ic in kept) == 17
    assert verify_solutions(solutions, 20260809, (3,), 1) == kept


def test_span_basis_keeps_rank_increasing_members_in_input_order():
    catalogue = identity_catalogue()
    first = catalogue[0]
    repeat = IdentityCoefficients(first.c, first.pqrs)  # first's row again
    for members in ([first, repeat, *catalogue[1:]], [*catalogue[::-1], repeat]):
        rows = [identity_row(ic) for ic in members]
        kept = span_basis(members)
        # a member is kept exactly when its row raises the rank of the prefix
        expected = [
            ic for k, ic in enumerate(members)
            if matrix_rank(rows[: k + 1]) > (matrix_rank(rows[:k]) if k else 0)
        ]
        assert [id(ic) for ic in kept] == [id(ic) for ic in expected]
        assert len(kept) == catalogue_independence_rank() == 16
        assert not any(ic is repeat for ic in kept)
    assert span_basis([first, repeat]) == [first]


def test_verification_rejects_a_corrupted_member_outside_the_basis(solved_degree_one):
    kept = {ic.pqrs for ic in span_basis(solved_degree_one.values())}
    pqrs = next(p for p in ALL_COMBINATIONS if p not in kept)
    corrupted = dict(solved_degree_one)
    corrupted[pqrs] = flipped(corrupted[pqrs], 5)
    # the wrong row leaves the span of the true identities, so it is kept
    assert len(span_basis(corrupted.values())) == 18
    with pytest.raises(IdentityUnsolvableError, match="fail on a fresh instance"):
        verify_solutions(corrupted, 20260809, (3,), 1)


@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_folded_keys_are_antisymmetric_in_m_and_n(dim, even):
    # the fold reads SWAP of these keys as -1 times ID, which is exact only
    # if each tensor is antisymmetric in its last lower pair
    degree = 0 if (dim, even) == (4, False) else 1
    L, a = make_instance(50, f"fold:{dim}:{even}", dim, degree=degree, even=even)
    ws = IdentityWorkspace(a, L)
    assert len(_ANTISYMMETRIC) == 4
    for key in _ANTISYMMETRIC:
        t = ws._tensor(key)
        assert not t.is_zero(), key
        assert t.swap_last_lower() == -t, key


def test_flipping_a_folded_column_fails_every_catalogue_member():
    # columns 3, 10 and 15 cancel in a correct member once folded; a wrong
    # coefficient on one of them must leave a nonzero residual
    L, a = make_instance(51, "fold-flip", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    members = [flipped(ic, k) for ic in identity_catalogue() for k in (2, 9, 14)]
    found = ws.nonzero_members([ws.residual_pieces(ic) for ic in members])
    assert list(found) == list(range(len(members)))


def test_rest_plus_offsets_is_the_target_for_every_combination():
    L, a = make_instance(52, "split", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    rcomm = ws.r_commutator()
    rests = set()
    for pqrs in ALL_COMBINATIONS:
        rest, offsets = _split_target(pqrs)
        rests.add(rest)
        # every offset happens to be an integer; int weights keep contract on ints
        assert all(Fraction(w).denominator == 1 for w in offsets), pqrs
        offset_terms = [(int(w), ID, ws.basis(k)) for k, w in enumerate(offsets, start=1) if w]
        total = contract((1, 3), *ws._pieces(rest), *offset_terms)
        p, q, r, s = pqrs
        composed = ws.dd(p, q) - ws.dd(r, s).swap_last_lower() - rcomm
        assert total == ws.lhs(pqrs) - rcomm == composed, pqrs
    # one right side serves all 81 combinations
    assert rests == {((1, ID, "dd_sym"), (-1, SWAP, "dd_sym"), (-1, ID, "rcomm"))}


def test_a_rest_outside_the_basis_span_is_unsolvable(monkeypatch):
    lhs_refs = ricci._lhs_refs
    bad = (2, 3, 1, 2)

    def ssa_alone(pqrs):
        # the target lhs - rcomm becomes SSa, outside the span of the basis
        return [(1, ID, "dd_sym"), (1, ID, "rcomm")] if pqrs == bad else lhs_refs(pqrs)

    monkeypatch.setattr(ricci, "_lhs_refs", ssa_alone)
    with pytest.raises(IdentityUnsolvableError, match=r"^\(2, 3, 1, 2\): .*inconsistent"):
        _solve_combos([(1, 1, 1, 1), bad], 20260809, (3, 4), 1, (3,))


def test_solver_rejects_bad_combination():
    with pytest.raises(ValueError):
        solve_identity_coefficients((0, 1, 1, 1))


# ---------------------------------------------------------------------------
# mixed-rule family
# ---------------------------------------------------------------------------


def test_mix_weights_validation():
    with pytest.raises(ValueError):
        MixWeights(((1, 1, 0),) * 5)
    assert MixWeights.pure(2).rows[0] == (0, 1, 0)
    third = Fraction(1, 3)
    assert MixWeights.uniform().rows[4] == (third, third, third)


def test_mixed_family_pure_rows_reduce_to_single_rule():
    L, a = make_instance(32, "mix1", 3)
    for l in (1, 2, 3):
        weights = MixWeights.pure(l)
        for pqrs in ((1, 1, 1, 1), (3, 1, 3, 1)):
            assert verify_mixed_family(pqrs, weights, a, L).is_zero(), (l, pqrs)


def test_mixed_family_uniform_and_random_weights():
    L, a = make_instance(33, "mix2", 3)
    rng = derive_rng(33, "mixw")
    for pqrs in ((1, 2, 1, 1), (2, 2, 2, 2)):
        assert verify_mixed_family(pqrs, MixWeights.uniform(), a, L).is_zero()
        for _ in range(2):
            w = MixWeights.random(rng)
            assert verify_mixed_family(pqrs, w, a, L).is_zero(), pqrs


def test_mixed_family_torsion_free():
    rng = derive_rng(34, "mixtf")
    L = random_symmetric_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    w = MixWeights.random(derive_rng(34, "w"))
    assert verify_mixed_family((1, 1, 1, 1), w, a, L).is_zero()


def test_mixed_family_rejects_uncatalogued():
    L, a = make_instance(35, "mixrej", 2)
    with pytest.raises(ValueError):
        verify_mixed_family((2, 3, 3, 2), MixWeights.uniform(), a, L)


# ---------------------------------------------------------------------------
# expanded (partial-derivative) form
# ---------------------------------------------------------------------------


def test_expanded_form_matches_covariant_form():
    L, a = make_instance(36, "exp", 3)
    for pqrs in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 3, 1, 3)):
        assert verify_expanded_identity(pqrs, a, L).is_zero(), pqrs


def test_expanded_form_constant_fields():
    # constant tensor and connection: every partial vanishes and the check
    # compares the quadratic brackets alone
    L, a = make_instance(37, "expc", 3, degree=0)
    assert a.partial_gradient().is_zero()
    for pqrs in ((1, 1, 1, 1), (3, 3, 3, 3)):
        assert verify_expanded_identity(pqrs, a, L).is_zero()


def test_expanded_form_torsion_free():
    rng = derive_rng(38, "exptf")
    L = random_symmetric_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    ws = IdentityWorkspace(a, L)
    ic = CATALOGUE_BY_PQRS[(1, 1, 1, 1)]
    assert ws.rhs_expanded(ic) == ws.r_commutator()


# ---------------------------------------------------------------------------
# batched (packed) residual checks
# ---------------------------------------------------------------------------


def _first_term(t):
    """(entry index tuple, {exponents: coefficient}) of the first nonzero
    entry of a tensor and its first term, or None for a zero tensor."""
    for idx, e in zip(itertools.product(range(t.dim), repeat=4), t.entries):
        if not e.is_zero():
            exps, coeff = next(iter(e.terms().items()))
            return idx, {exps: coeff}
    return None


def _assert_matches_reference(ws, members):
    """nonzero_members agrees member by member with one contraction each."""
    found = ws.nonzero_members(members)
    expected = {}
    for k, pieces in enumerate(members):
        ref = contract((1, 3), *pieces) if pieces else None
        if ref is not None and not ref.is_zero():
            expected[k] = _first_term(ref)
    assert list(found) == list(expected)
    assert {k: (entry, mono.terms()) for k, (entry, mono) in found.items()} == expected
    return found


@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_batched_check_agrees_with_per_member_residuals(dim, even):
    # constant fields keep the dim-4 Fraction instance affordable; their
    # curvature and torsion products are still nonzero
    degree = 0 if (dim, even) == (4, False) else 1
    L, a = make_instance(43, f"batch:{dim}:{even}", dim, degree=degree, even=even)
    ws = IdentityWorkspace(a, L)
    members = [
        flipped(ic, (5 * n) % 17) if n % 3 == 1 else ic
        for n, ic in enumerate(identity_catalogue())
    ]
    found = _assert_matches_reference(ws, [ws.residual_pieces(ic) for ic in members])
    assert list(found) == list(range(1, 17, 3))
    if not even:  # the instance really carries Fraction coefficients
        assert any(
            type(v) is Fraction for e in ws.basis(6).entries for v in e.terms().values()
        )


def test_batched_check_names_flips_in_first_middle_and_last_slot():
    L, a = make_instance(44, "batch-flip", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    catalogue = identity_catalogue()
    members = list(catalogue)
    for n in (0, 8, 16):
        members[n] = flipped(catalogue[n], n % 17)
    found = ws.nonzero_members([ws.residual_pieces(ic) for ic in members])
    assert list(found) == [0, 8, 16]
    for n, (entry, mono) in found.items():
        assert (entry, mono.terms()) == _first_term(ws.residual(members[n]))


def test_batched_check_decodes_negative_and_cancelling_slots():
    L, a = make_instance(45, "batch-sign", 2, degree=1)
    ws = IdentityWorkspace(a, L)
    T = random_tensor_field(derive_rng(45, "batch-sign-T"), 2, (1, 3), degree=1)
    assert any(v < 0 for e in T.entries for v in e.terms().values())
    members = [
        [(1, "ijmn->ijmn", T)],
        [(-1, "ijmn->ijmn", T)],  # negative, next to the positive slot
        [(1, "ijmn->ijmn", T), (-1, "ijmn->ijmn", T)],  # cancels inside a column
        [(-3, "ijmn->ijmn", T), (2, "ijnm->ijmn", T)],
        [],
        [(1, "ijmn->ijmn", T)],
    ]
    found = _assert_matches_reference(ws, members)
    assert list(found) == [0, 1, 3, 5]
    (_, plus), (_, minus) = found[0], found[1]
    assert plus.terms() == (-minus).terms()


def test_batched_check_widens_slots_for_large_coefficients():
    L, a = make_instance(46, "batch-wide", 2, degree=1)
    ws = IdentityWorkspace(a, L)
    T = random_tensor_field(derive_rng(46, "batch-wide-T"), 2, (1, 3), degree=1)
    big = T.scale(2**40)
    members = [
        [(1, "ijmn->ijmn", big), (-(2**40), "ijmn->ijmn", T)],  # exactly zero
        [(1, "ijmn->ijmn", big), (1 - 2**40, "ijmn->ijmn", T)],  # T, beside 2^40 T
        [(-1, "ijmn->ijmn", big)],
        [(Fraction(1, 3), "ijmn->ijmn", T), (Fraction(-1, 3), "ijnm->ijmn", T)],
    ]
    found = _assert_matches_reference(ws, members)
    assert list(found) == [1, 2, 3]
    entry, mono = found[2]
    assert (entry, mono.terms()) == _first_term(T.scale(-(2**40)))


def test_batched_mixed_check_matches_rational_residuals():
    L, a = make_instance(47, "batch-mixed", 2, degree=1)
    ws = IdentityWorkspace(a, L)
    rng = derive_rng(47, "batch-mixed-w")
    catalogue = identity_catalogue()
    members, residuals = [], []
    for n, ic in enumerate(catalogue):
        weights = MixWeights.random(rng)
        member = flipped(ic, n % 17) if n % 4 == 2 else ic
        members.append(ws.mixed_residual_pieces(member, weights))
        residuals.append(ws.lhs(member.pqrs) - ws.rhs_mixed(member, weights))
    found = ws.nonzero_members(members)
    assert list(found) == [n for n, r in enumerate(residuals) if not r.is_zero()]
    assert list(found) == list(range(2, 17, 4))
    for n, (entry, mono) in found.items():
        assert (entry, mono.terms()) == _first_term(residuals[n])


def test_verification_failure_names_instance_member_entry_and_monomial(solved_degree_one):
    kept = {ic.pqrs for ic in span_basis(solved_degree_one.values())}
    pqrs = next(p for p in ALL_COMBINATIONS if p not in kept)
    corrupted = dict(solved_degree_one)
    corrupted[pqrs] = flipped(corrupted[pqrs], 5)
    with pytest.raises(IdentityUnsolvableError) as exc:
        verify_solutions(corrupted, 20260809, (3,), 1)
    ws = _instance_workspace(20260809, "check:0:3", 3, 1)
    entry, terms = _first_term(ws.residual(corrupted[pqrs]))
    message = str(exc.value)
    assert message.startswith(f"{pqrs}: solved coefficients fail on a fresh instance")
    assert "seed 20260809, label 'check:0:3', dim 3, degree 1" in message
    assert f"entry {entry} has residual term {ScalarField.from_terms(terms, 3)!r}" in message
