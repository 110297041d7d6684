import itertools
import math
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsioncalc import algebra, cli, ricci
from torsioncalc.algebra import ScalarField, TensorField, contract, matrix_rank, nonzero_sums
from torsioncalc.connection import (
    KIND_BY_NUMBER,
    ConnectionField,
    DerivKind,
    covariant_derivative,
    derivative_relations,
)
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
    _split_target,
    catalogue_independence_rank,
    identity_catalogue,
    identity_row,
    solve_all_identities,
)
from torsioncalc.sampling import derive_rng, random_tensor_field

from conftest import make_instance
from oracles import mixed_refs_rational, random_symmetric_connection, rhs_expanded, weight_rows

# v -> a different value in {-1, 0, 1}
FLIP = {1: 0, 0: -1, -1: 1}


def flipped(ic: IdentityCoefficients, k: int) -> IdentityCoefficients:
    c = list(ic.c)
    c[k] = FLIP[c[k]]
    return IdentityCoefficients(tuple(c), ic.pqrs)


def pure_weights(l: int) -> MixWeights:
    """Every derivative term by rule l alone."""
    return MixWeights((tuple(int(i == l - 1) for i in range(3)),) * 5)


def _workspace(seed, label, dim, degree) -> IdentityWorkspace:
    """The workspace of a seeded instance, drawn as the CLI draws it."""
    L, a = make_instance(seed, label, dim, degree)
    return IdentityWorkspace(a, L)


def _check(members):
    """The CLI's check sweep on its first instance at degree 1, the basis
    rank certified: (tag, ok, detail) per member."""
    cli._need("ricci", "sampling")  # no subcommand has bound them
    return cli._sweep(cli.RunConfig(seed=20260809, degree=1), "check", [(3, 0)], members, True)


@pytest.fixture(scope="module")
def solved():
    return solve_all_identities()

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
    with pytest.raises(ValueError, match=r"^coefficients must lie in \{-1, 0, 1\}$"):
        IdentityCoefficients((2,) + (0,) * 16, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="^coefficient vector must have 17 entries$"):
        IdentityCoefficients((0,) * 16, (1, 1, 1, 1))
    for pqrs in ((1, 1, 1), (1, 1, 1, 4)):
        with pytest.raises(ValueError, match=r"^combination must be a 4-tuple over \{1, 2, 3\}$"):
            IdentityCoefficients((0,) * 17, pqrs)


def test_identity_coefficients_compare_and_hash_by_their_fields():
    c = (1,) + (0,) * 16
    member = IdentityCoefficients(c, (1, 2, 3, 1))
    assert member.tag is None
    same = IdentityCoefficients(tuple(c), (1, 2, 3, 1))
    assert member == same and hash(member) == hash(same)
    assert len({member, same}) == 1
    assert member != IdentityCoefficients(c, (1, 2, 3, 1), "tagged")
    assert member != IdentityCoefficients(c, (1, 2, 3, 2))
    assert member != IdentityCoefficients((0,) * 17, (1, 2, 3, 1))
    assert member != (c, (1, 2, 3, 1), None)
    # the catalogue's members key dicts and sets
    catalogue = identity_catalogue()
    assert len(set(catalogue)) == len(catalogue)


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


def test_completion_to_rank_seventeen(solved):
    rows = [identity_row(ic) for ic in identity_catalogue()]
    extra = solved[3, 2, 3, 2]
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
    k1 = KIND_BY_NUMBER[1]
    dd = covariant_derivative(k1, covariant_derivative(k1, a, L), L)
    lhs = dd - dd.swap_last_lower()
    rhs = IdentityWorkspace(a, L).rhs(CATALOGUE_BY_PQRS[(1, 1, 1, 1)])
    assert lhs == rhs


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residuals_spot_combinations():
    members = [CATALOGUE_BY_PQRS[pqrs] for pqrs in ((1, 2, 1, 1), (3, 1, 3, 1))]
    for idx in range(3):
        L, a = make_instance(26, f"res:{idx}", 3)
        assert IdentityWorkspace(a, L).nonzero_residuals(members) == {}, idx


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
        assert contract((1, 3), *ws.mixed_residual_pieces(ic, weights)).is_zero(), ic.tag
        bad = flipped(ic, n % 17)
        scaled = contract((1, 3), *ws.mixed_residual_pieces(bad, weights))
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
    assert IdentityWorkspace(a, L).nonzero_residuals(identity_catalogue()) == {}


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


def test_solver_reproduces_catalogue_entries(solved):
    for pqrs in ((1, 1, 1, 1), (1, 3, 1, 2), (2, 3, 2, 3)):
        sol = solved[pqrs]
        assert sol.c == CATALOGUE_BY_PQRS[pqrs].c, pqrs


def test_solver_handles_uncatalogued_combination(solved):
    sol = solved[2, 3, 3, 2]
    assert all(v in (-1, 0, 1) for v in sol.c)
    # verify on an independent instance
    L, a = make_instance(30, "fresh", 3)
    ws = IdentityWorkspace(a, L)
    assert ws.lhs((2, 3, 3, 2)) == ws.rhs(sol)


def test_solver_swap_pairing(solved):
    # solving the reversed combination negates the identity under an m,n swap
    a_sol = solved[1, 2, 3, 3]
    b_sol = solved[3, 3, 1, 2]
    L, a = make_instance(31, "pair", 3)
    ws = IdentityWorkspace(a, L)
    left = ws.rhs(a_sol).swap_last_lower()
    assert left == -ws.rhs(b_sol)


def test_solve_all_checks_every_member_on_one_instance(solved):
    solutions = solved
    assert len(solutions) == 81
    for pqrs, ic in CATALOGUE_BY_PQRS.items():
        assert solutions[pqrs].c == ic.c, pqrs
    members = list(solutions.values())
    assert matrix_rank(identity_row(ic) for ic in members) == 17
    rows = _check(members)
    assert [tag for tag, _, _ in rows] == [str(pqrs) for pqrs in ALL_COMBINATIONS]
    assert all(ok for _, ok, _ in rows)


def test_every_solved_vector_is_its_split_offsets(solved):
    # the coefficients are the table offsets, with no solve
    for pqrs, ic in solved.items():
        assert list(ic.c) == _split_target(pqrs)[1], pqrs


def test_every_solved_member_merges_to_the_shared_rest(solved):
    # lhs - rhs of each of the 81 members is the same three references, so
    # one residual tensor per instance checks them all
    shared = {(ID, "dd_sym"): 1, (SWAP, "dd_sym"): -1, (ID, "rcomm"): -1}
    for pqrs in ALL_COMBINATIONS:
        ic = solved[pqrs]
        merged = ricci._merge([*ricci._lhs_refs(pqrs), *ricci._rhs_refs(ic, sign=-1)])
        assert merged == shared, pqrs


def test_verification_rejects_a_corrupted_non_catalogue_member(solved, monkeypatch):
    # the last one, so that every other failure would be named first
    pqrs = [p for p in ALL_COMBINATIONS if p not in CATALOGUE_BY_PQRS][-1]
    corrupted = dict(solved)
    corrupted[pqrs] = flipped(corrupted[pqrs], 5)
    monkeypatch.setattr(cli, "solve_all_identities", lambda: corrupted)
    (check,) = cli.cmd_verify_ricci(cli.RunConfig(degree=1), "all").checks
    assert check.id == "thm2:solve" and not check.passed
    assert check.actual == f"error: {pqrs}: nonzero residual on a fresh instance"


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
    found = nonzero_sums((1, 3), [ws.residual_pieces(ic) for ic in members])
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
    message = r"^\(2, 3, 1, 2\): its rest differs from the shared rest of \(1, 1, 1, 1\)$"
    with pytest.raises(IdentityUnsolvableError, match=message):
        solve_all_identities()


def test_an_offset_outside_minus_one_to_one_is_refused(monkeypatch):
    lhs_refs = ricci._lhs_refs
    bad = (3, 1, 2, 2)

    def half_a_column_more(pqrs):
        # column 1 at weight 1 is half of basis term 1, whose weight is 2
        return (*lhs_refs(pqrs), _column(1, 1)) if pqrs == bad else lhs_refs(pqrs)

    monkeypatch.setattr(ricci, "_lhs_refs", half_a_column_more)
    message = r"^\(3, 1, 2, 2\): coefficient -?\d+/2 falls outside \{-1, 0, 1\}$"
    with pytest.raises(IdentityUnsolvableError, match=message):
        solve_all_identities()


def _origin_symmetric(L) -> ConnectionField:
    """L with the constant part of every L^i_{jk} made symmetric in j, k,
    so that tor vanishes at the origin; L is even, so the halves are ints."""
    origin = (0,) * L.dim

    def entry(i, j, k):
        terms = L.coeffs.get(i, j, k).terms()
        swapped = L.coeffs.get(i, k, j).terms().get(origin, 0)
        terms[origin] = (terms.get(origin, 0) + swapped) // 2
        return ScalarField.from_terms(terms, L.dim)

    return ConnectionField(TensorField.build(L.dim, (1, 2), entry))


@pytest.mark.parametrize(
    "dim, degree, symmetric_origin",
    [(3, 1, False), (3, 2, False), (4, 1, False), (2, 1, False), (3, 1, True), (3, 2, True)],
    ids=["3-1", "3-2", "4-1", "2-1", "3-1-symmetric-origin", "3-2-symmetric-origin"],
)
def test_block_feed_adds_the_full_feed_rows_and_forms_no_later_block(
    dim, degree, symmetric_origin
):
    """basis_rank reaches the rank of the full feed (every row of the whole
    basis tensors) and forms no later block: the ten whole columns are
    formed only where the constant rows fall short of rank 17."""
    from oracles import feed_rows_full

    label = f"check:{dim}:0"
    L, a = make_instance(20260809, label, dim, degree)
    if symmetric_origin:
        L = _origin_symmetric(L)
        assert L.torsion_half().constant_part().is_zero()
    ws = IdentityWorkspace(a, L)
    rank = ws.basis_rank()
    reference = algebra.LinearSystem(17, 0)
    feed_rows_full(reference, IdentityWorkspace(a, L))
    assert rank == reference.rank == (15 if dim == 2 else 17)

    # the ten column contractions, formed whole only when the constant rows
    # fall short: at dim 2 (rank 15), and where tor vanishes at the origin
    columns = {key for _, key in ricci._COLUMN_BY_READ}
    assert len(columns) == 10
    shortfall = dim == 2 or symmetric_origin
    assert columns & set(ws._cache) == (columns if shortfall else set())


# ---------------------------------------------------------------------------
# mixed-rule family
# ---------------------------------------------------------------------------


def test_mix_weights_validation():
    with pytest.raises(ValueError):
        MixWeights(((1, 1, 0),) * 5)
    assert weight_rows(pure_weights(2))[0] == (0, 1, 0)
    third = Fraction(1, 3)
    assert weight_rows(MixWeights(((1, 1, 1),) * 5, 3))[4] == (third, third, third)


def test_mix_weights_hold_int_numerators_over_one_denominator():
    half = Fraction(1, 2)
    w = MixWeights(((half, half, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0)))
    assert (w.num, w.den) == (((1, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (4, -2, 0)), 2)
    assert w == MixWeights(((1, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (4, -2, 0)), 2)
    assert weight_rows(w)[0] == (half, half, 0)
    # a Fraction entry over a given denominator: den * d = 1/3, so d = 1/9
    third = Fraction(1, 3)
    assert MixWeights(((third,) * 3,) * 5).den == 3
    assert weight_rows(MixWeights(((third, third, 7 * third),) * 5, 3))[0][0] == Fraction(1, 9)
    # the random draw keeps its numerators over 12
    w = MixWeights.random(derive_rng(1, "mix-den"))
    assert w.den == 12 and all(sum(r) == 12 for r in w.num)


def test_mix_weights_scale_fraction_rows_by_the_lcm_of_their_denominators():
    # num = den * lcm * d exactly, not reduced to lowest terms
    rng = derive_rng(3, "mix-fraction-rows")
    for _ in range(40):
        rows = []
        for _ in range(5):
            d1 = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
            d2 = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
            rows.append((d1, d2, 1 - d1 - d2))
        den = rng.randint(1, 4)
        given = tuple(tuple(den * x for x in r) for r in rows)
        scale = math.lcm(*(x.denominator for r in given for x in r))
        w = MixWeights(given, den)
        assert w.den == den * scale
        assert w.num == tuple(tuple(int(x * scale) for x in r) for r in given)
        assert all(type(n) is int for r in w.num for n in r)
        assert weight_rows(w) == tuple(rows)


def test_mix_weights_compare_and_hash_by_num_and_den():
    half = Fraction(1, 2)
    w = MixWeights(((half, half, 0),) * 5)
    same = MixWeights(((1, 1, 0),) * 5, 2)
    assert w == same and hash(w) == hash(same) and len({w, same}) == 1
    # the same rational weights over another denominator are other numerators
    assert w != MixWeights(((2, 2, 0),) * 5, 4)
    assert pure_weights(1) != pure_weights(2)
    assert w != (w.num, w.den)


def test_random_weights_are_the_rational_draw():
    """MixWeights.random draws what the rational draw a / b, a in -6..6 then
    b in 1..4, twice per row, draws: the same weights from the same calls."""
    for seed in range(30):
        drawn, reference = derive_rng(seed, "mix-draw"), derive_rng(seed, "mix-draw")
        weights = MixWeights.random(drawn)
        rows = []
        for _ in range(5):
            d1 = Fraction(reference.randint(-6, 6), reference.randint(1, 4))
            d2 = Fraction(reference.randint(-6, 6), reference.randint(1, 4))
            rows.append((d1, d2, 1 - d1 - d2))
        assert weight_rows(weights) == tuple(rows)
        assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("entry", [0.5, "1/2", True, False, None, 1.0])
def test_mix_weights_reject_entries_that_are_not_int_or_fraction(entry):
    rows = [(1, 0, 0)] * 5
    rows[3] = (1, entry, 0)
    with pytest.raises(ValueError, match=re.escape(f"weight row 4: entry {entry!r} ")):
        MixWeights(tuple(rows))


@pytest.mark.parametrize(
    "rows",
    [((0.5, 0.5, 0),) * 5, (("1/2", "1/2", 0),) * 5, ((True, False, 0),) * 5],
)
def test_mix_weights_reject_floats_strings_and_bools(rows):
    with pytest.raises(ValueError, match="weight row 1: entry .* is not an int or a Fraction"):
        MixWeights(rows)


def test_mix_weights_reject_bad_shapes_sums_and_denominators():
    with pytest.raises(ValueError, match="5x3"):
        MixWeights(((1, 0, 0),) * 4)
    with pytest.raises(ValueError, match="5x3"):
        MixWeights(((1, 0),) * 5)
    with pytest.raises(ValueError, match="sum to 1"):
        MixWeights(((1, 0, 0),) * 5, 2)
    for den in (0, -1, 2.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="denominator"):
            MixWeights(((1, 0, 0),) * 5, den)


@cache
def _mixed_workspace():
    L, a = make_instance(49, "mixed-oracle", 2, degree=1)
    return IdentityWorkspace(a, L)


def _rows_over_5_and_7(pairs):
    return tuple((Fraction(p, 5), Fraction(q, 7), 1 - Fraction(p, 5) - Fraction(q, 7))
                 for p, q in pairs)


weightings = st.one_of(
    st.integers(0, 2**32).map(lambda s: MixWeights.random(derive_rng(s, "mixed-oracle"))),
    st.sampled_from([1, 2, 3]).map(pure_weights),
    st.just(MixWeights(((1, 1, 1),) * 5, 3)),
    # denominators 5, 7 and 35, which the random draw never makes
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=5, max_size=5)
    .map(_rows_over_5_and_7).map(MixWeights),
)


@settings(max_examples=40, deadline=None)
@given(
    good=weightings,
    bad=weightings,
    n=st.integers(0, 16),
    k=st.integers(0, 16),
)
def test_integer_mixed_pieces_match_the_rational_oracle(good, bad, n, k):
    ws = _mixed_workspace()
    ic = identity_catalogue()[n]
    members, rational = [], []
    for member, weights in ((ic, good), (flipped(ic, k), bad)):
        pieces = ws.mixed_residual_pieces(member, weights)
        assert all(type(w) is int for w, _, _ in pieces)
        # the int pieces over den contract to the oracle's rational residual
        refs = mixed_refs_rational(member, weights)
        expected = ws._pieces([*ricci._lhs_refs(member.pqrs), *((-w, r, t) for w, r, t in refs)])
        rational.append(contract((1, 3), *expected))
        over_den = [(Fraction(w, weights.den), r, t) for w, r, t in pieces]
        assert contract((1, 3), *over_den) == rational[-1]
        members.append(pieces)
    # one packed check of both, each slot decoded over its own denominator
    found = nonzero_sums((1, 3), members, [good.den, bad.den])
    assert rational[0].is_zero()
    assert {m: (e, mono.terms()) for m, (e, mono) in found.items()} == (
        {} if rational[1].is_zero() else {1: _first_term(rational[1])}
    )


def _mixed_check(ws, pqrs, weights):
    """The check the CLI's mixed task makes, for one member and weighting:
    {} when the mixed-form residual is zero."""
    pieces = ws.mixed_residual_pieces(CATALOGUE_BY_PQRS[pqrs], weights)
    return nonzero_sums((1, 3), [pieces], [weights.den])


def test_mixed_family_pure_rows_reduce_to_single_rule():
    L, a = make_instance(32, "mix1", 3)
    ws = IdentityWorkspace(a, L)
    for l in (1, 2, 3):
        weights = pure_weights(l)
        for pqrs in ((1, 1, 1, 1), (3, 1, 3, 1)):
            assert _mixed_check(ws, pqrs, weights) == {}, (l, pqrs)


def test_mixed_family_uniform_and_random_weights():
    L, a = make_instance(33, "mix2", 3)
    ws = IdentityWorkspace(a, L)
    rng = derive_rng(33, "mixw")
    for pqrs in ((1, 2, 1, 1), (2, 2, 2, 2)):
        assert _mixed_check(ws, pqrs, MixWeights(((1, 1, 1),) * 5, 3)) == {}
        for _ in range(2):
            w = MixWeights.random(rng)
            assert _mixed_check(ws, pqrs, w) == {}, pqrs


def test_mixed_family_torsion_free():
    rng = derive_rng(34, "mixtf")
    L = random_symmetric_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    w = MixWeights.random(derive_rng(34, "w"))
    assert _mixed_check(IdentityWorkspace(a, L), (1, 1, 1, 1), w) == {}


# ---------------------------------------------------------------------------
# expanded (partial-derivative) form
# ---------------------------------------------------------------------------


def test_expanded_form_matches_covariant_form():
    L, a = make_instance(36, "exp", 3)
    ws = IdentityWorkspace(a, L)
    for pqrs in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 3, 1, 3)):
        ic = CATALOGUE_BY_PQRS[pqrs]
        assert rhs_expanded(ws, ic) == ws.rhs(ic), pqrs


def test_expanded_form_constant_fields():
    # constant tensor and connection: every partial vanishes and the check
    # compares the quadratic brackets alone
    L, a = make_instance(37, "expc", 3, degree=0)
    assert a.partial_gradient().is_zero()
    ws = IdentityWorkspace(a, L)
    for pqrs in ((1, 1, 1, 1), (3, 3, 3, 3)):
        ic = CATALOGUE_BY_PQRS[pqrs]
        assert rhs_expanded(ws, ic) == ws.rhs(ic), pqrs


def test_expanded_form_torsion_free():
    rng = derive_rng(38, "exptf")
    L = random_symmetric_connection(rng, 2, degree=1)
    a = random_tensor_field(rng, 2, (1, 1), degree=1)
    ws = IdentityWorkspace(a, L)
    ic = CATALOGUE_BY_PQRS[(1, 1, 1, 1)]
    assert rhs_expanded(ws, ic) == ws.r_commutator()


# ---------------------------------------------------------------------------
# batched (packed) residual checks
# ---------------------------------------------------------------------------


def _first_term(t):
    """(entry index tuple, {exponents: coefficient}) of the first nonzero
    entry of a tensor and its first term, or None for a zero tensor."""
    for idx, e in zip(itertools.product(range(t.dim), repeat=t.rank()), t.entries):
        if not e.is_zero():
            exps, coeff = next(iter(e.terms().items()))
            return idx, {exps: coeff}
    return None


def _assert_matches_reference(members, dens=None, valence=(1, 3)):
    """nonzero_sums agrees member by member with one contraction each, of
    member k's pieces over dens[k]."""
    found = nonzero_sums(valence, members, dens)
    expected = {}
    for k, pieces in enumerate(members):
        ref = contract(valence, *pieces) if pieces else None
        if ref is not None and not ref.is_zero():
            expected[k] = _first_term(ref.scale(Fraction(1, dens[k])) if dens else ref)
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
    found = _assert_matches_reference([ws.residual_pieces(ic) for ic in members])
    assert list(found) == list(range(1, 17, 3))
    if not even:  # the instance really carries Fraction coefficients
        assert any(
            type(v) is Fraction for e in ws.basis(6).entries for v in e.terms().values()
        )


@pytest.mark.parametrize("even", [True, False])
def test_batched_check_agrees_with_per_relation_residuals_at_valence_one_two(even):
    # the derivative relations weigh rules by 1/2: each such member is scaled
    # to ints, and that scale joins its den when its witness is decoded
    L, a = make_instance(49, f"batch-rel:{even}", 3, degree=1, even=even)
    relations = [terms for _, terms in derivative_relations(L, a)]
    assert any(type(w) is Fraction for terms in relations for w, _, _ in terms)
    # the last weight of every third relation off by 1/3: a residual over 6
    broken = [[*terms[:-1], (terms[-1][0] - Fraction(1, 3), *terms[-1][1:])]
              for terms in relations[::3]]
    members = [*relations, *broken]
    dens = [1 + 4 * (k % 2) for k in range(len(members))]  # dens 1 and 5
    found = _assert_matches_reference(members, dens, valence=(1, 2))
    assert list(found) == list(range(len(relations), len(members)))
    assert any(Fraction(c).denominator > 1 for _, mono in found.values()
               for c in mono.terms().values())


def test_batched_check_names_flips_in_first_middle_and_last_slot():
    L, a = make_instance(44, "batch-flip", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    catalogue = identity_catalogue()
    members = list(catalogue)
    for n in (0, 8, 16):
        members[n] = flipped(catalogue[n], n % 17)
    found = nonzero_sums((1, 3), [ws.residual_pieces(ic) for ic in members])
    assert list(found) == [0, 8, 16]
    for n, (entry, mono) in found.items():
        assert (entry, mono.terms()) == _first_term(ws.residual(members[n]))


def test_batched_check_decodes_negative_and_cancelling_slots():
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
    found = _assert_matches_reference(members)
    assert list(found) == [0, 1, 3, 5]
    (_, plus), (_, minus) = found[0], found[1]
    assert plus.terms() == (-minus).terms()


def test_batched_check_widens_slots_for_large_coefficients():
    T = random_tensor_field(derive_rng(46, "batch-wide-T"), 2, (1, 3), degree=1)
    big = T.scale(2**40)
    members = [
        [(1, "ijmn->ijmn", big), (-(2**40), "ijmn->ijmn", T)],  # exactly zero
        [(1, "ijmn->ijmn", big), (1 - 2**40, "ijmn->ijmn", T)],  # T, beside 2^40 T
        [(-1, "ijmn->ijmn", big)],
        [(1, "ijmn->ijmn", T), (-1, "ijnm->ijmn", T)],  # over 3
    ]
    found = _assert_matches_reference(members, [1, 1, 1, 3])
    assert list(found) == [1, 2, 3]
    entry, mono = found[2]
    assert (entry, mono.terms()) == _first_term(T.scale(-(2**40)))


def test_batched_mixed_check_matches_rational_residuals():
    L, a = make_instance(47, "batch-mixed", 2, degree=1)
    ws = IdentityWorkspace(a, L)
    rng = derive_rng(47, "batch-mixed-w")
    catalogue = identity_catalogue()
    members, residuals, dens = [], [], []
    for n, ic in enumerate(catalogue):
        weights = MixWeights.random(rng)
        member = flipped(ic, n % 17) if n % 4 == 2 else ic
        members.append(ws.mixed_residual_pieces(member, weights))
        residuals.append(ws.lhs(member.pqrs) - ws.rhs_mixed(member, weights))
        dens.append(weights.den)
    found = nonzero_sums((1, 3), members, dens)
    assert list(found) == [n for n, r in enumerate(residuals) if not r.is_zero()]
    assert list(found) == list(range(2, 17, 4))
    for n, (entry, mono) in found.items():
        assert (entry, mono.terms()) == _first_term(residuals[n])


def _packed_terms(monkeypatch, check, *args):
    """The terms of the packed contraction that ``check(*args)`` makes
    (its last algebra.contract call, made by nonzero_sums), and what
    ``check`` returned."""
    calls = []
    real = algebra.contract
    monkeypatch.setattr(algebra, "contract", lambda *a: calls.append(a) or real(*a))
    result = check(*args)
    monkeypatch.setattr(algebra, "contract", real)
    return calls[-1], result


def test_mixed_task_weights_stay_integers(monkeypatch):
    """A full mixed instance passes only int weights to contract, the packed
    check of nonzero_sums included, and no mixed piece weight is a
    Fraction."""
    contract_weights, piece_weights = [], []
    real_contract, real_pieces = ricci.contract, IdentityWorkspace.mixed_residual_pieces

    def contract_spy(valence, *terms, **kwargs):
        contract_weights.append([w for w, *_ in terms])
        return real_contract(valence, *terms, **kwargs)

    def pieces_spy(self, *args):
        pieces = real_pieces(self, *args)
        piece_weights.extend(w for w, _, _ in pieces)
        return pieces

    monkeypatch.setattr(ricci, "contract", contract_spy)
    monkeypatch.setattr(algebra, "contract", contract_spy)
    monkeypatch.setattr(IdentityWorkspace, "mixed_residual_pieces", pieces_spy)
    cli._need("ricci", "sampling")  # no subcommand has bound them
    results = cli._sweep(cli.RunConfig(seed=7, degree=1), "mixed", [(2, 0)])
    assert all(ok for _, ok, _ in results)
    assert len(piece_weights) > 17 * 5
    assert not any(isinstance(w, Fraction) for w in piece_weights)
    packed = contract_weights[-1]  # the one packed contraction, 85 slots wide
    assert max(map(abs, packed)).bit_length() > 85
    assert all(type(w) is int for ws in contract_weights for w in ws)


def test_members_with_the_same_residual_pieces_share_one_slot(monkeypatch):
    L, a = make_instance(48, "batch-share", 3, degree=1)
    ws = IdentityWorkspace(a, L)
    catalogue = identity_catalogue()
    pieces = [ws.residual_pieces(ic) for ic in catalogue]
    # every correct member folds to SSa - SSa^(m<->n) - rcomm
    assert all(p == pieces[0] for p in pieces)
    # 17 members pack exactly like one
    seventeen = _packed_terms(monkeypatch, ws.nonzero_residuals, catalogue)
    assert seventeen == _packed_terms(monkeypatch, nonzero_sums, (1, 3), pieces[:1])
    assert seventeen[1] == {}

    # two members flipped alike share a slot, and each is reported
    members = list(catalogue)
    for n in (4, 11):
        members[n] = flipped(catalogue[n], 6)
    pieces = [ws.residual_pieces(ic) for ic in members]
    assert pieces[4] == pieces[11] != pieces[0]
    terms, found = _packed_terms(monkeypatch, ws.nonzero_residuals, members)
    two = _packed_terms(monkeypatch, nonzero_sums, (1, 3), [pieces[0], pieces[4]])
    assert two == (terms, {1: found[4]})
    assert list(found) == [4, 11]
    assert found[4] == found[11]
    assert found == nonzero_sums((1, 3), pieces)

    # a slot is shared only by equal weights, reads and tensors
    T = ws.basis(6)
    crafted = {
        "a": [(1, ID, T), (-1, SWAP, T)],
        "b": [(1, ID, T), (-1, ID, T)],  # zero
        "c": [(2, ID, T), (-2, SWAP, T)],
        "d": [(1, ID, T)],
        "e": [(1, ID, T.scale(3))],
    }
    monkeypatch.setattr(ws, "residual_pieces", crafted.__getitem__)
    found = ws.nonzero_residuals(list(crafted))
    assert list(found) == [0, 2, 3, 4]
    assert found == nonzero_sums((1, 3), list(crafted.values()))


def test_verification_packs_distinct_residuals_and_names_the_corrupted_member(
    solved, monkeypatch
):
    pqrs = [p for p in ALL_COMBINATIONS if p not in CATALOGUE_BY_PQRS][-1]
    corrupted = dict(solved)
    corrupted[pqrs] = flipped(corrupted[pqrs], 9)
    terms, rows = _packed_terms(monkeypatch, _check, list(corrupted.values()))
    assert [tag for tag, ok, _ in rows if not ok] == [str(pqrs)]
    # 81 members, two distinct residuals: the true one and the corrupted
    ws = _workspace(20260809, "check:3:0", 3, 1)
    true = ws.residual_pieces(next(iter(solved.values())))
    bad = ws.residual_pieces(corrupted[pqrs])
    expected, found = _packed_terms(monkeypatch, nonzero_sums, (1, 3), [true, bad])
    assert terms == expected
    assert list(found) == [1]


def test_verification_failure_names_instance_member_entry_and_monomial(
    solved, monkeypatch
):
    pqrs = next(p for p in ALL_COMBINATIONS if p not in CATALOGUE_BY_PQRS)
    corrupted = dict(solved)
    corrupted[pqrs] = flipped(corrupted[pqrs], 5)
    monkeypatch.setattr(cli, "solve_all_identities", lambda: corrupted)
    monkeypatch.setattr(cli, "INSTANCE_DIMS", (3,))
    (check,) = cli.cmd_verify_ricci(cli.RunConfig(degree=1), "all").checks
    ws = _workspace(20260809, "check:3:0", 3, 1)
    entry, terms = _first_term(ws.residual(corrupted[pqrs]))
    assert not check.passed
    assert check.actual == f"error: {pqrs}: nonzero residual on a fresh instance"
    assert check.detail == {
        "seed": 20260809, "label": "check:3:0", "dim": 3,
        "entry": list(entry), "monomial": repr(ScalarField.from_terms(terms, 3)),
    }
