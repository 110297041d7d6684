import importlib
import inspect
import itertools
import json
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torsioncalc
from torsioncalc import algebra, cli, ricci
from torsioncalc.algebra import (
    ExponentOverflowError,
    LinearSystem,
    ScalarField,
    TensorField,
    contract,
    matrix_rank,
)
from torsioncalc.sampling import derive_rng, random_scalar_field, random_tensor_field

# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


def test_partial_of_constant_is_zero():
    f = ScalarField(3, {0: 5})
    assert f.partial(0).is_zero()


def test_partial_power_rule():
    f = ScalarField.from_terms({(2, 1, 0): 1}, 3)  # x0^2 x1
    expected = ScalarField.from_terms({(1, 1, 0): 2}, 3)
    assert f.partial(0) == expected


def test_partial_index_out_of_range():
    f = ScalarField(2, {0: 1})
    with pytest.raises(IndexError):
        f.partial(2)


def test_partials_commute_on_random_fields():
    rng = derive_rng(1, "commute")
    for _ in range(50):
        f = random_scalar_field(rng, 3, degree=3)
        assert f.partial(0).partial(1) == f.partial(1).partial(0)


def _degree(f):
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, f.terms()), default=-1)


def test_partial_lowers_degree_by_one():
    rng = derive_rng(1, "degree")
    for _ in range(20):
        f = random_scalar_field(rng, 2, degree=3)
        if _degree(f) < 1:
            continue
        for k in range(2):
            df = f.partial(k)
            if not df.is_zero():
                assert _degree(df) == _degree(f) - 1 or _degree(df) < _degree(f)


def test_terms_round_trip():
    terms = {(1, 0): Fraction(3, 2), (0, 2): -1}
    f = ScalarField.from_terms(terms, 2)
    assert f.terms() == {(1, 0): Fraction(3, 2), (0, 2): -1}


def test_constant_part_keeps_each_entrys_constant_term():
    rng = derive_rng(2, "constant-part")
    t = random_tensor_field(rng, 3, (1, 2), degree=2)
    origin = (0, 0, 0)
    expected = [
        ScalarField.from_terms({origin: e.terms().get(origin, 0)}, 3) for e in t.entries
    ]
    part = t.constant_part()
    assert part.valence == (1, 2) and part.entries == expected
    assert any(e.is_zero() for e in expected) and not part.is_zero()


@pytest.mark.parametrize("dim", [1, 2])
def test_product_exponent_overflow_is_named(dim):
    # exponents are packed 8 bits per coordinate; 200 + 100 would carry into
    # the next slot (x0^44*x1 in dim 2, a phantom degree-45 x0^44 in dim 1)
    pad = (0,) * (dim - 1)
    x200 = ScalarField.from_terms({(200, *pad): 1}, dim)
    x100 = ScalarField.from_terms({(100, *pad): 1, (0, *pad): 3}, dim)
    with pytest.raises(ExponentOverflowError, match="x0: exponents 200 \\+ 100"):
        x200 * x100
    assert issubclass(ExponentOverflowError, ValueError)
    # the largest exponent that fits still multiplies exactly
    x55 = ScalarField.from_terms({(55, *pad): 2}, dim)
    assert x200 * x55 == ScalarField.from_terms({(255, *pad): 2}, dim)
    assert _degree(x200 * x55) == 255
    assert (x200 * ScalarField(dim)).is_zero()


def test_contract_products_check_exponent_overflow():
    # contract multiplies raw term dicts; like ScalarField * it must refuse
    # a product whose packed exponents would carry into the next slot
    def field(e):
        return TensorField(2, (0, 1), [ScalarField.from_terms({(e, 0): 1}, 2)] * 2)

    with pytest.raises(ExponentOverflowError, match="x0: exponents 200 \\+ 100"):
        contract((0, 2), (1, "a,b->ab", field(200), field(100)))
    with pytest.raises(ExponentOverflowError, match="x0: exponents 100 \\+ 100 \\+ 100"):
        contract((0, 0), (1, "a,a,a->", field(100), field(100), field(100)))
    cube = contract((0, 0), (1, "a,a,a->", field(85), field(85), field(85)))
    assert cube.get() == ScalarField.from_terms({(255, 0): 2}, 2)


small_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def fields(draw, dim=2, degree=2):
    exps = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    coeffs = draw(st.lists(small_coeffs, min_size=len(exps), max_size=len(exps)))
    return ScalarField.from_terms(dict(zip(exps, coeffs)), dim)


@settings(max_examples=60, deadline=None)
@given(fields(), fields(), fields())
def test_ring_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@settings(max_examples=60, deadline=None)
@given(fields(), fields())
def test_partial_is_a_derivation(f, g):
    lhs = (f * g).partial(0)
    rhs = f.partial(0) * g + f * g.partial(0)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# tensor fields
# ---------------------------------------------------------------------------


def test_kronecker_trace_is_dimension():
    from oracles import kronecker_delta

    for dim in (2, 3, 4):
        delta = kronecker_delta(dim)
        trace = contract((0, 0), (1, "aa->", delta))
        assert trace.get() == ScalarField(dim, {0: dim})


def test_trace_of_constant_diagonal():
    one = ScalarField(2, {0: 1})
    two = ScalarField(2, {0: 2})
    zero = ScalarField(2)
    a = TensorField(2, (1, 1), [one, zero, zero, two])
    assert contract((0, 0), (1, "aa->", a)).get() == ScalarField(2, {0: 3})


def test_contract_matches_explicit_loop():
    rng = derive_rng(2, "contract")
    a = random_tensor_field(rng, 3, (1, 1), degree=1)
    b = random_tensor_field(rng, 3, (0, 1), degree=1)
    prod = contract((1, 2), (1, "ij,k->ijk", a, b))  # lower order (j from a, k from b)
    contracted = contract((0, 1), (1, "iik->k", prod))
    # brute-force oracle: c_k = sum_i a^i_i b_k
    for k in range(3):
        total = ScalarField(3)
        for i in range(3):
            total = total + a.get(i, i) * b.get(k)
        assert contracted.get(k) == total


def test_tensor_addition_shape_checks():
    a = TensorField(2, (1, 1), [ScalarField(2)] * 4)
    b = TensorField(2, (0, 2), [ScalarField(2)] * 4)
    with pytest.raises(ValueError):
        a + b


def test_swap_last_lower_swaps_the_final_lower_pair():
    t = random_tensor_field(derive_rng(5, "swap"), 2, (1, 2), degree=1)
    swapped = t.swap_last_lower()
    for i, j, k in itertools.product(range(2), repeat=3):
        assert swapped.get(i, j, k) == t.get(i, k, j)
    with pytest.raises(ValueError, match="two lower indices"):
        TensorField(2, (1, 1), [ScalarField(2)] * 4).swap_last_lower()


def test_partial_gradient_appends_index():
    rng = derive_rng(4, "grad")
    a = random_tensor_field(rng, 2, (1, 1), degree=2)
    g = a.partial_gradient()
    assert g.valence == (1, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert g.get(i, j, k) == a.get(i, j).partial(k)


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------


def _reference_contract(valence, dim, terms):
    """Entry by entry from get, ScalarField * and +: every assignment of the
    summed letters, each product of operand entries times the weight."""

    def entry(*out_idx):
        total = ScalarField(dim)
        for weight, spec, *tensors in terms:
            inputs, output = spec.split("->")
            operands = inputs.split(",")
            summed = sorted(set("".join(operands)) - set(output))
            for values in itertools.product(range(dim), repeat=len(summed)):
                env = {**dict(zip(output, out_idx)), **dict(zip(summed, values))}
                prod = ScalarField(dim, {0: 1})
                for letters, t in zip(operands, tensors):
                    prod = prod * t.get(*(env[c] for c in letters))
                total = total + prod.scale(weight)
        return total

    return TensorField.build(dim, valence, entry)


# (output valence, [(weight, spec, operand valences)]); operands are drawn
# fresh for every operand slot
CONTRACT_CASES = {
    "permutation": ((1, 2), [(1, "ijk->ikj", [(1, 2)])]),
    "cyclic": ((1, 2), [(1, "kij->ijk", [(1, 2)])]),
    "trace": ((0, 1), [(1, "iij->j", [(1, 2)])]),
    "full-trace": ((0, 0), [(1, "ii->", [(1, 1)])]),
    "two-operand": ((1, 2), [(1, "iA,Ajk->ijk", [(1, 1), (1, 2)])]),
    "negated-outer": ((1, 2), [(-1, "ij,k->ijk", [(1, 1), (0, 1)])]),
    "weight-3": ((1, 3), [(3, "Aj,iAmn->ijmn", [(1, 1), (1, 3)])]),
    "three-operand": ((1, 3), [(-1, "AB,iAm,Bjn->ijmn", [(1, 1), (1, 2), (1, 2)])]),
    "fraction-three-operand": (
        (1, 3), [(Fraction(-2, 3), "iAm,Bjn,AB->ijmn", [(1, 2), (1, 2), (1, 1)])]
    ),
    "four-operand": (
        (1, 3), [(2, "AB,iAm,Bj,n->ijmn", [(1, 1), (1, 2), (1, 1), (0, 1)])]
    ),
    "mixed-terms": (
        (1, 3),
        [
            (1, "ijmn->ijmn", [(1, 3)]),
            (-1, "ijnm->ijmn", [(1, 3)]),
            (Fraction(5, 2), "Ajm,iAn->ijmn", [(1, 2), (1, 2)]),
            (-2, "iA,Ajmn->ijmn", [(1, 1), (1, 3)]),
            (0, "iA,Ajmn->ijmn", [(1, 1), (1, 3)]),
        ],
    ),
}


# diagonals, traces, and three or four operands, beyond the package's specs
PLAN_SPECS = (
    "ii->i", "ii->", "iij->j", "iji->j", "ijj,jk->ik", "aa,aa->a", "iAA,jB->ijB",
    "ij,jk,kl->il", "ab,bc,ca->", "a,a,a->", "AB,iAm,Bj,n->ijmn", "iAm,Bjn,AB->ijmn",
)


def _specs_the_package_plans(tmp_path, monkeypatch):
    """Every spec that one small run of each subcommand plans, the pair
    specs of three-operand terms included."""
    seen, plan = set(), algebra._contraction_plan

    def recording(spec, dim):
        seen.add(spec)
        return plan(spec, dim)

    monkeypatch.setattr(algebra, "_contraction_plan", recording)
    cosmology = {
        "s1": ["1", "1"], "s2": ["1"], "s3": ["2", "1"], "s4": ["1"], "n": ["0", "1"],
        "vprime_minus_w": "1/3", "panels": 10,
    }
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"dimension": 2, "degree": 1, "instances": 1, "cosmology": cosmology})
    )
    for argv in (
        ["verify-derivatives"], ["verify-ricci", "--scope", "all"],
        ["verify-ricci", "--scope", "mixed"], ["rank-rho"], ["cosmology"],
    ):
        assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
    return seen


def test_contraction_plans_match_the_entrywise_offsets(tmp_path, monkeypatch):
    from oracles import contraction_plan_entrywise

    built = algebra._contraction_plan.__wrapped__  # uncached, and not the recorder below
    seen = _specs_the_package_plans(tmp_path, monkeypatch)
    # curvature_R's, covariant derivatives' of a (1,1) and a (1,2) tensor,
    # and the pair step of a three-operand basis term
    assert {"Ajm,iAn->ijmn", "aAc,Ab->abc", "aAd,Abc->abcd", "iAm,AB->imB"} <= seen
    tables = {
        ricci.ID, ricci.SWAP, *ricci._DTERM_SPECS,
        *(spec for spec, *_ in ricci._BLOCKS.values()), *(row[2] for row in ricci._BASIS),
    }
    for spec in sorted(seen | tables | set(PLAN_SPECS)):
        for dim in (1, 2, 3, 4):
            assert built(spec, dim) == contraction_plan_entrywise(spec, dim), (spec, dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_contract_matches_reference(case, dim):
    rng = derive_rng(11, f"contract:{case}:{dim}")
    valence, table = CONTRACT_CASES[case]
    terms = [
        (weight, spec, *(random_tensor_field(rng, dim, v, degree=1) for v in valences))
        for weight, spec, valences in table
    ]
    result = contract(valence, *terms)
    assert result.valence == valence
    assert result == _reference_contract(valence, dim, terms)


def test_contract_rejects_mistyped_specs():
    rng = derive_rng(12, "contract-errors")
    a = random_tensor_field(rng, 3, (1, 1), degree=1)
    b = random_tensor_field(rng, 3, (1, 2), degree=1)
    a2 = random_tensor_field(rng, 2, (1, 1), degree=1)
    with pytest.raises(ValueError, match="2 index letters for a rank-3 operand"):
        contract((1, 1), (1, "iA,Aj->ij", a, b))  # b has three slots
    with pytest.raises(ValueError, match="names 2 operand"):
        contract((1, 1), (1, "iA,Aj->ij", a))
    with pytest.raises(ValueError, match="appear in no operand"):
        contract((1, 2), (1, "iA,Aj->ijk", a, a))
    with pytest.raises(ValueError, match="share one dimension"):
        contract((1, 1), (1, "iA,Aj->ij", a, a2))
    # the same checks hold across terms and for zero-weight terms
    with pytest.raises(ValueError, match="share one dimension"):
        contract((1, 1), (1, "ij->ij", a), (1, "ij->ij", a2))
    with pytest.raises(ValueError, match="3 index letters for a rank-2 operand"):
        contract((1, 1), (1, "ij->ij", a), (0, "ijk->ij", a))


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_rank_identity():
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_full_by_determinant_oracle():
    rows = [[1, 1, -1], [1, -1, 1], [1, 1, 1]]
    assert _det3(rows) == -4  # nonzero, so the rank must be 3
    assert matrix_rank(rows) == 3


def test_rank_deficient_row_combination():
    # third row = 2 * first - second
    rows = [[1, 0, 0], [1, 1, -1], [1, -1, 1]]
    assert [2 * rows[0][j] - rows[1][j] for j in range(3)] == rows[2]
    assert matrix_rank(rows) == 2


def test_rank_transpose_invariant():
    rng = derive_rng(5, "rank")
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(3)
        ]
        assert matrix_rank(rows) == matrix_rank(zip(*rows))


def test_linear_system_unique_solution():
    system = LinearSystem(2, nrhs=1)
    system.add_row([1, 1], [3])
    system.add_row([1, -1], [1])
    assert system.solve() == [Fraction(2), Fraction(1)]


def test_linear_system_underdetermined():
    system = LinearSystem(2, nrhs=1)
    system.add_row([1, 1], [3])
    with pytest.raises(ValueError):
        system.solve()


def test_linear_system_flags_inconsistency():
    system = LinearSystem(2, nrhs=1)
    system.add_row([1, 1], [3])
    system.add_row([1, -1], [1])
    system.add_row([2, 0], [4])  # dependent and consistent
    assert system.inconsistent is False
    system.add_row([2, 0], [5])  # the same row with another value
    assert system.inconsistent is True
    with pytest.raises(ValueError, match="^system is inconsistent$"):
        system.solve()


@pytest.mark.parametrize("nrhs", [2, -1])
def test_linear_system_takes_at_most_one_right_side(nrhs):
    with pytest.raises(ValueError, match="0 or 1 right sides"):
        LinearSystem(2, nrhs=nrhs)
    system = LinearSystem(2, nrhs=0)
    system.add_row([1, 0])
    system.add_row([0, 1])
    with pytest.raises(ValueError, match="row shape mismatch"):
        system.add_row([1, 1], [2])
    with pytest.raises(ValueError, match="no right side"):
        system.solve()


def _fraction_reference(rows, rhs):
    """(rank, consistent, solution or None) of one right side, by textbook
    Gauss-Jordan elimination over Fractions on the augmented matrix."""
    m = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    rank, pivots = 0, []
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    consistent = all(r[-1] == 0 for r in m[rank:])
    solution = None
    if consistent and rank == ncols:
        solution = [m[pivots.index(c)][-1] for c in range(ncols)]
    return rank, consistent, solution


def _random_rational(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


@pytest.mark.parametrize("shape", ["tall", "wide", "deficient"])
def test_matrix_rank_matches_fraction_reference(shape):
    rng = derive_rng(17, f"rank:{shape}")
    for _ in range(8):
        ncols = rng.randint(2, 6)
        nrows = {"tall": ncols + 3, "wide": max(1, ncols - 2)}.get(shape, ncols + 1)
        rows = [[_random_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        if shape == "deficient":
            # every row after the second is a rational combination of the first two
            for r in rows[2:]:
                f, g = _random_rational(rng), _random_rational(rng)
                r[:] = [f * x + g * y for x, y in zip(rows[0], rows[1])]
        rank = _fraction_reference(rows, [0] * nrows)[0]
        assert matrix_rank(rows) == rank
        if shape == "deficient":
            assert rank <= 2


def test_matrix_rank_rejects_empty_and_ragged_rows():
    with pytest.raises(ValueError):
        matrix_rank([])
    with pytest.raises(ValueError):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        matrix_rank(iter([[1], [2, 3]]))


def test_add_row_reports_a_new_pivot_exactly_when_the_rank_grows():
    rng = derive_rng(19, "add_row")
    system = LinearSystem(4, nrhs=1)
    rows = [[_random_rational(rng) for _ in range(4)] for _ in range(3)]
    rows += [
        [Fraction(-3, 2) * x for x in rows[0]],  # proportional to the first
        [x - y for x, y in zip(rows[1], rows[2])],  # a combination
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    for r in rows:
        before = system.rank
        added = system.add_row(r, [_random_rational(rng)])
        assert added is (system.rank == before + 1)
        assert system.rank in (before, before + 1)
    assert system.rank == 4


@pytest.mark.parametrize("shape", ["unique", "underdetermined", "inconsistent", "fractional"])
def test_fraction_free_linear_system_matches_fraction_reference(shape):
    rng = derive_rng(13, f"linsys:{shape}")
    for _ in range(6):
        ncols = rng.randint(2, 5)
        nrows = {"underdetermined": ncols - 1}.get(shape, ncols + 3)
        if shape == "inconsistent":
            # the last rows repeat earlier ones, so rank stays below nrows
            base = [[_random_rational(rng) for _ in range(ncols)] for _ in range(ncols)]
            rows = base + [base[k][:] for k in range(3)]
        else:
            rows = [[_random_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
        if shape == "unique":
            rows = [[int(x * 12) for x in r] for r in rows]
        x = [_random_rational(rng, -9, 9) for _ in range(ncols)]
        if shape == "fractional":
            x[0] = Fraction(2 * rng.randint(1, 9) + 1, 2)  # never integral
        consistent_rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
        random_rhs = [_random_rational(rng) for _ in rows]
        if shape == "inconsistent":
            consistent_rhs[-1] += 1  # a repeated row with a different value

        systems = []
        for rhs in (consistent_rhs, random_rhs):
            system = LinearSystem(ncols, nrhs=1)
            for r, b in zip(rows, rhs):
                system.add_row(r, [b])
            rank, consistent, solution = _fraction_reference(rows, rhs)
            assert system.rank == rank
            assert system.inconsistent == (not consistent)
            if rank < ncols:
                with pytest.raises(ValueError, match="underdetermined"):
                    system.solve()
            elif not consistent:
                with pytest.raises(ValueError, match="inconsistent"):
                    system.solve()
            else:
                assert system.solve() == solution
            systems.append(system)
        system = systems[0]  # the right side made from x
        if shape in ("unique", "fractional"):
            assert system.solve() == x
            assert all(type(v) is Fraction for v in system.solve())
        if shape == "fractional":
            assert system.solve()[0].denominator == 2
        if shape == "inconsistent":
            assert system.inconsistent
        if shape == "underdetermined":
            assert system.rank < ncols


def test_linear_system_keeps_integer_rows():
    system = LinearSystem(3, nrhs=1)
    system.add_row([Fraction(1, 2), Fraction(1, 3), 0], [Fraction(5, 6)])
    system.add_row([2, -1, 4], [7])
    system.add_row([0, 3, 1], [Fraction(-1, 2)])
    for row in system._pivot_rows.values():
        assert all(type(v) is int for v in row)
    x = system.solve()
    rows = [[Fraction(1, 2), Fraction(1, 3), 0], [2, -1, 4], [0, 3, 1]]
    assert [sum(a * b for a, b in zip(r, x)) for r in rows] == [
        Fraction(5, 6), 7, Fraction(-1, 2)
    ]


class _RecordingSystem(LinearSystem):
    """A LinearSystem that records each row and the rank before it."""

    def __init__(self, ncols, nrhs):
        super().__init__(ncols, nrhs)
        self.fed = []

    def add_row(self, coeffs, rhs=()):
        self.fed.append((self.rank, list(coeffs), list(rhs)))
        return super().add_row(coeffs, rhs)


def _explicit_rows(valence, sums):
    """Per entry of ``valence`` (row-major), the rows equating the sums'
    coefficients: one per monomial that some sum carries, ordered by the
    last exponent first, then the one before (the packed-key order)."""
    tensors = [contract(valence, *terms) for terms in sums]
    per_entry = []
    for fields in zip(*(t.entries for t in tensors)):
        terms = [f.terms() for f in fields]
        monomials = sorted(set().union(*terms), key=lambda exps: exps[::-1])
        per_entry.append([[t.get(m, 0) for t in terms] for m in monomials])
    return per_entry


@pytest.mark.parametrize("full_rank", [True, False])
def test_add_coefficient_rows_flattens_entries_and_stops_at_full_rank(full_rank):
    rng = derive_rng(60, f"coefficient-rows:{full_rank}")
    A, B, C = (random_tensor_field(rng, 2, (1, 1), degree=2) for _ in range(3))
    third = C if full_rank else A  # else columns[2] = columns[0] + columns[1]
    columns = [
        [(Fraction(1, 2), "ij->ij", A)],
        [(2, "ji->ij", B), (-1, "ij->ij", B)],
        [(Fraction(1, 2), "ij->ij", third), (2, "ji->ij", B), (-1, "ij->ij", B)],
    ]
    fields = [contract((1, 1), *terms) for terms in columns]
    drawn = []

    def entries():
        for e in range(4):
            drawn.append(e)
            yield [t.entries[e] for t in fields]

    system = _RecordingSystem(3, 0)
    system.add_coefficient_rows(entries())

    per_entry = _explicit_rows((1, 1), columns)
    reference, expected = LinearSystem(3, 0), []
    for rows in per_entry:  # fed whole entries until the rank is 3
        if reference.rank == 3:
            break
        for row in rows:
            reference.add_row(row)
            expected.append(row)
    assert [coeffs for _, coeffs, _ in system.fed] == expected
    assert all(rhs == [] for _, _, rhs in system.fed)
    assert system._pivot_rows == reference._pivot_rows
    if full_rank:
        # the rank reaches 3 inside the first entry: that entry is fed to its
        # end, and the other three are never drawn
        assert system.rank == 3 and len(expected) == len(per_entry[0])
        assert [rank for rank, _, _ in system.fed].count(3) > 0
        assert drawn == [0]
    else:
        assert system.rank == 2 and len(expected) == sum(map(len, per_entry))
        assert drawn == [0, 1, 2, 3]


def test_only_algebra_knows_the_packed_term_format():
    # every other module works through contract, nonzero_sums and
    # LinearSystem: it binds no private name of algebra and reads no ._terms
    private = {
        name: value
        for name, value in vars(algebra).items()
        if name.startswith("_") and not name.startswith("__")
    }
    offenders = {}
    for info in pkgutil.iter_modules(torsioncalc.__path__):
        if info.name == "algebra":
            continue
        module = importlib.import_module(f"torsioncalc.{info.name}")
        found = sorted(
            name
            for name, value in vars(module).items()
            if not name.startswith("__")
            and (name in private or any(value is v for v in private.values() if callable(v)))
        )
        if "._terms" in inspect.getsource(module):
            found.append("._terms")
        if found:
            offenders[info.name] = found
    assert offenders == {}
