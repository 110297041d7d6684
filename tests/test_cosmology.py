import math
from fractions import Fraction

import pytest

from torsioncalc.ratfunc import Poly, RationalFunction
from torsioncalc.cosmology import (
    CosmologyMetric,
    DegenerateMetricError,
    antisym_christoffel_generic,
    antisym_christoffel_table,
    christoffel_first_kind_antisym,
    clear_metric_memo,
    energy_momentum,
    inverse_diagonal,
    levi_civita_connection,
    matter_lagrangian_paths,
    recover_n,
    scalar_curvature,
    scalar_curvature_family,
    torsion_scalar,
)
from torsioncalc.sampling import derive_rng

from oracles import christoffel_full_rf, curvature_tensor_rf, emc_residual_rf, random_symmetric_field


def _metric(s_lists, n_list, vw="1"):
    return CosmologyMetric.from_coefficients(s_lists, n_list, vw)


def _random_metric(rng, max_degree=2):
    def poly():
        degree = rng.randint(0, max_degree)
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]
        return coeffs

    vw = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return CosmologyMetric.from_coefficients(
        [poly(), poly(), poly(), poly()],
        [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))],
        vw,
    )


def _nondegenerate_metric(rng, max_degree=2):
    """Each s_i is a positive multiple of a product of factors (t + a) with
    a >= 1, so every root is at most -1 and the metric is nondegenerate on
    any window inside [0, oo).  n has degree at least 1, so L is not zero."""

    def positive():
        p = Poly((rng.randint(1, 3),))
        for _ in range(rng.randint(0, max_degree)):
            p = p * Poly((rng.randint(1, 3), 1))
        return p

    n = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])
    vw = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return CosmologyMetric(tuple(positive() for _ in range(4)), n, vw)


# ---------------------------------------------------------------------------
# ratfunc sanity
# ---------------------------------------------------------------------------


def test_rational_function_normalisation():
    t = Poly.t()
    r = RationalFunction(t * t - Poly((1,)), t - Poly((1,)))  # (t^2-1)/(t-1)
    assert r == RationalFunction(t + Poly((1,)))
    assert r.is_polynomial()


def test_rational_function_derivative():
    t = Poly.t()
    r = RationalFunction(Poly((1,)), t)  # 1/t
    assert r.derivative() == RationalFunction(Poly((-1,)), t * t)


def test_poly_gcd_monic():
    t = Poly.t()
    a = (t + Poly((1,))) * (t + Poly((2,))).scale(3)
    b = (t + Poly((1,))).scale(5)
    assert a.gcd(b) == t + Poly((1,))


def test_poly_has_root_in_matches_known_roots():
    # products of (t - r) with known rational roots, repeated roots, and the
    # root-free factor t^2 + 1; endpoints are drawn from the roots half the time
    rng = derive_rng(9, "sturm")
    t = Poly.t()
    for _ in range(200):
        roots = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        roots += roots[: rng.randint(0, len(roots))]
        p = Poly((rng.choice((-2, -1, 1, 3)),))
        for r in roots:
            p = p * (t - Poly((r,)))
        if rng.random() < 0.5:
            p = p * (t * t + Poly((1,)))
        ends = [
            rng.choice(roots) if roots and rng.random() < 0.5
            else Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            for _ in range(2)
        ]
        lo, hi = min(ends), max(ends)
        expected = any(lo <= r <= hi for r in roots)
        assert p.has_root_in(*ends) is expected, (p, ends)


# ---------------------------------------------------------------------------
# the lowered antisymmetric connection table
# ---------------------------------------------------------------------------


def test_antisym_table_vanishes_without_n():
    m = _metric([["1"], ["1", "1"], ["2"], ["1"]], ["0"])
    assert antisym_christoffel_table(m).is_zero()


def test_antisym_table_for_quadratic_n():
    # n = t^2: the six nonzero entries are -+ t
    m = _metric([["1"]] * 4, ["0", "0", "1"])
    table = antisym_christoffel_table(m)
    minus_t = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    plus_t = {(0, 2, 1), (2, 1, 0), (1, 0, 2)}
    for a in range(4):
        for j in range(4):
            for k in range(4):
                e = table.get(a, j, k)
                if (a, j, k) in minus_t:
                    assert repr(e) == "-x0"
                elif (a, j, k) in plus_t:
                    assert repr(e) == "x0"
                else:
                    assert e.is_zero()


def test_antisym_table_matches_generic_formula():
    rng = derive_rng(1, "table")
    for _ in range(5):
        m = _random_metric(rng)
        assert antisym_christoffel_table(m) == antisym_christoffel_generic(m)


def test_symmetric_metric_gives_zero_table():
    m = _metric([["1", "2"], ["3"], ["1", "0", "1"], ["2"]], ["0"])
    assert antisym_christoffel_table(m).is_zero()


def test_first_kind_antisym_vanishes_for_symmetric_metric():
    rng = derive_rng(6, "fk")
    g = random_symmetric_field(rng, 3)
    assert christoffel_first_kind_antisym(g).is_zero()


# ---------------------------------------------------------------------------
# scalar curvature family and the matter Lagrangian
# ---------------------------------------------------------------------------


def test_family_reduces_to_scalar_curvature_without_torsion():
    m = _metric([["1", "0", "2"], ["2"], ["1", "1"], ["3"]], ["0"])
    assert scalar_curvature_family(m) == scalar_curvature(m)


def test_family_minus_curvature_is_closed_form():
    rng = derive_rng(2, "fam")
    for _ in range(5):
        m = _random_metric(rng)
        gap = scalar_curvature_family(m) - scalar_curvature(m)
        dn = RationalFunction.from_value(m.n.derivative())
        s1, s2, s3 = (RationalFunction.from_value(p) for p in m.s[:3])
        closed = dn * dn / (s1 * s2 * s3) * (Fraction(3, 2) * m.vprime_minus_w)
        assert gap == closed


def test_flat_metric_family_value():
    # unit diagonal and n = t: curvature vanishes, torsion term is 3/2 (v'-w)
    m = _metric([["1"]] * 4, ["0", "1"], "1")
    assert scalar_curvature(m).is_zero()
    assert scalar_curvature_family(m) == RationalFunction.from_value(Fraction(3, 2))


def test_torsion_term_scales_quadratically_in_n():
    base = _metric([["2"], ["1", "1"], ["3"], ["1"]], ["0", "1", "2"], "1")
    scaled = _metric([["2"], ["1", "1"], ["3"], ["1"]],
                     ["0", "3", "6"], "1")  # n -> 3n
    assert torsion_scalar(scaled) == torsion_scalar(base) * 9


def test_matter_lagrangian_routes_agree():
    rng = derive_rng(3, "lm")
    for _ in range(20):
        m = _random_metric(rng)
        via, closed = matter_lagrangian_paths(m)
        assert via == closed


def test_matter_lagrangian_constant_n_vanishes():
    m = _metric([["1", "1"], ["2"], ["3"], ["1"]], ["5"])
    assert matter_lagrangian_paths(m)[1].is_zero()


def test_matter_lagrangian_quadratic_example():
    # unit spatial product, n = t^2, v'-w = 1: L = 6 t^2
    m = _metric([["1"]] * 4, ["0", "0", "1"], "1")
    assert matter_lagrangian_paths(m)[1] == RationalFunction.from_value(Poly((0, 0, 6)))


# ---------------------------------------------------------------------------
# energy-momentum family
# ---------------------------------------------------------------------------


def test_energy_momentum_vanishes_without_matter():
    m = _metric([["1", "1"], ["2"], ["3", "0", "1"], ["1"]], ["0"])
    T = energy_momentum(m)
    assert all(T[i][j].is_zero() for i in range(4) for j in range(4))


def test_energy_momentum_diagonal_pattern():
    rng = derive_rng(4, "em")
    for _ in range(5):
        m = _random_metric(rng)
        T = energy_momentum(m)
        lm = matter_lagrangian_paths(m)[1]
        s = [RationalFunction.from_value(p) for p in m.s]
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert T[i][j].is_zero()
        # the slot the Lagrangian does not depend on only keeps the g L term
        assert T[3][3] == s[3] * lm
        for i in range(3):
            assert T[i][i] == -s[i] * lm


def test_energy_momentum_symmetry():
    m = _random_metric(derive_rng(5, "sym"))
    T = energy_momentum(m)
    for i in range(4):
        for j in range(4):
            assert T[i][j] == T[j][i]


# ---------------------------------------------------------------------------
# quadrature recovery of n
# ---------------------------------------------------------------------------


def test_recover_zero_n():
    m = _metric([["1", "1"], ["2"], ["1"], ["1"]], ["0"])
    ts, n1, n2 = recover_n(m, 0, 1, 50)
    assert all(v == 0 for v in n1)
    assert all(v == 0 for v in n2)


def test_recover_linear_n_proportionality():
    # s = 1, n = t: the recovered function is sqrt(2/(3 vw)) * t
    for vw in (Fraction(1), Fraction(2, 3), Fraction(3, 2)):
        m = _metric([["1"]] * 4, ["0", "1"], vw)
        ts, n1, _ = recover_n(m, 0, 1, 200)
        const = math.sqrt(2.0 / (3.0 * float(vw)))
        err = max(abs(v - const * t) for t, v in zip(ts, n1))
        assert err < 1e-12
        # with vw = 2/3 the recovery is the identity on monotone n
        if vw == Fraction(2, 3):
            assert abs(n1[-1] - 1.0) < 1e-12


def test_recover_quadratic_n_against_analytic_integral():
    # s = 1, n = t^2, vw = 1: integrand = sqrt(6) t / (3/2) ... handled exactly:
    # n1(t) = (2/3) sqrt(3/2) * t^2 integrated from the closed form
    m = _metric([["1"]] * 4, ["0", "0", "1"], "1")
    ts, n1, _ = recover_n(m, 0, 1, 1000)
    const = (2.0 / 3.0) * math.sqrt(1.5)
    err = max(abs(v - const * t * t) for t, v in zip(ts, n1))
    assert err < 1e-8


def test_recover_sign_symmetry():
    m = _nondegenerate_metric(derive_rng(6, "sign"))
    ts, n1, n2 = recover_n(m, 0, 1, 40)
    assert len(n1) == len(n2) == 41
    assert any(n1)  # n is not constant, so the symmetry is not checked on zeros
    assert all(a + b == 0 for a, b in zip(n1, n2))


def test_recover_rejects_bad_parameters():
    m = _metric([["1"]] * 4, ["0", "1"], "-1")
    with pytest.raises(ValueError):
        recover_n(m, 0, 1, 10)
    m2 = _metric([["1"]] * 4, ["0", "1"], "1")
    with pytest.raises(ValueError):
        recover_n(m2, 0, 1, 0)


def test_recover_detects_pole():
    # s1 = t vanishes at the left endpoint
    m = _metric([["0", "1"], ["1"], ["1"], ["1"]], ["0", "1"], "1")
    with pytest.raises(ZeroDivisionError):
        recover_n(m, 0, 1, 10)


@pytest.mark.parametrize(
    "slot, coeffs",
    [
        (0, ["-1/3", "1"]),  # t = 1/3 lies strictly between grid points
        (1, ["-1", "1"]),  # root at the right endpoint
        (2, ["1/4", "-1", "1"]),  # double root (t - 1/2)^2, no sign change
        (3, ["-1/2", "0", "1"]),  # irrational root 1/sqrt(2), in s4
    ],
)
def test_recover_rejects_root_on_window(slot, coeffs):
    s_lists = [["1"]] * 4
    s_lists[slot] = coeffs
    m = _metric(s_lists, ["0", "1"])
    with pytest.raises(DegenerateMetricError, match=rf"^s{slot + 1} = .* \[0, 1\]") as info:
        recover_n(m, 0, 1, 10)
    assert isinstance(info.value, ZeroDivisionError)


def test_recover_accepts_negative_nonvanishing_s():
    # s1 = -1 - t^2 never vanishes: the recovery equals the all-ones one,
    # since the radicand reduces to (3/2)(v'-w) n'^2 either way
    n = ["0", "0", "1"]
    _, n1, _ = recover_n(_metric([["-1", "0", "-1"], ["1"], ["1"], ["1"]], n), 0, 1, 10)
    _, ones, _ = recover_n(_metric([["1"]] * 4, n), 0, 1, 10)
    assert any(n1)
    assert n1 == ones


def _reference_recover_n(m, t0, t1, steps):
    """recover_n's quadrature with the radicand kept as a rational function
    and evaluated in Fractions at every node of every panel."""
    radicand = matter_lagrangian_paths(m)[1]
    for p in m.s[:3]:
        radicand = radicand * RationalFunction(p)
    prefactor = 2 / (3 * float(m.vprime_minus_w))

    def integrand(t):
        return math.sqrt(float(radicand.evaluate(t))) * prefactor

    t0, t1 = Fraction(t0), Fraction(t1)
    h = (t1 - t0) / steps
    ts = [float(t0 + k * h) for k in range(steps + 1)]
    n1 = [0.0]
    acc = 0.0
    for k in range(steps):
        a = t0 + k * h
        b = a + h
        acc += float(h) / 6.0 * (integrand(a) + 4.0 * integrand((a + b) / 2) + integrand(b))
        n1.append(acc)
    return ts, n1, [-x for x in n1]


@pytest.mark.parametrize(
    "window, steps",
    [
        (("0", "1"), 1),
        (("0", "2"), 200),
        (("1/3", "5/2"), 301),
        (("2/7", "3"), 47),
        (("-1/9", "1/9"), 9),
    ],
)
def test_recover_floats_match_exact_node_evaluation(window, steps):
    rng = derive_rng(12, f"quadrature:{window}")
    for _ in range(4):
        m = _nondegenerate_metric(rng)  # every root of every s_i is <= -1
        assert recover_n(m, *window, steps) == _reference_recover_n(m, *window, steps)


def test_scalar_curvature_equals_full_contraction():
    rng = derive_rng(13, "contraction")
    for _ in range(6):
        m = _random_metric(rng)
        R = curvature_tensor_rf(m)
        inv = inverse_diagonal(m)
        full = RationalFunction(Poly())
        for a in range(4):
            for c in range(4):
                full = full + inv[a] * R[c][a][a][c]
        assert scalar_curvature(m) == full


def test_per_metric_memo_hits_equal_metrics_only():
    clear_metric_memo()
    lists = [["1", "1"], ["2", "0", "1"], ["3"], ["1", "2"]]
    first = scalar_curvature(_metric(lists, ["0", "1", "1"]))
    hits = scalar_curvature.cache_info().hits
    # an equal metric built separately is a hit and returns an equal value
    again = scalar_curvature(_metric(lists, ["0", "1", "1"]))
    assert scalar_curvature.cache_info().hits == hits + 1
    assert again == first
    changed = [["1", "1"], ["2", "0", "2"], ["3"], ["1", "2"]]
    other = scalar_curvature(_metric(changed, ["0", "1", "1"]))
    assert scalar_curvature.cache_info().hits == hits + 1
    assert other != first
    clear_metric_memo()
    assert scalar_curvature.cache_info().currsize == 0
    assert scalar_curvature(_metric(lists, ["0", "1", "1"])) == first


# ---------------------------------------------------------------------------
# full connection and compatibility residual
# ---------------------------------------------------------------------------


def test_full_connection_antisym_part_matches_lowered_route():
    rng = derive_rng(7, "anti")
    m = _random_metric(rng)
    G = christoffel_full_rf(m)
    table = antisym_christoffel_table(m)
    inv = inverse_diagonal(m)
    half = Fraction(1, 2)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                anti = (G[i][j][k] - G[i][k][j]) * half
                coeffs = [
                    table.get(i, j, k).terms().get((d, 0, 0, 0), 0) for d in range(10)
                ]
                assert anti == inv[i] * RationalFunction.from_value(Poly(coeffs))


def test_full_connection_symmetric_metric_reduces_to_levi_civita():
    m = _metric([["1", "0", "1"], ["2"], ["1", "2"], ["4"]], ["0"])
    G = christoffel_full_rf(m)
    LC = levi_civita_connection(m)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert G[i][j][k] == LC[i][j][k]


def test_emc_residual_reported():
    # no vanishing claim; the residual is zero for the torsion-free case
    m0 = _metric([["1", "0", "1"], ["2"], ["1", "2"], ["4"]], ["0"])
    res = emc_residual_rf(m0)
    assert all(
        res[i][j][k].is_zero() for i in range(4) for j in range(4) for k in range(4)
    )
    m1 = _random_metric(derive_rng(8, "emc"))
    res1 = emc_residual_rf(m1)
    assert any(
        not res1[i][j][k].is_zero()
        for i in range(4)
        for j in range(4)
        for k in range(4)
    )


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------


def test_metric_construction_validation():
    with pytest.raises(ValueError, match="^need exactly four diagonal coefficient lists$"):
        CosmologyMetric.from_coefficients([["1"], ["1"], ["1"]], ["0"], "1")
    with pytest.raises(ValueError, match="^diagonal entries must not be identically zero$"):
        CosmologyMetric.from_coefficients([["0"], ["1"], ["1"], ["1"]], ["0"], "1")
    with pytest.raises(ValueError, match="^need exactly four diagonal polynomials$"):
        CosmologyMetric((Poly((1,)),) * 3, Poly(), Fraction(1))


def test_metrics_compare_and_hash_by_their_fields():
    # the per-metric memo keys on them (test_per_metric_memo_hits_equal_metrics_only)
    first = _metric([["1", "1"], ["1"], ["2", "1"], ["1"]], ["0", "1"], "1/3")
    second = CosmologyMetric(
        (Poly((1, 1)), Poly((1,)), Poly((2, 1)), Poly((1,))), Poly((0, 1)), Fraction(1, 3)
    )
    assert first is not second
    assert first == second and hash(first) == hash(second) and len({first, second}) == 1
    assert first != _metric([["1", "1"], ["1"], ["2", "1"], ["1"]], ["0", "1"], "1/2")
    assert first != _metric([["1", "1"], ["1"], ["2", "1"], ["1"]], ["0", "2"], "1/3")
    assert first != _metric([["1", "1"], ["1"], ["2", "1"], ["2"]], ["0", "1"], "1/3")
    assert first != (first.s, first.n, first.vprime_minus_w)
