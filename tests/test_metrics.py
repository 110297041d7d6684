from fractions import Fraction

import pytest

from torsioncalc.algebra import ScalarField, TensorField
from torsioncalc.connection import ConnectionField, DerivKind, covariant_derivative
from torsioncalc.cosmology import christoffel_first_kind_antisym
from torsioncalc.metrics import (
    GeneralizedMetric,
    SingularMetricError,
    christoffel_generalized,
    einstein_metricity_residual,
    poly_adjugate,
    poly_det,
)
from torsioncalc.sampling import derive_rng

from oracles import random_metric_field


def test_flat_constant_metric_has_zero_connection():
    rng = derive_rng(1, "flat")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 3, degree=0, antisym_degree=0))
    assert christoffel_generalized(g).coeffs.is_zero()


def test_symmetric_metric_gives_levi_civita():
    rng = derive_rng(2, "lc")
    for dim in (2, 3):
        for _ in range(3):
            g = GeneralizedMetric.from_field(
                random_metric_field(rng, dim, antisym_degree=None)
            )
            gamma = christoffel_generalized(g)
            assert gamma.is_symmetric()
            # metricity: the symmetric-rule derivative of the metric vanishes
            assert covariant_derivative(DerivKind.SYM, g.g, gamma).is_zero()


def test_emc_for_symmetric_metric_and_levi_civita():
    rng = derive_rng(3, "emc")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 3, antisym_degree=None))
    gamma = christoffel_generalized(g)
    assert einstein_metricity_residual(g, gamma).is_zero()


def test_emc_constant_metric_zero_connection():
    rng = derive_rng(4, "emc0")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 2, degree=0, antisym_degree=0))
    assert einstein_metricity_residual(g, ConnectionField.zero(2)).is_zero()


def test_emc_generally_nonzero_with_torsion():
    rng = derive_rng(5, "emc1")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 3, antisym_degree=1))
    gamma = christoffel_generalized(g)
    assert not gamma.torsion_half().is_zero()
    # no vanishing claim here; just confirm it evaluates
    einstein_metricity_residual(g, gamma)


def test_first_kind_antisym_vanishes_for_symmetric_metric():
    rng = derive_rng(6, "fk")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 3, antisym_degree=None))
    assert christoffel_first_kind_antisym(g.g).is_zero()


def test_singular_or_nonconstant_determinant_raises():
    x0 = ScalarField.variable(0, 2)
    one = ScalarField.constant(1, 2)
    zero = ScalarField(2)
    with pytest.raises(SingularMetricError):
        GeneralizedMetric.from_field(TensorField(2, (0, 2), [x0, zero, zero, one]))
    with pytest.raises(SingularMetricError):
        GeneralizedMetric.from_field(TensorField(2, (0, 2), [zero, zero, zero, zero]))


def test_adjugate_det_identity():
    rng = derive_rng(7, "adj")
    field = random_metric_field(rng, 3, antisym_degree=None)
    rows = [[field.get(i, j) for j in range(3)] for i in range(3)]
    det = poly_det(rows)
    adj = poly_adjugate(rows)
    # adj * M = det * I
    for i in range(3):
        for j in range(3):
            total = ScalarField(3)
            for k in range(3):
                total = total + adj[i][k] * rows[k][j]
            assert total == (det if i == j else ScalarField(3))


def _gauss_jordan_inverse(m):
    """Inverse of a nonsingular square matrix, by Gauss-Jordan over Fractions."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    return inv


@pytest.mark.parametrize("dim", [2, 3])
def test_pointwise_inverse_matches_gauss_jordan(dim):
    rng = derive_rng(21, f"pw:{dim}")
    for antisym_degree in (None, 1):
        field = random_metric_field(rng, dim, antisym_degree=antisym_degree)
        g = GeneralizedMetric.from_field(field)
        for _ in range(3):
            point = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
            at = [[g.g_sym.get(i, j).evaluate(point) for j in range(dim)] for i in range(dim)]
            inv = g.evaluate_inverse_at(point)
            assert inv == _gauss_jordan_inverse(at)
            assert all(type(v) is Fraction for row in inv for v in row)


def test_pointwise_inverse():
    rng = derive_rng(8, "pw")
    g = GeneralizedMetric.from_field(random_metric_field(rng, 2, antisym_degree=None))
    point = (Fraction(1, 3), Fraction(-2))
    inv = g.evaluate_inverse_at(point)
    for i in range(2):
        for j in range(2):
            total = sum(inv[i][k] * g.g_sym.get(k, j).evaluate(point) for k in range(2))
            assert total == (1 if i == j else 0)
