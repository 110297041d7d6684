"""Generalized (non-symmetric) metric fields and their connection.

A non-symmetric metric determines its connection through the generalized
Christoffel symbols; the symmetric part must be invertible.  Polynomial
metrics have an exact polynomial inverse only when the determinant of the
symmetric part is a nonzero constant, so that is what this layer supports
(random test metrics are built that way); the diagonal cosmology family with
genuinely rational inverses lives in :mod:`torsioncalc.cosmology`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import ScalarField, TensorField, contract

HALF = Fraction(1, 2)


class SingularMetricError(ValueError):
    """Symmetric part is singular, or has no exact polynomial inverse."""


def poly_det(rows) -> ScalarField:
    """Determinant of a square matrix of scalar fields, by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    dim = rows[0][0].dim
    total = ScalarField(dim)
    for col in range(n):
        entry = rows[0][col]
        if entry.is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != col] for i in range(1, n)]
        cofactor = entry * poly_det(minor)
        total = total + (cofactor if col % 2 == 0 else -cofactor)
    return total


def poly_adjugate(rows):
    """Adjugate matrix (transpose of cofactors) of a matrix of scalar fields."""
    n = len(rows)
    dim = rows[0][0].dim
    if n == 1:
        return [[ScalarField.constant(1, dim)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = poly_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


class GeneralizedMetric:
    """Non-symmetric metric with an exact inverse of its symmetric part."""

    __slots__ = ("g", "g_sym", "g_antisym", "g_sym_inv", "dim")

    def __init__(self, g: TensorField, g_sym_inv: TensorField):
        if g.valence != (0, 2):
            raise ValueError("metric must have valence (0, 2)")
        if g_sym_inv.valence != (2, 0):
            raise ValueError("inverse must have valence (2, 0)")
        self.g = g
        self.dim = g.dim
        self.g_sym = contract((0, 2), (HALF, "ij->ij", g), (HALF, "ji->ij", g))
        self.g_antisym = contract((0, 2), (HALF, "ij->ij", g), (-HALF, "ji->ij", g))
        self.g_sym_inv = g_sym_inv
        product = contract((1, 1), (1, "ia,ja->ij", g_sym_inv, self.g_sym))
        if product != TensorField.kronecker(g.dim):
            raise SingularMetricError("supplied inverse does not invert the symmetric part")

    @classmethod
    def from_field(cls, g: TensorField) -> "GeneralizedMetric":
        """Build with the exact polynomial inverse of the symmetric part.

        Requires det(symmetric part) to be a nonzero constant; otherwise the
        inverse is not polynomial and a SingularMetricError is raised.
        """
        dim = g.dim
        sym = [
            [
                (g.get(i, j) + g.get(j, i)).scale(HALF)
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        det = poly_det(sym)
        if det.is_zero():
            raise SingularMetricError("symmetric part is singular")
        if det.degree() > 0:
            raise SingularMetricError(
                "symmetric part has non-constant determinant; no exact "
                "polynomial inverse exists"
            )
        inv_det = Fraction(1, 1) / det.constant_value()
        adj = poly_adjugate(sym)
        entries = [adj[i][j].scale(inv_det) for i in range(dim) for j in range(dim)]
        return cls(g, TensorField(dim, (2, 0), entries))

    def evaluate_inverse_at(self, point):
        """Inverse of the symmetric part at one rational point, as rows of
        Fractions: the stored inverse evaluated there.  The constructor has
        checked g_sym_inv * g_sym = identity as polynomials, so the value is
        the inverse at every point.
        """
        return [
            [Fraction(self.g_sym_inv.get(i, j).evaluate(point)) for j in range(self.dim)]
            for i in range(self.dim)
        ]


def christoffel_generalized(g: GeneralizedMetric) -> ConnectionField:
    """Connection of a non-symmetric metric:
    G^i_jk = 1/2 g^{ia} (g_{ja,k} - g_{jk,a} + g_{ak,j}).

    For a symmetric metric this is the Levi-Civita connection.
    """
    from .connection import ConnectionField  # the cosmology path never compiles it

    inv, grad = g.g_sym_inv, g.g.partial_gradient()  # g_{ij,k}
    return ConnectionField(
        contract(
            (1, 2),
            (HALF, "ia,jak->ijk", inv, grad),
            (-HALF, "ia,jka->ijk", inv, grad),
            (HALF, "ia,akj->ijk", inv, grad),
        )
    )


def einstein_metricity_residual(g: GeneralizedMetric, L: ConnectionField) -> TensorField:
    """g_{ij,k} - G^a_{ik} g_{aj} - G^a_{kj} g_{ia}, entrywise.

    Zero iff the connection satisfies the unified-field-theory compatibility
    condition with the non-symmetric metric.
    """
    if g.dim != L.dim:
        raise ValueError("dimension mismatch")
    return contract(
        (0, 3),
        (1, "ijk->ijk", g.g.partial_gradient()),
        (-1, "aik,aj->ijk", L.coeffs, g.g),
        (-1, "akj,ia->ijk", L.coeffs, g.g),
    )
