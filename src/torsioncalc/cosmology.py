"""The four-dimensional cosmology example: a block metric built from five
functions of time, its torsion, the scalar-curvature family, the matter
Lagrangian it induces, and the resulting energy-momentum tensors.

The metric is

        [ s1(t)   0      0      0   ]
        [   0   s2(t)   n(t)    0   ]
        [   0  -n(t)   s3(t)    0   ]
        [   0     0      0    s4(t) ]

with t the first coordinate.  The symmetric part is diagonal, so inverse
components are exact rational functions 1/s_i and the whole pipeline stays in
the rational-function field; the only floating-point step in the package is
the quadrature that recovers n from the matter Lagrangian.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .algebra import ScalarField, TensorField, contract
from .ratfunc import ONE, Poly, RationalFunction, RF_ONE, RF_ZERO

DIM = 4
HALF = Fraction(1, 2)


class DegenerateMetricError(ZeroDivisionError):
    """A diagonal entry s_i vanishes on the window: the inverse component
    g^{ii} = 1/s_i has a pole there, so the metric is degenerate."""


def parse_number(value) -> Fraction:
    """A config number read through its text: 0.1 is 1/10, a bool is refused."""
    return Fraction(str(value))


class CosmologyMetric:
    """The five defining polynomials and the family parameter v' - w."""

    __slots__ = ("s", "n", "vprime_minus_w")

    def __init__(self, s: tuple, n: Poly, vprime_minus_w: Fraction):
        if len(s) != 4:
            raise ValueError("need exactly four diagonal polynomials")
        if any(p.is_zero() for p in s):
            raise ValueError("diagonal entries must not be identically zero")
        self.s, self.n, self.vprime_minus_w = s, n, vprime_minus_w

    def __eq__(self, other):
        if not isinstance(other, CosmologyMetric):
            return NotImplemented
        return (self.s, self.n, self.vprime_minus_w) == (other.s, other.n, other.vprime_minus_w)

    def __hash__(self):
        return hash((self.s, self.n, self.vprime_minus_w))

    def metric_rows(self):
        """The 4x4 matrix of polynomials."""
        z = Poly()
        s1, s2, s3, s4 = self.s
        return (
            (s1, z, z, z),
            (z, s2, self.n, z),
            (z, -self.n, s3, z),
            (z, z, z, s4),
        )

    def metric_field(self) -> TensorField:
        """The metric as a polynomial tensor field over 4 coordinates, every
        entry depending on the first coordinate only."""
        entries = [_poly_to_field(p) for row in self.metric_rows() for p in row]
        return TensorField(DIM, (0, 2), entries)


def _poly_to_field(p: Poly) -> ScalarField:
    return ScalarField.from_terms(
        {(k, 0, 0, 0): c for k, c in enumerate(p.coeffs)}, DIM
    )


def inverse_diagonal(m: CosmologyMetric):
    """Exact inverse symmetric metric components 1/s_i."""
    return tuple(RationalFunction(ONE, p) for p in m.s)


# The six nonzero lowered antisymmetric connection entries, (a, j, k) ->
# sign, each sign * n'(t)/2 (0-based indices): 1/2 (h_{ja,k} - h_{jk,a} +
# h_{ak,j}) for h the antisymmetric part, whose only nonzero entries are
# h_{12} = -h_{21} = n.  The table and the torsion scalar both read it.
_ANTISYM_SIGNS = {
    (1, 2, 0): -1, (1, 0, 2): 1, (2, 0, 1): -1,
    (2, 1, 0): 1, (0, 1, 2): -1, (0, 2, 1): 1,
}


def antisym_christoffel_table(m: CosmologyMetric) -> TensorField:
    """Lowered antisymmetric connection components as polynomial fields.

    Only the six entries of ``_ANTISYM_SIGNS`` are nonzero, all equal to
    +-(1/2) n'(t).
    """
    dn = _poly_to_field(m.n.derivative())
    z = ScalarField(DIM)
    half_dn = dn.scale(HALF)

    def entry(a, j, k):
        sign = _ANTISYM_SIGNS.get((a, j, k))
        if sign is None:
            return z
        return half_dn if sign > 0 else -half_dn

    # the closed form above matches the generic formula; tests cross-check it
    return TensorField.build(DIM, (0, 3), entry)


def christoffel_first_kind_antisym(field: TensorField) -> TensorField:
    """Lowered antisymmetric part of the connection of a valence-(0, 2)
    metric field, from its antisymmetric part h alone (no inverse metric, so
    it stays polynomial): G_{a.jk} = 1/2 (h_{ja,k} - h_{jk,a} + h_{ak,j})."""
    if field.valence != (0, 2):
        raise ValueError("metric must have valence (0, 2)")
    anti = contract((0, 2), (HALF, "ij->ij", field), (-HALF, "ji->ij", field))
    grad = anti.partial_gradient()
    return contract(
        (0, 3),
        (HALF, "jak->ajk", grad),
        (-HALF, "jka->ajk", grad),
        (HALF, "akj->ajk", grad),
    )


def antisym_christoffel_generic(m: CosmologyMetric) -> TensorField:
    """Same table computed from the generic lowered-derivative formula."""
    return christoffel_first_kind_antisym(m.metric_field())


# ---------------------------------------------------------------------------
# Rational-function geometry of the symmetric (diagonal) part
# ---------------------------------------------------------------------------


def _d(rf: RationalFunction, coord: int) -> RationalFunction:
    """Partial derivative in coordinate ``coord``: only t = x^0 appears."""
    return rf.derivative() if coord == 0 else RF_ZERO


def levi_civita_connection(m: CosmologyMetric):
    """G^i_{jk} of the diagonal symmetric part, as rational functions."""
    s = [RationalFunction(p) for p in m.s]
    ds = [RationalFunction(p.derivative()) for p in m.s]
    G = [[[RF_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    # only t-derivatives exist: G^0_{jj} pattern plus mixed G^j_{0j}
    for i in range(DIM):
        # G^i_{i0} = G^i_{0i} = s_i' / (2 s_i)
        G[i][i][0] = G[i][0][i] = ds[i] / (2 * s[i])
    for j in range(1, DIM):
        # G^0_{jj} = -g_{jj,0} / (2 g_{00}) = -s_j' / (2 s_0)
        G[0][j][j] = -ds[j] / (2 * s[0])
    return G


def _riemann_entry(G, i, j, mm, nn) -> RationalFunction:
    """R^i_{jmn} from the connection table G: derivative-last convention
    R^i_{jmn} = d_n G^i_{jm} - d_m G^i_{jn} + G^a_{jm} G^i_{an} - G^a_{jn} G^i_{am}."""
    total = _d(G[i][j][mm], nn) - _d(G[i][j][nn], mm)
    for a in range(DIM):
        total = total + G[a][j][mm] * G[i][a][nn] - G[a][j][nn] * G[i][a][mm]
    return total


# The per-metric quantities below are pure functions of the frozen metric,
# and one cosmology run asks for each of them more than once; each keeps its
# results for the last few metrics.  ``clear_metric_memo`` starts a run cold.
_MEMOISED = []


def _per_metric(fn):
    cached = functools.lru_cache(maxsize=8)(fn)
    _MEMOISED.append(cached)
    return cached


def clear_metric_memo() -> None:
    """Forget every memoised per-metric result."""
    for fn in _MEMOISED:
        fn.cache_clear()


@_per_metric
def scalar_curvature(m: CosmologyMetric) -> RationalFunction:
    """R = g^{ab} R^c_{abc} for the diagonal symmetric part, built from the
    twelve entries R^c_{aac} with a != c that it sums: R^c_{ccc} vanishes
    term by term, antisymmetric in its last two indices."""
    G = levi_civita_connection(m)
    inv = inverse_diagonal(m)
    total = RF_ZERO
    for a in range(DIM):
        for c in range(DIM):
            if a != c:
                total = total + inv[a] * _riemann_entry(G, c, a, a, c)
    return total


@_per_metric
def torsion_scalar(m: CosmologyMetric) -> RationalFunction:
    """Triple inverse-metric contraction of two lowered antisymmetric
    connection components (the scalar multiplying v' - w)."""
    inv = inverse_diagonal(m)
    dn = RationalFunction(m.n.derivative())
    total = RF_ZERO
    for (a, c, d_), sign in _ANTISYM_SIGNS.items():
        v = dn * (HALF if sign > 0 else -HALF)
        # diagonal inverses force both factors onto the same index triple
        total = total + inv[a] * inv[c] * inv[d_] * v * v
    return total


def scalar_curvature_family(m: CosmologyMetric) -> RationalFunction:
    """R plus (v' - w) times the torsion scalar; one member per parameter."""
    return scalar_curvature(m) + torsion_scalar(m) * m.vprime_minus_w


@_per_metric
def matter_lagrangian_paths(m: CosmologyMetric):
    """(contraction route, closed-form route); both are equal.

    Closed form: (3/2) (v'-w) n'(t)^2 / (s1 s2 s3).
    """
    via_contraction = torsion_scalar(m) * m.vprime_minus_w
    dn = RationalFunction(m.n.derivative())
    s1, s2, s3 = (RationalFunction(p) for p in m.s[:3])
    closed = (dn * dn / (s1 * s2 * s3)) * (Fraction(3, 2) * m.vprime_minus_w)
    return via_contraction, closed


# ---------------------------------------------------------------------------
# Energy-momentum family
# ---------------------------------------------------------------------------


def _lagrangian_in_inverse_components(m: CosmologyMetric) -> ScalarField:
    """The matter Lagrangian as a polynomial in (t, y1, y2, y3, y4) with
    y_i standing for the inverse diagonal components 1/s_i.

    L = (3/2)(v'-w) n'(t)^2 y1 y2 y3: polynomial once the inverses are formal
    variables, so the metric variation becomes an exact partial derivative.
    """
    dn_sq = m.n.derivative() * m.n.derivative()
    scale = Fraction(3, 2) * m.vprime_minus_w
    terms = {}
    for k, c in enumerate(dn_sq.coeffs):
        if c:
            terms[(k, 1, 1, 1, 0)] = scale * c
    return ScalarField.from_terms(terms, 5) if terms else ScalarField(5)


def _substitute_inverses(expr: ScalarField, m: CosmologyMetric) -> RationalFunction:
    """Evaluate a polynomial in (t, y1..y4) at y_i = 1/s_i(t).

    Each term c t^k y^e is c t^k times a product of the inverses 1/s_i; their
    constant numerators need no gcd, so only the factor c t^k meets one."""
    inv = inverse_diagonal(m)
    total = RF_ZERO
    for exps, coeff in expr.terms().items():
        inverses = math.prod((y for y, e in zip(inv, exps[1:]) for _ in range(e)), start=RF_ONE)
        total = total + inverses * Poly((0,) * exps[0] + (Fraction(coeff),))
    return total


def energy_momentum(m: CosmologyMetric):
    """T_ij = -2 dL/d(g^ij) + g_ij L against the symmetric metric part.

    The variation is the algebraic partial derivative in the inverse diagonal
    components (the Lagrangian contains no metric derivatives), evaluated
    back at y_i = 1/s_i.  Result: a diagonal 4x4 matrix of rational functions.
    """
    expr = _lagrangian_in_inverse_components(m)
    lm = _substitute_inverses(expr, m)
    out = [[RF_ZERO] * 4 for _ in range(4)]
    for i in range(4):
        d_expr = expr.partial(i + 1)  # derivative in y_{i+1}
        d_val = _substitute_inverses(d_expr, m)
        out[i][i] = d_val * (-2) + RationalFunction(m.s[i]) * lm
    return out


# ---------------------------------------------------------------------------
# Recovering the off-diagonal function from the Lagrangian
# ---------------------------------------------------------------------------


def _on_integer_grid(p: Poly, origin, step):
    """(q, d) with q integer coefficients, ascending, and d a positive
    integer such that p(origin + j * step) = q(j) / d for every j."""
    line = Poly((origin, step))
    shifted = Poly()
    for c in reversed(p.coeffs):
        shifted = shifted * line + Poly.constant(c)
    d = math.lcm(*(c.denominator for c in shifted.coeffs))
    return [int(c * d) for c in shifted.coeffs], d


def recover_n(m: CosmologyMetric, t0, t1, steps: int):
    """Quadrature inversion of the matter Lagrangian:

        n_{1,2}(t) = +- 2/(3(v'-w)) * integral sqrt(L * s1 s2 s3) dt

    Composite Simpson with ``steps`` panels on [t0, t1]; returns (ts, n1, n2)
    as float lists with n2 = -n1.  v' - w must be positive.

    The metric must be nondegenerate on the window: no s_i may have a root on
    the closed interval [t0, t1], or ``DegenerateMetricError`` is raised
    before any quadrature.  The check runs on the s_i themselves, decided
    exactly, because the radicand L * s1 s2 s3 reduces to the polynomial
    (3/2)(v'-w) n'^2: the poles of L cancel and can never be seen by
    evaluating it.  The same reduction makes the radicand non-negative
    everywhere once v' - w > 0.

    Every node of the rule is t0 + j h/2 with j = 0 .. 2 steps, so the
    radicand is substituted once into an integer polynomial q(j) over a
    common denominator d and evaluated exactly with integer arithmetic, each
    panel reusing its left neighbour's right endpoint.  ``q(j) / d`` is a
    correctly rounded int division, as ``float`` of the exact ``Fraction``
    value is, so every float matches a node-by-node exact evaluation.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    vw = Fraction(m.vprime_minus_w)
    if vw <= 0:
        raise ValueError("v' - w must be positive to recover n")
    t0, t1 = Fraction(t0), Fraction(t1)
    for i, p in enumerate(m.s, start=1):
        if p.has_root_in(t0, t1):
            raise DegenerateMetricError(
                f"s{i} = {p!r} vanishes on the window [{t0}, {t1}]: "
                f"g^{i}{i} = 1/s{i} has a pole there"
            )
    # the closed form: eq:58-59 reports whether the contraction route agrees
    lm = matter_lagrangian_paths(m)[1]
    s1, s2, s3 = (RationalFunction(p) for p in m.s[:3])
    radicand = lm * s1 * s2 * s3
    if not radicand.is_polynomial():
        raise ValueError("L * s1 s2 s3 is not a polynomial")
    prefactor = 2 / (3 * float(vw))
    h = (t1 - t0) / steps
    q, d = _on_integer_grid(radicand.num, t0, h / 2)
    q.reverse()

    def integrand(j):
        total = 0
        for c in q:
            total = total * j + c
        return math.sqrt(total / d) * prefactor

    # the nodes themselves, t0 + j h/2 = (origin + j step) / t_den
    (origin, step), t_den = _on_integer_grid(Poly.t(), t0, h / 2)
    ts = [(origin + 2 * k * step) / t_den for k in range(steps + 1)]
    weight = float(h) / 6.0
    n1 = [0.0]
    acc = 0.0
    right = integrand(0)
    for k in range(steps):
        left, right = right, integrand(2 * k + 2)
        acc += weight * (left + 4.0 * integrand(2 * k + 1) + right)
        n1.append(acc)
    n2 = [-x for x in n1]
    return ts, n1, n2
