"""Non-symmetric connection fields and their covariant derivatives.

A connection with coefficients L^i_{jk} that are not symmetric in (j, k)
admits, besides the familiar symmetric-part derivative, four distinct
covariant-derivative rules that differ only in which lower slot of L the
differentiation index occupies.  Internally every rule is normalised to a
signature (sigma_up, sigma_lo) giving the sign with which the antisymmetric
part of the connection enters the upper-index and lower-index terms.  In
``numpy.einsum`` letters a sign only orders two letters of L, ``L^c_{Ak}``
or ``L^c_{kA}`` with A summed and k the differentiation index, so each rule
is one :func:`~torsioncalc.algebra.contract` call.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .algebra import TensorField, contract, matrix_rank

HALF = Fraction(1, 2)


class DerivKind(enum.Enum):
    """The five covariant-derivative rules.

    The signature (sigma_up, sigma_lo) fixes the sign of the torsion-half
    contribution: the upper-index coefficient is sym + sigma_up * tor and the
    lower-index coefficient is sym - sigma_lo * tor, so that sigma = +1 keeps
    the raw connection and sigma = -1 swaps its lower slots.
    """

    SYM = ("sym", 0, 0)
    K1 = ("1", 1, -1)
    K2 = ("2", -1, 1)
    K3 = ("3", 1, 1)
    K4 = ("4", -1, -1)

    def __init__(self, tag, sigma_up, sigma_lo):
        self.tag = tag
        self.sigma_up = sigma_up
        self.sigma_lo = sigma_lo


KIND_BY_NUMBER = {1: DerivKind.K1, 2: DerivKind.K2, 3: DerivKind.K3, 4: DerivKind.K4}
ALL_KINDS = (DerivKind.SYM, DerivKind.K1, DerivKind.K2, DerivKind.K3, DerivKind.K4)


class ConnectionField:
    """Connection coefficients L^i_{jk}(x) with no symmetry assumed."""

    __slots__ = ("coeffs", "dim", "_sym", "_tor")

    def __init__(self, coeffs: TensorField):
        if coeffs.valence != (1, 2):
            raise ValueError("connection coefficients must have valence (1, 2)")
        self.coeffs = coeffs
        self.dim = coeffs.dim
        self._sym = None
        self._tor = None

    def is_symmetric(self) -> bool:
        return self.coeffs == self.coeffs.swap_last_lower()

    def symmetric_part(self) -> "ConnectionField":
        if self._sym is None:
            self._sym = ConnectionField(self._half(1))
        return self._sym

    def torsion_half(self) -> TensorField:
        """Antisymmetric part; the torsion tensor is twice this field."""
        if self._tor is None:
            self._tor = self._half(-1)
        return self._tor

    def _half(self, sign: int) -> TensorField:
        # halved once after the sum: a weight of 1/2 on each term makes every
        # term a Fraction, 2.7x slower on a dim-4, degree-2 even connection
        c = self.coeffs
        return contract((1, 2), (1, "ijk->ijk", c), (sign, "ikj->ijk", c)).scale(HALF)

    def __eq__(self, other):
        if not isinstance(other, ConnectionField):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"ConnectionField(dim={self.dim})"


def _letters(n: int) -> str:
    """n distinct ``contract`` letters, 'a' upward and on past 'z', so that
    no valence runs out of them; none is the summed letter 'A'."""
    return "".join(chr(ord("a") + p) for p in range(n))


def covariant_derivative(kind: DerivKind, a: TensorField, L: ConnectionField) -> TensorField:
    """Covariant derivative of ``a`` for one of the five rules.

    The result appends the differentiation index k as a final lower index.
    Each upper index c of ``a`` adds L^c_{Ak} a^{..A..} (sigma_up = +1) or
    L^c_{kA} a^{..A..} (sigma_up = -1), and each lower index c subtracts
    L^A_{kc} a_{..A..} (sigma_lo = +1) or L^A_{ck} a_{..A..} (sigma_lo = -1);
    sigma = 0, the symmetric rule's signature, reads the symmetric part.
    """
    if a.dim != L.dim:
        raise ValueError(f"dimension mismatch: tensor {a.dim} vs connection {L.dim}")
    r, s = a.valence
    out = _letters(r + s + 1)
    idx, k = out[:-1], out[-1]
    terms = []
    for p, c in enumerate(idx):
        if p < r:
            sign, sigma, raw, swapped = 1, kind.sigma_up, f"{c}A{k}", f"{c}{k}A"
        else:
            sign, sigma, raw, swapped = -1, kind.sigma_lo, f"A{k}{c}", f"A{c}{k}"
        coeffs = L.symmetric_part().coeffs if sigma == 0 else L.coeffs
        spec = f"{swapped if sigma < 0 else raw},{idx[:p]}A{idx[p + 1:]}->{out}"
        terms.append((sign, spec, coeffs, a))
    gradient = (1, f"{out}->{out}", a.partial_gradient())
    return contract((r, s + 1), gradient, *terms)


# ---------------------------------------------------------------------------
# Linear relations among the five rules
# ---------------------------------------------------------------------------

# (check tag, left side, [(weight, kind), ...]); each holds entrywise for any
# tensor and any connection.
DERIVATIVE_RELATIONS = (
    ("eq:8", DerivKind.SYM, ((HALF, DerivKind.K1), (HALF, DerivKind.K2))),
    ("eq:9", DerivKind.SYM, ((HALF, DerivKind.K3), (HALF, DerivKind.K4))),
    ("eq:10", DerivKind.K1, ((2, DerivKind.SYM), (-1, DerivKind.K2))),
    ("eq:11", DerivKind.K1, ((-1, DerivKind.K2), (1, DerivKind.K3), (1, DerivKind.K4))),
    ("eq:12", DerivKind.K2, ((2, DerivKind.SYM), (-1, DerivKind.K1))),
    ("eq:13", DerivKind.K2, ((-1, DerivKind.K1), (1, DerivKind.K3), (1, DerivKind.K4))),
    ("eq:14", DerivKind.K3, ((2, DerivKind.SYM), (-1, DerivKind.K4))),
    ("eq:15", DerivKind.K3, ((1, DerivKind.K1), (1, DerivKind.K2), (-1, DerivKind.K4))),
    ("eq:16", DerivKind.K4, ((2, DerivKind.SYM), (-1, DerivKind.K3))),
    ("eq:17", DerivKind.K4, ((1, DerivKind.K1), (1, DerivKind.K2), (-1, DerivKind.K3))),
)


def derivative_relations(L: ConnectionField, a: TensorField):
    """Each linear relation among the five derivative rules as (tag, terms):
    the ``contract`` terms of its residual, which sums to exactly zero for
    any connection and tensor field."""
    derivs = {kind: covariant_derivative(kind, a, L) for kind in ALL_KINDS}
    same = "{0}->{0}".format(_letters(a.rank() + 1))
    return [
        (tag, [(1, same, derivs[lhs]), *((-w, same, derivs[k]) for w, k in combo)])
        for tag, lhs, combo in DERIVATIVE_RELATIONS
    ]


def derivative_kind_rank(kinds) -> int:
    """Number of linearly independent rules among ``kinds``.

    Each rule is the component vector (1, sigma_up, sigma_lo): the partial
    and symmetric-connection summands are common to all rules, so
    independence is decided by the torsion-term signs alone.  An empty or
    repeated list of kinds raises ValueError.
    """
    kinds = list(kinds)
    if len(set(kinds)) != len(kinds):
        raise ValueError("duplicate kinds")
    return matrix_rank([1, k.sigma_up, k.sigma_lo] for k in kinds)


# The eight independent triples of rules, and the two dependent ones.
INDEPENDENT_TRIPLES = (
    ("b1", (DerivKind.K1, DerivKind.K2, DerivKind.K3)),
    ("b2", (DerivKind.K1, DerivKind.K2, DerivKind.K4)),
    ("b3", (DerivKind.K1, DerivKind.K3, DerivKind.K4)),
    ("b4", (DerivKind.K2, DerivKind.K3, DerivKind.K4)),
    ("b5", (DerivKind.SYM, DerivKind.K1, DerivKind.K3)),
    ("b6", (DerivKind.SYM, DerivKind.K1, DerivKind.K4)),
    ("b7", (DerivKind.SYM, DerivKind.K2, DerivKind.K3)),
    ("b8", (DerivKind.SYM, DerivKind.K2, DerivKind.K4)),
)
DEPENDENT_TRIPLES = (
    ("sym12", (DerivKind.SYM, DerivKind.K1, DerivKind.K2)),
    ("sym34", (DerivKind.SYM, DerivKind.K3, DerivKind.K4)),
)
