"""Non-symmetric connection fields and their covariant derivatives.

A connection with coefficients L^i_{jk} that are not symmetric in (j, k)
admits, besides the familiar symmetric-part derivative, four distinct
covariant-derivative rules that differ only in which lower slot of L the
differentiation index occupies.  Internally every rule is normalised to a
signature (sigma_up, sigma_lo) giving the sign with which the antisymmetric
part of the connection enters the upper-index and lower-index terms; the
five rules are then one code path.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .algebra import (
    _MASK,
    _SHIFT,
    ScalarField,
    TensorField,
    _check_product_exponents,
    _flat_to_indices,
    _product_sums,
    _strip_zeros,
    matrix_rank,
)

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

    @property
    def signature(self):
        return (self.sigma_up, self.sigma_lo)


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

    @classmethod
    def zero(cls, dim: int) -> "ConnectionField":
        return cls(TensorField.zero(dim, (1, 2)))

    def is_symmetric(self) -> bool:
        return self.coeffs == self.coeffs.swap_last_lower()

    def symmetric_part(self) -> "ConnectionField":
        if self._sym is None:
            swapped = self.coeffs.swap_last_lower()
            self._sym = ConnectionField((self.coeffs + swapped).scale(HALF))
        return self._sym

    def torsion_half(self) -> TensorField:
        """Antisymmetric part; the torsion tensor is twice this field."""
        if self._tor is None:
            swapped = self.coeffs.swap_last_lower()
            self._tor = (self.coeffs - swapped).scale(HALF)
        return self._tor

    def __eq__(self, other):
        if not isinstance(other, ConnectionField):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"ConnectionField(dim={self.dim})"


def _coeff_entries(L: ConnectionField, sigma: int, transpose_when: int):
    """Raw term dicts of the coefficient tensor selected by one signature
    component: sigma == transpose_when swaps the two lower slots of L and
    sigma == 0 takes the symmetric part.  Slot order is [x][y][z] with z the
    differentiation index."""
    if sigma == 0:
        tensor = L.symmetric_part().coeffs
    elif sigma == transpose_when:
        tensor = L.coeffs.swap_last_lower()
    else:
        tensor = L.coeffs
    return [e._terms for e in tensor.entries]


def covariant_derivative(kind: DerivKind, a: TensorField, L: ConnectionField) -> TensorField:
    """Covariant derivative of ``a`` for one of the five rules.

    The result appends the differentiation index as a final lower index.  For
    each upper index the connection enters with coefficient sym + sigma_up*tor
    and for each lower index with -(sym - sigma_lo*tor); the symmetric rule is
    the sigma = (0, 0) case.
    """
    if a.dim != L.dim:
        raise ValueError(f"dimension mismatch: tensor {a.dim} vs connection {L.dim}")
    dim = a.dim
    r, s = a.valence
    rank = r + s

    up = _coeff_entries(L, kind.sigma_up, -1) if r else []
    lo = _coeff_entries(L, kind.sigma_lo, 1) if s else []
    a_terms = [e._terms for e in a.entries]
    for entries in (up, lo):
        _check_product_exponents(dim, entries, a_terms)
    coeffs = up + lo  # lower-index coefficients start at len(up)
    # stride of index slot p within a's flat layout
    strides = [dim ** (rank - 1 - p) for p in range(rank)]

    # per output entry (base, k): (sign, coefficient entry, entry of a) of
    # one connection term per upper index and minus one per lower index
    plan = []
    for base in range(dim**rank):
        idx = _flat_to_indices(base, dim, rank)
        for k in range(dim):
            pairs = []
            for p in range(rank):
                stride = strides[p]
                root = base - idx[p] * stride
                for alpha in range(dim):
                    if p < r:
                        sign, c = 1, (idx[p] * dim + alpha) * dim + k
                    else:
                        sign, c = -1, len(up) + (alpha * dim + idx[p]) * dim + k
                    if coeffs[c]:
                        pairs.append((sign, c, root + alpha * stride))
            plan.append(pairs)

    out = []
    for entry, acc in enumerate(_product_sums(dim, coeffs, a_terms, plan)):
        # partial-derivative term
        shift = _SHIFT * (entry % dim)
        for key, coeff in a_terms[entry // dim].items():
            e = (key >> shift) & _MASK
            if e:
                d = key - (1 << shift)
                acc[d] = acc.get(d, 0) + coeff * e
        out.append(ScalarField(dim, _strip_zeros(acc)))
    return TensorField(dim, (r, s + 1), out)


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


def verify_derivative_relations(L: ConnectionField, a: TensorField):
    """Residual of each linear relation among the five derivative rules.

    Returns a list of (tag, residual tensor); every residual is exactly zero
    for any connection and tensor field.
    """
    derivs = {kind: covariant_derivative(kind, a, L) for kind in ALL_KINDS}
    report = []
    for tag, lhs, combo in DERIVATIVE_RELATIONS:
        residual = derivs[lhs]
        for weight, kind in combo:
            residual = residual - derivs[kind].scale(weight)
        report.append((tag, residual))
    return report


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
