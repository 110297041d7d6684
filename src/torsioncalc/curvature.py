"""Curvature tensors of the associated symmetric space and the five-parameter
family built from torsion corrections.

The family member with coefficients (u, u', v, v', w) is

    R^i_jmn  +  u T^i_jm;n  +  u' T^i_jn;m
             +  v T^a_jm T^i_an  +  v' T^a_jn T^i_am  +  w T^a_mn T^i_ja

where T is the torsion half of the connection and ; is the covariant
derivative of the associated (torsion-free) space.  Independence questions
about the family reduce to exact ranks of the coefficient vectors
(1, u, u', v, v', w).
"""

from __future__ import annotations

from .algebra import TensorField, contract, matrix_rank
from .connection import ConnectionField, DerivKind, covariant_derivative


def curvature_R(Lsym: ConnectionField) -> TensorField:
    """Curvature tensor of a symmetric connection.

    R^i_jmn = L^i_jm,n - L^i_jn,m + L^a_jm L^i_an - L^a_jn L^i_am;
    antisymmetric in (m, n).  Raises for a connection with torsion.
    """
    if not Lsym.is_symmetric():
        raise ValueError("curvature_R expects a symmetric connection")
    L = Lsym.coeffs
    dL = L.partial_gradient()
    return contract(
        (1, 3),
        (1, "ijmn->ijmn", dL),
        (-1, "ijnm->ijmn", dL),
        (1, "Ajm,iAn->ijmn", L, L),
        (-1, "Ajn,iAm->ijmn", L, L),
    )


class RhoCoefficients:
    """Coefficients (u, u', v, v', w) selecting one curvature-family member."""

    __slots__ = ("u", "u_prime", "v", "v_prime", "w")

    def __init__(self, u, u_prime, v, v_prime, w):
        self.u, self.u_prime, self.v, self.v_prime, self.w = u, u_prime, v, v_prime, w

    def __eq__(self, other):
        if not isinstance(other, RhoCoefficients):
            return NotImplemented
        return self.basis_vector() == other.basis_vector()

    def __hash__(self):
        return hash(self.basis_vector())

    def basis_vector(self):
        """Coefficients against the basis (R, T;, T;, TT, TT, TT) with the
        leading 1 for the torsion-free curvature tensor."""
        return (1, self.u, self.u_prime, self.v, self.v_prime, self.w)


#: The torsion-free curvature tensor as the family member with no torsion terms.
CURVATURE_R_MEMBER = RhoCoefficients(0, 0, 0, 0, 0)

# The fourteen catalogued members, in catalogue order 1..14.
_RHO_TABLE = (
    (1, -1, 1, -1, -2),
    (1, -1, -1, -1, 0),
    (1, -1, 1, -1, 0),
    (-1, -1, -1, -1, 0),
    (-1, -1, 1, -1, -2),
    (-1, -1, -1, -1, -2),
    (1, -1, -1, 1, 2),
    (1, -1, 1, 1, 2),
    (1, -1, 1, -1, 2),
    (-1, 1, -1, 1, 2),
    (-1, 1, 1, -1, -2),
    (-1, 1, -1, 1, -2),
    (1, -1, 1, 1, 0),
    (-1, -1, 1, 1, 0),
)


def rho_catalogue():
    """The fourteen catalogued coefficient tuples, members 1..14."""
    return [RhoCoefficients(*row) for row in _RHO_TABLE]


def rho(coeffs: RhoCoefficients, L: ConnectionField) -> TensorField:
    """Family member for arbitrary coefficients and any connection."""
    tor = L.torsion_half()
    Dtor = covariant_derivative(DerivKind.SYM, tor, L)
    return contract(
        (1, 3),
        (1, "ijmn->ijmn", curvature_R(L.symmetric_part())),
        (coeffs.u, "ijmn->ijmn", Dtor),
        (coeffs.u_prime, "ijnm->ijmn", Dtor),
        (coeffs.v, "Ajm,iAn->ijmn", tor, tor),
        (coeffs.v_prime, "Ajn,iAm->ijmn", tor, tor),
        (coeffs.w, "Amn,ijA->ijmn", tor, tor),
    )


def rho_family_rank(members) -> int:
    """Exact rank of the span of family members, decided on the coefficient
    vectors (1, u, u', v, v', w); no members raise ValueError."""
    return matrix_rank(m.basis_vector() for m in members)


# The three catalogued six-member independent sets (member indices, 1-based;
# 0 stands for the torsion-free curvature tensor itself).
INDEPENDENT_SIX_SETS = (
    ("rho1-4,7,10", (1, 2, 3, 4, 7, 10)),
    ("R,rho2-4,7,10", (0, 2, 3, 4, 7, 10)),
    ("rho1-4,7,R", (1, 2, 3, 4, 7, 0)),
)


def six_set_members(indices):
    """Resolve a tuple of catalogue indices (0 = plain curvature tensor)."""
    cat = rho_catalogue()
    return [CURVATURE_R_MEMBER if k == 0 else cat[k - 1] for k in indices]
