"""Test-only oracles: literal transcriptions of formulas that the package
computes another way, kept here so the tests can compare the two, and the
reference forms and generators that only the tests use.

- ``contraction_plan_entrywise``: the offsets of a contraction spec, one
  sum of value times stride per letter for every entry and operand, against
  ``algebra._contraction_plan``, which builds them by stride accumulation.
- ``covariant_derivative_entrywise``: each entry of a covariant derivative
  as the partial derivative plus one sum per index slot, written with
  ``get`` and ``ScalarField`` arithmetic, against the ``contract`` terms of
  ``connection.covariant_derivative``.
- ``double_covariant_derivative_explicit``: the written-out second covariant
  derivative of a valence-(1,1) tensor for rules 1..3, against two
  ``connection.covariant_derivative`` calls composed.
- ``bracket_objects`` and ``bracket_objects_raw``: the five bracket objects
  (eq:40-44) from the symmetric/antisymmetric split of the connection and
  from the raw connection forms, against each other.
- ``rhs_expanded``: the partial-derivative (pseudotensor-revealing) form of
  the identity family's right side, against ``IdentityWorkspace.rhs``.
- ``feed_rows_full``: the basis rank's equations from the 17 basis columns
  built as whole tensors, against ``IdentityWorkspace.basis_rank``, which
  feeds the columns' constant terms first and forms whole columns only when
  those fall short of rank 17.
- ``mixed_refs_rational``: the mixed-rule right side as references with
  Fraction weights, one contraction per pattern of ``DTERM_SPECS``, against
  ``ricci._mixed_refs``, which carries the same weights as int numerators
  over one denominator and reads patterns 2 and 5 as basis columns 1 and 4
  with m and n swapped.
- ``poly_divmod`` and ``sturm_sequence_fraction``: polynomial division and
  the Sturm sequence over ``Fraction`` coefficients, against the integer
  sequence of ``ratfunc._sturm_sequence``.
- ``FractionRationalFunction``: a rational function as a reduced quotient of
  ``Poly`` values over ``Fraction`` coefficients with a monic denominator,
  against ``ratfunc.RationalFunction``, which carries integer coefficient
  tuples in a canonical form.
- ``curvature_tensor_rf``, ``christoffel_full_rf`` and ``emc_residual_rf``:
  all 256 entries of R^i_{jmn}, the full generalized connection and the
  metric-compatibility residual of a cosmology metric over rational
  functions, against the entries the ``cosmology`` command sums.
- ``random_symmetric_connection`` and ``random_symmetric_field``: seeded
  torsion-free connections and symmetric valence-(0, 2) fields.
- ``kronecker_delta``: the identity tensor of valence (1, 1), a known input
  for the derivative rules.
"""

import itertools
from fractions import Fraction

from torsioncalc.algebra import ScalarField, TensorField, contract
from torsioncalc.connection import KIND_BY_NUMBER, ConnectionField, DerivKind
from torsioncalc.cosmology import (
    DIM,
    HALF,
    CosmologyMetric,
    _d,
    _riemann_entry,
    inverse_diagonal,
    levi_civita_connection,
)
from torsioncalc.ratfunc import ONE, RF_ZERO, Poly, RationalFunction
from torsioncalc.ricci import ID, _basis_ref, _column
from torsioncalc.sampling import DEFAULT_DEGREE, random_tensor_field

# The five torsion-against-derivative patterns of the identity family, written
# out: tor, then X = a derivative of a.
DTERM_SPECS = (
    "Ajm,iAn->ijmn",
    "Ajn,iAm->ijmn",
    "Amn,ijA->ijmn",
    "iAn,Ajm->ijmn",
    "iAm,Ajn->ijmn",
)


# ---------------------------------------------------------------------------
# Contraction plans, entry by entry
# ---------------------------------------------------------------------------


def contraction_plan_entrywise(spec: str, dim: int):
    """(ranks, out_rank, bases, inner) of ``algebra._contraction_plan``: every
    assignment of the output (or summed) letters in ``itertools.product``
    order, and for each operand the sum of value * stride over its letters."""
    inputs, _, output = spec.partition("->")
    operands = inputs.split(",")
    used = set("".join(operands))
    summed = sorted(used - set(output))

    strides = []
    for letters in operands:
        stride = dict.fromkeys(used, 0)
        for p, c in enumerate(letters):
            stride[c] += dim ** (len(letters) - 1 - p)
        strides.append(stride)

    def offsets(letters):
        return [
            tuple(sum(v * st[c] for c, v in zip(letters, values)) for st in strides)
            for values in itertools.product(range(dim), repeat=len(letters))
        ]

    bases = tuple(zip(*offsets(output)))
    return tuple(map(len, operands)), len(output), bases, tuple(offsets(summed))


# ---------------------------------------------------------------------------
# First covariant derivative, entry by entry
# ---------------------------------------------------------------------------


def covariant_derivative_entrywise(kind: DerivKind, a: TensorField, L: ConnectionField):
    """a^{i..}_{j..;k} = d_k a^{i..}_{j..} + sum over each upper slot c of
    U^c_{Ak} a^{..A..} - sum over each lower slot c of V^A_{ck} a_{..A..},
    with U = sym + sigma_up tor and V = sym - sigma_lo tor read from the raw
    coefficients: (sym + sigma tor)^x_{yz} = (1 + sigma)/2 L^x_{yz} +
    (1 - sigma)/2 L^x_{zy}."""
    r, _ = a.valence

    def coefficient(sigma, x, y, z):
        return (
            L.coeffs.get(x, y, z) * Fraction(1 + sigma, 2)
            + L.coeffs.get(x, z, y) * Fraction(1 - sigma, 2)
        )

    def entry(*indices):
        *idx, k = indices
        total = a.get(*idx).partial(k)
        for p, c in enumerate(idx):
            for alpha in range(a.dim):
                moved = a.get(*idx[:p], alpha, *idx[p + 1 :])
                if p < r:
                    total = total + coefficient(kind.sigma_up, c, alpha, k) * moved
                else:
                    total = total - coefficient(-kind.sigma_lo, alpha, c, k) * moved
        return total

    return TensorField.build(a.dim, (r, a.valence[1] + 1), entry)


# ---------------------------------------------------------------------------
# Explicit second-derivative formulas for rules 1..3
# ---------------------------------------------------------------------------
#
# Literal transcriptions, used as an oracle against the composition path and
# evaluated term by term through ``contract``.  Each formula gives
# a^i_{j p|m q|n} for a valence-(1,1) tensor as
#     a^i_{j,mn}
#   + five single-connection terms against first partials of a
#   + a^A_j * (L..._,n + LL - LL)        three-term bracket
#   - a^i_A * (L..._,n - LL - LL)        three-term bracket
#   - a^A_B * (LL + LL)                  two-term bracket
# Connection slots are written with the symbols i j m n A B; A and B are
# summed.  A trailing symbol in a partial-term is the derivative coordinate.

_DD = {}

_DD[(1, 1)] = {
    "partials": (
        (-1, ("A", "j", "n"), ("i", "A"), "m"),
        (-1, ("A", "j", "m"), ("i", "A"), "n"),
        (-1, ("A", "m", "n"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "B", "n"), None),
        (-1, ("i", "A", "B"), ("B", "m", "n"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "j", "m"), None, "n"),
        (-1, ("A", "B", "m"), ("B", "j", "n"), None),
        (-1, ("A", "j", "B"), ("B", "m", "n"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "j", "n"), None),
        (+1, ("i", "A", "n"), ("B", "j", "m"), None),
    ),
}

_DD[(1, 2)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "j", "m"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "n", "A"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "n", "B"), None),
        (-1, ("i", "A", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "j", "m"), None, "n"),
        (-1, ("A", "B", "m"), ("B", "n", "j"), None),
        (-1, ("A", "j", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "n", "j"), None),
        (+1, ("i", "n", "A"), ("B", "j", "m"), None),
    ),
}

_DD[(1, 3)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "j", "m"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "B", "n"), None),
        (-1, ("i", "A", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "j", "m"), None, "n"),
        (-1, ("A", "B", "m"), ("B", "n", "j"), None),
        (-1, ("A", "j", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "n", "j"), None),
        (+1, ("i", "A", "n"), ("B", "j", "m"), None),
    ),
}

_DD[(2, 1)] = {
    "partials": (
        (-1, ("A", "j", "n"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "m", "n"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "m", "A"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "m", "A"), None, "n"),
        (+1, ("B", "m", "A"), ("i", "B", "n"), None),
        (-1, ("i", "B", "A"), ("B", "m", "n"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "j", "n"), None),
        (-1, ("A", "B", "j"), ("B", "m", "n"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "m", "A"), ("B", "j", "n"), None),
        (+1, ("i", "A", "n"), ("B", "m", "j"), None),
    ),
}

_DD[(2, 2)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "n", "A"), ("A", "j"), "m"),
        (+1, ("i", "m", "A"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "m", "A"), None, "n"),
        (+1, ("B", "m", "A"), ("i", "n", "B"), None),
        (-1, ("i", "B", "A"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "n", "j"), None),
        (-1, ("A", "B", "j"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "m", "A"), ("B", "n", "j"), None),
        (+1, ("i", "n", "A"), ("B", "m", "j"), None),
    ),
}

_DD[(2, 3)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "m", "A"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "m", "A"), None, "n"),
        (+1, ("B", "m", "A"), ("i", "B", "n"), None),
        (-1, ("i", "B", "A"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "n", "j"), None),
        (-1, ("A", "B", "j"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "m", "A"), ("B", "n", "j"), None),
        (+1, ("i", "A", "n"), ("B", "m", "j"), None),
    ),
}

_DD[(3, 1)] = {
    "partials": (
        (-1, ("A", "j", "n"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "m", "n"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "B", "n"), None),
        (-1, ("i", "A", "B"), ("B", "m", "n"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "j", "n"), None),
        (-1, ("A", "B", "j"), ("B", "m", "n"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "j", "n"), None),
        (+1, ("i", "A", "n"), ("B", "m", "j"), None),
    ),
}

_DD[(3, 2)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "n", "A"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "n", "B"), None),
        (-1, ("i", "A", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "n", "j"), None),
        (-1, ("A", "B", "j"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "n", "j"), None),
        (+1, ("i", "n", "A"), ("B", "m", "j"), None),
    ),
}

_DD[(3, 3)] = {
    "partials": (
        (-1, ("A", "n", "j"), ("i", "A"), "m"),
        (-1, ("A", "m", "j"), ("i", "A"), "n"),
        (-1, ("A", "n", "m"), ("i", "j"), "A"),
        (+1, ("i", "A", "n"), ("A", "j"), "m"),
        (+1, ("i", "A", "m"), ("A", "j"), "n"),
    ),
    "bracket_aj": (
        (+1, ("i", "A", "m"), None, "n"),
        (+1, ("B", "A", "m"), ("i", "B", "n"), None),
        (-1, ("i", "A", "B"), ("B", "n", "m"), None),
    ),
    "bracket_ai": (
        (+1, ("A", "m", "j"), None, "n"),
        (-1, ("A", "m", "B"), ("B", "n", "j"), None),
        (-1, ("A", "B", "j"), ("B", "n", "m"), None),
    ),
    "bracket_ab": (
        (+1, ("i", "A", "m"), ("B", "n", "j"), None),
        (+1, ("i", "A", "n"), ("B", "m", "j"), None),
    ),
}


def double_covariant_derivative_explicit(
    p: int, q: int, a: TensorField, L: ConnectionField
) -> TensorField:
    """Second covariant derivative of a valence-(1,1) tensor for rules 1..3,
    evaluated from the written-out formula rather than by composition."""
    if isinstance(p, DerivKind) or isinstance(q, DerivKind):
        numbers = {v: k for k, v in KIND_BY_NUMBER.items()}
        p = numbers.get(p, p) if isinstance(p, DerivKind) else p
        q = numbers.get(q, q) if isinstance(q, DerivKind) else q
    if (p, q) not in _DD:
        raise ValueError("explicit formulas cover rules 1..3 only")
    if a.valence != (1, 1):
        raise ValueError("explicit formulas are for valence (1, 1) tensors")
    if a.dim != L.dim:
        raise ValueError("dimension mismatch")
    table = _DD[(p, q)]
    da = a.partial_gradient()
    dL = L.coeffs.partial_gradient()
    # a^i_{j,mn}
    terms = [(1, "ijmn->ijmn", da.partial_gradient())]
    # single-connection terms against first partials of a
    for sign, lslots, aslots, dsym in table["partials"]:
        terms.append((sign, f"{''.join(lslots)},{''.join(aslots)}{dsym}->ijmn", L.coeffs, da))
    # + a^A_j (...), - a^i_A (...), - a^A_B (...)
    brackets = (("bracket_aj", "Aj", 1), ("bracket_ai", "iA", -1), ("bracket_ab", "AB", -1))
    for name, a_slots, outer in brackets:
        for sign, l1, l2, deriv in table[name]:
            if l2 is None:
                # single connection factor, differentiated
                terms.append((outer * sign, f"{a_slots},{''.join(l1)}{deriv}->ijmn", a, dL))
            else:
                spec = f"{a_slots},{''.join(l1)},{''.join(l2)}->ijmn"
                terms.append((outer * sign, spec, a, L.coeffs, L.coeffs))
    return contract((1, 3), *terms)


# ---------------------------------------------------------------------------
# Bracket pseudotensor objects (eq:40-44)
# ---------------------------------------------------------------------------


def bracket_objects(a: TensorField, L: ConnectionField):
    """The five bracket objects from the symmetric/antisymmetric split of the
    connection.  The first is T^i_Am a^A_j,n - T^A_jm a^i_A,n; the others
    are the raw-connection brackets rewritten through sym and T."""
    if a.valence != (1, 1):
        raise ValueError("bracket objects are defined for valence (1, 1)")
    sym, tor, da = L.symmetric_part().coeffs, L.torsion_half(), a.partial_gradient()
    objects = (
        ((1, "iAm,Ajn->ijmn", tor, da), (-1, "Ajm,iAn->ijmn", tor, da)),
        # 2(sym T - T sym), the factor 2 from expanding the raw forms
        ((2, "AB,iAm,Bjn->ijmn", a, sym, tor), (-2, "AB,iAm,Bjn->ijmn", a, tor, sym)),
        ((-2, "AB,iAm,Bjn->ijmn", a, sym, tor), (-2, "AB,iAm,Bjn->ijmn", a, tor, sym)),
        (
            (-1, "AB,iAm,Bjn->ijmn", a, tor, tor),
            (1, "AB,iAn,Bjm->ijmn", a, tor, tor),
            (-1, "AB,iAm,Bjn->ijmn", a, tor, sym),
            (1, "AB,iAn,Bjm->ijmn", a, sym, tor),
        ),
        (
            (-1, "AB,iAm,Bjn->ijmn", a, tor, tor),
            (1, "AB,iAn,Bjm->ijmn", a, tor, tor),
            (1, "AB,iAm,Bjn->ijmn", a, sym, tor),
            (-1, "AB,iAn,Bjm->ijmn", a, tor, sym),
        ),
    )
    return [contract((1, 3), *terms) for terms in objects]


def bracket_objects_raw(a: TensorField, L: ConnectionField):
    """The five bracket objects evaluated from the raw connection forms."""
    if a.valence != (1, 1):
        raise ValueError("bracket objects are defined for valence (1, 1)")
    raw, tor, da = L.coeffs, L.torsion_half(), a.partial_gradient()
    objects = (
        ((1, "iAm,Ajn->ijmn", tor, da), (-1, "Ajm,iAn->ijmn", tor, da)),
        ((1, "AB,imA,Bjn->ijmn", a, raw, raw), (-1, "AB,iAm,Bnj->ijmn", a, raw, raw)),
        ((1, "AB,imA,Bnj->ijmn", a, raw, raw), (-1, "AB,iAm,Bjn->ijmn", a, raw, raw)),
        ((1, "AB,imA,Bjn->ijmn", a, tor, raw), (-1, "AB,iAn,Bmj->ijmn", a, raw, tor)),
        ((1, "AB,imA,Bjn->ijmn", a, raw, tor), (-1, "AB,iAn,Bmj->ijmn", a, tor, raw)),
    )
    return [contract((1, 3), *terms) for terms in objects]


# ---------------------------------------------------------------------------
# Expanded (partial-derivative) right side of the identity family
# ---------------------------------------------------------------------------


def rhs_expanded(ws, coeffs):
    """The pseudotensor-revealing form of ``ws.rhs(coeffs)``: first
    derivatives replaced by plain partials, with the induced symmetric-part
    cross terms carried inside the brackets.  Agrees exactly with
    ``IdentityWorkspace.rhs``."""
    c = (None,) + coeffs.c  # 1-based
    a, tor = ws.a, ws.L.torsion_half()
    sym = ws.L.symmetric_part().coeffs
    da = a.partial_gradient()
    terms = [(1, ID, ws.r_commutator())]
    terms += [(2 * c[k], DTERM_SPECS[k - 1], tor, da) for k in range(1, 6)]
    terms += [(c[k], ID, ws.basis(k)) for k in range(6, 18)]
    terms += [
        (2 * c[3], "Aj,iAB,Bmn->ijmn", a, sym, tor),
        (2 * c[4], "Aj,iBn,BAm->ijmn", a, tor, sym),
        (2 * c[5], "Aj,iBm,BAn->ijmn", a, tor, sym),
        (-2 * c[1], "iA,ABn,Bjm->ijmn", a, sym, tor),
        (-2 * c[2], "iA,ABm,Bjn->ijmn", a, sym, tor),
        (-2 * c[3], "iA,AjB,Bmn->ijmn", a, sym, tor),
        (2 * c[1], "AB,iAn,Bjm->ijmn", a, sym, tor),
        (2 * c[2], "AB,iAm,Bjn->ijmn", a, sym, tor),
        (-2 * c[4], "AB,iAn,Bjm->ijmn", a, tor, sym),
        (-2 * c[5], "AB,iAm,Bjn->ijmn", a, tor, sym),
    ]
    return contract((1, 3), *terms)


# ---------------------------------------------------------------------------
# The basis rank's equations with every tensor built in full
# ---------------------------------------------------------------------------


def feed_rows_full(system, ws) -> int:
    """The basis rank from whole tensors, against
    ``IdentityWorkspace.basis_rank``: the 17 weight-1 basis columns as full
    (1,3) tensors of the workspace's cached contractions, then per entry in
    row-major order one row per monomial, constant term included, whole
    entries until the rank is 17.  Returns the rank reached."""
    tensors = [contract((1, 3), *ws._pieces([_column(k, 1)])) for k in range(1, 18)]
    for fields in zip(*(t.entries for t in tensors)):
        if system.rank == 17:
            break
        terms = [f.terms() for f in fields]
        for monomial in set().union(*terms):
            system.add_row([t.get(monomial, 0) for t in terms])
    return system.rank


# ---------------------------------------------------------------------------
# Mixed-rule right side on rational weights
# ---------------------------------------------------------------------------


def weight_rows(weights) -> tuple:
    """The rational weights d^l_k of a ``MixWeights``, row k - 1 of five."""
    return tuple(tuple(Fraction(n, weights.den) for n in r) for r in weights.num)


def mixed_refs_rational(coeffs, weights):
    """rhs_mixed as weighted references (weight, read, key), every weight a
    rational number of the rows d^l_k (:func:`weight_rows`)."""
    c = (None,) + coeffs.c
    rows = weight_rows(weights)
    # (d1 - d2 + d3, d1 - d2 - d3) of row k weight the upper- and the
    # lower-index leftovers of the substitution
    xu, xl = zip((None, None), *((d1 - d2 + d3, d1 - d2 - d3) for d1, d2, d3 in rows))

    refs = [(1, ID, "rcomm")]
    for k in range(1, 6):
        if not c[k]:
            continue
        for l in (1, 2, 3):
            w = rows[k - 1][l - 1]
            if w:
                refs.append((2 * c[k] * w, ID, (DTERM_SPECS[k - 1], "tor", f"d_{l}")))
    bracket_weights = (
        c[6],
        c[7],
        c[8] - 2 * c[4] * xu[4],
        c[9] - 2 * c[5] * xu[5],
        c[10] - c[3] * xu[3],
        c[11],
        c[12],
        c[13] - 2 * c[1] * xl[1],
        c[14] - 2 * c[2] * xl[2],
        c[15] - c[3] * xl[3],
        c[16] + c[2] * xu[2] - c[5] * xl[5],
        c[17] + c[1] * xu[1] - c[4] * xl[4],
    )
    refs += [_basis_ref(k, w) for k, w in enumerate(bracket_weights, start=6)]
    return refs


# ---------------------------------------------------------------------------
# Polynomial division and Sturm sequences over Fraction coefficients
# ---------------------------------------------------------------------------


def poly_divmod(p: Poly, divisor: Poly):
    """(quotient, remainder) of ``p`` by a nonzero ``divisor``."""
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    div = divisor.coeffs
    dd = len(div) - 1
    lead = div[-1]
    quot = [0] * max(0, len(rem) - dd)
    for k in range(len(rem) - dd - 1, -1, -1):
        q = Fraction(rem[k + dd], 1) / lead
        if q:
            quot[k] = q
            for i, c in enumerate(div):
                rem[k + i] -= q * c
    return Poly(quot), Poly(rem)


def sturm_sequence_fraction(p: Poly):
    """p, p', -rem(p, p'), ... up to the last nonzero member, over Fractions."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        seq.append(-poly_divmod(seq[-2], seq[-1])[1])
    seq.pop()
    return seq


# ---------------------------------------------------------------------------
# Rational functions over Fraction coefficients
# ---------------------------------------------------------------------------


class FractionRationalFunction:
    """Reduced quotient of two polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), ONE
        else:
            if den.degree() > 0:  # a constant denominator shares no factor
                g = num.gcd(den)
                if g.degree() > 0:
                    num = poly_divmod(num, g)[0]
                    den = poly_divmod(den, g)[0]
            lead = den.leading()
            if lead != 1:
                inv = Fraction(1, 1) / lead
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, value) -> "FractionRationalFunction":
        if isinstance(value, FractionRationalFunction):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.constant(Fraction(value)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __add__(self, other) -> "FractionRationalFunction":
        other = FractionRationalFunction.from_value(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        return FractionRationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> "FractionRationalFunction":
        return self + (-FractionRationalFunction.from_value(other))

    def __rsub__(self, other) -> "FractionRationalFunction":
        return FractionRationalFunction.from_value(other) - self

    def __neg__(self) -> "FractionRationalFunction":
        # -num over the same monic den is already reduced
        out = FractionRationalFunction.__new__(FractionRationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other) -> "FractionRationalFunction":
        other = FractionRationalFunction.from_value(other)
        if self.is_zero() or other.is_zero():
            return FractionRationalFunction(Poly())
        for c, f in ((other, self), (self, other)):
            if c.num.degree() == 0 and c.den == ONE:
                # a reduced quotient times a nonzero constant stays reduced
                # over the same monic denominator
                out = FractionRationalFunction.__new__(FractionRationalFunction)
                out.num, out.den = f.num * c.num, f.den
                return out
        return FractionRationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FractionRationalFunction":
        other = FractionRationalFunction.from_value(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return FractionRationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "FractionRationalFunction":
        return FractionRationalFunction.from_value(other) / self

    def derivative(self) -> "FractionRationalFunction":
        return FractionRationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, t):
        d = self.den.evaluate(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return Fraction(self.num.evaluate(t), 1) / d

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = FractionRationalFunction.from_value(other)
        if not isinstance(other, FractionRationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# Rational-function geometry of the cosmology metric
# ---------------------------------------------------------------------------


def curvature_tensor_rf(m: CosmologyMetric):
    """R^i_{jmn} of the symmetric part, all 256 entries."""
    G = levi_civita_connection(m)
    return [
        [[[_riemann_entry(G, i, j, mm, nn) for nn in range(DIM)] for mm in range(DIM)]
         for j in range(DIM)]
        for i in range(DIM)
    ]


# ---------------------------------------------------------------------------
# Full generalized connection and the metric-compatibility residual
# ---------------------------------------------------------------------------


def christoffel_full_rf(m: CosmologyMetric):
    """Generalized connection of the full non-symmetric metric, as rational
    functions: G^i_{jk} = 1/2 g^{ia} (g_{ja,k} - g_{jk,a} + g_{ak,j})."""
    rows = [[RationalFunction(p) for p in row] for row in m.metric_rows()]
    inv = inverse_diagonal(m)

    G = [[[RF_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                # diagonal inverse: a = i only
                combo = _d(rows[j][i], k) - _d(rows[j][k], i) + _d(rows[i][k], j)
                G[i][j][k] = inv[i] * combo * HALF
    return G


def emc_residual_rf(m: CosmologyMetric):
    """g_{ij,k} - G^a_{ik} g_{aj} - G^a_{kj} g_{ia} with the generalized
    connection; reported as computed (it does not vanish in general)."""
    rows = [[RationalFunction(p) for p in row] for row in m.metric_rows()]
    G = christoffel_full_rf(m)

    out = [[[RF_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            for k in range(DIM):
                total = _d(rows[i][j], k)
                for a in range(DIM):
                    total = total - G[a][i][k] * rows[a][j] - G[a][k][j] * rows[i][a]
                out[i][j][k] = total
    return out


# ---------------------------------------------------------------------------
# Test-only generators
# ---------------------------------------------------------------------------


def random_symmetric_connection(rng, dim: int, degree: int = DEFAULT_DEGREE) -> ConnectionField:
    """Torsion-free connection: random coefficients symmetrised in (j, k)."""
    raw = random_tensor_field(rng, dim, (1, 2), degree)
    sym = (raw + raw.swap_last_lower())  # even coefficients, stays integral
    return ConnectionField(sym)


def random_symmetric_field(rng, dim: int, degree: int = 1) -> TensorField:
    """Symmetric valence-(0, 2) field: a random one plus its transpose."""
    raw = random_tensor_field(rng, dim, (0, 2), degree)
    return raw + raw.swap_last_lower()


def zero_connection(dim: int) -> ConnectionField:
    """The connection whose coefficients all vanish."""
    return ConnectionField(TensorField(dim, (1, 2), [ScalarField(dim)] * dim**3))


def kronecker_delta(dim: int) -> TensorField:
    """The identity tensor of valence (1, 1)."""
    return TensorField.build(dim, (1, 1), lambda i, j: ScalarField(dim, {0: 1} if i == j else None))
