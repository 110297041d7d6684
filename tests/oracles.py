"""Test-only oracles: literal transcriptions of formulas that the package
computes another way, kept here so the tests can compare the two.

- ``double_covariant_derivative_explicit``: the written-out second covariant
  derivative of a valence-(1,1) tensor for rules 1..3, against the
  composition ``connection.double_covariant_derivative``.
- ``bracket_objects_raw``: the five bracket objects from the raw connection
  forms, against the symmetric/antisymmetric split of
  ``curvature.bracket_objects``.
- ``mixed_refs_rational``: the mixed-rule right side as references with
  Fraction weights, against ``ricci._mixed_refs``, which carries the same
  weights as int numerators over one denominator.
"""

from torsioncalc.algebra import TensorField, contract
from torsioncalc.connection import KIND_BY_NUMBER, ConnectionField, DerivKind
from torsioncalc.ricci import _DTERM_SPECS, ID, _basis_ref


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
# Mixed-rule right side on rational weights
# ---------------------------------------------------------------------------


def mixed_refs_rational(coeffs, weights):
    """rhs_mixed as weighted references (weight, read, key), every weight a
    rational number of the rows d^l_k = ``weights.rows``."""
    c = (None,) + coeffs.c
    rows = weights.rows
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
                refs.append((2 * c[k] * w, ID, (_DTERM_SPECS[k - 1], "tor", f"d_{l}")))
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
