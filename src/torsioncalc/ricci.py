"""The Ricci-type identity family for connections with torsion.

For a valence-(1,1) field the antisymmetrised second covariant derivatives
built from rules 1..3 satisfy

    a p|m q|n - a r|n s|m  =  R-commutator  +  sum_k c_k * B_k

where the seventeen basis terms B_k collect torsion against first
derivatives, torsion derivatives, and torsion-quadratic contractions, and
every coefficient c_k lies in {-1, 0, 1}.  This module carries the catalogue
of seventeen independent members, evaluates the right side for arbitrary
coefficients, reads the coefficients of any of the 81 (p,q,r,s) combinations
off the derivative tables, and checks the equivalent mixed-rule form of the
family.  The partial-derivative (pseudotensor-revealing) form is a reference
the tests evaluate, ``rhs_expanded`` in ``tests/oracles.py``.

The mixed form is implemented from the substitution rules relating the
derivative kinds, with every bracket correction carried at the weight the
substitution actually produces.  Its five derivative terms are basis
columns 1..5 with d_sym replaced by d_1, d_2 and d_3, read as those columns
are (2 and 5 as 1 and 4 with m and n swapped), so an instance forms nine
tor.d_l contractions.

Second derivatives come from one symmetric pass.  Every rule is
D = S + sigma_up U + sigma_lo V, with S the symmetric-part rule and U, V the
torsion terms on the upper and the lower indices (no partial derivatives).
So a p|m q|n = D_q D_p a is SSa = S(S a) plus eight sigma-product-weighted
blocks, and by Leibniz, S(Ua) = (dtor) a + tor (Sa) and likewise for V.  All
eight are sums of the seventeen basis columns B_k / w_k, read as they are
or with m and n swapped, so SSa is the only second-derivative pass.  Each
identity side becomes integer-weighted columns (the mixed form scaled by
its weights' common denominator), merged per column; a column whose weights
cancel is never built.  Columns 3, 10 and 15 and the R-commutator are
antisymmetric in m, n (each carries tor^A_{mn} or R^i_{jmn}), so their
swapped read is folded into -1 times the plain one before merging; in a
correct member those weights cancel.  The residual summed this way is
exactly lhs - rhs on the instance, so checking it is still the exact
per-instance predicate; the composition :meth:`IdentityWorkspace.dd` stays
as the reference tests compare against.

The same split gives every combination's coefficients with no linear
solve.  A combination's target, lhs minus the R-commutator, is basis-column
pieces, which are exact offsets c_k += w / w_k, plus a rest that for all 81
combinations is the one column SSa - SSa^(m<->n) - R-commutator.  The
offsets are the coefficients when that rest vanishes and the 17 basis
tensors are independent.  ``solve_all_identities`` reads the offsets off the
tables and refuses a combination whose rest differs.  The CLI checks both
tensor facts on fresh instances: the rank on the first, through
:meth:`IdentityWorkspace.basis_rank`, and on every one the residuals of all
81 members, which merge to that one rest and so form one tensor.

The workspace forms and caches every tensor through one builder,
:meth:`IdentityWorkspace._tensor`.  The basis rank forms its ten column
contractions whole only when their constant terms fall short of rank 17:
always at dim 2, rarely at dim 3 (when tor vanishes at the origin, say).

The residual checks go through ``algebra.nonzero_sums`` and the rank's
equations through ``LinearSystem.add_coefficient_rows``, so this module
never reads the packed polynomial format.
"""

from __future__ import annotations

import itertools
from functools import cache
from fractions import Fraction
from math import lcm

from .algebra import LinearSystem, TensorField, contract, matrix_rank, nonzero_sums
from .connection import (
    ALL_KINDS,
    KIND_BY_NUMBER,
    ConnectionField,
    DerivKind,
    covariant_derivative,
)
from .curvature import curvature_R
# unused here, but perfbench/layers.py Tracer.install wraps both generators by these names
from .sampling import random_even_connection, random_tensor_field


class IdentityAmbiguityError(RuntimeError):
    """The 17 basis tensors fall short of rank 17 on the instance that
    certifies them, so the coefficients are not shown to be unique."""


class IdentityUnsolvableError(RuntimeError):
    """A combination's target is not its basis offsets plus the shared rest,
    or its offsets leave {-1, 0, 1}."""


class IdentityCoefficients:
    """One member of the identity family: the 17-entry coefficient vector
    and the (p, q, r, s) combination it encodes."""

    __slots__ = ("c", "pqrs", "tag")

    def __init__(self, c: tuple, pqrs: tuple, tag: str | None = None):
        if len(c) != 17:
            raise ValueError("coefficient vector must have 17 entries")
        if any(v not in (-1, 0, 1) for v in c):
            raise ValueError("coefficients must lie in {-1, 0, 1}")
        if len(pqrs) != 4 or any(x not in (1, 2, 3) for x in pqrs):
            raise ValueError("combination must be a 4-tuple over {1, 2, 3}")
        self.c, self.pqrs, self.tag = c, pqrs, tag

    def __eq__(self, other):
        if not isinstance(other, IdentityCoefficients):
            return NotImplemented
        return (self.c, self.pqrs, self.tag) == (other.c, other.pqrs, other.tag)

    def __hash__(self):
        return hash((self.c, self.pqrs, self.tag))


class MixWeights:
    """Row-stochastic weights d^l_k (5 rows, l = 1..3) mixing the three
    derivative rules inside the five single-derivative terms, held as int
    numerators ``num`` over one positive int ``den`` (not always the least).
    ``MixWeights(rows, den=1)`` reads den * d^l_k from ``rows``: ints or
    Fractions, whose denominators move into ``den``."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: int = 1):
        if len(num) != 5 or any(len(r) != 3 for r in num):
            raise ValueError("weights must be a 5x3 matrix")
        for k, r in enumerate(num, start=1):
            for x in r:
                if type(x) not in (int, Fraction):
                    raise ValueError(f"weight row {k}: entry {x!r} is not an int or a Fraction")
        if type(den) is not int or den < 1:
            raise ValueError(f"weight denominator {den!r} is not a positive int")
        scale = lcm(*(x.denominator for r in num for x in r))
        num = tuple(tuple(x.numerator * (scale // x.denominator) for x in r) for r in num)
        if any(sum(r) != den * scale for r in num):
            raise ValueError("each weight row must sum to 1")
        self.num, self.den = num, den * scale

    def __eq__(self, other):
        if not isinstance(other, MixWeights):
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    @classmethod
    def random(cls, rng) -> "MixWeights":
        """Rows (d1, d2, 1 - d1 - d2), each d a / b with a drawn from -6..6,
        then b from 1..4; the numerators are kept over 12 = lcm(1..4)."""
        num = []
        for _ in range(5):
            n1 = rng.randint(-6, 6) * (12 // rng.randint(1, 4))
            n2 = rng.randint(-6, 6) * (12 // rng.randint(1, 4))
            num.append((n1, n2, 12 - n1 - n2))
        return cls(tuple(num), 12)


# ---------------------------------------------------------------------------
# Catalogue: seventeen independent members
# ---------------------------------------------------------------------------

_CATALOGUE_DATA = (
    ((1, 1, 1, 1), (0, 0, -1, 0, 0, 1, -1, 1, -1, -1, 1, -1, 1, -1, -1, 0, 0)),
    ((1, 2, 1, 1), (0, 1, 0, -1, 0, 1, -1, -1, -1, 0, 1, -1, 1, 1, 0, -1, -1)),
    ((1, 3, 1, 1), (0, 1, 0, 0, 0, 1, -1, 1, -1, 0, 1, -1, 1, 1, 0, -1, 0)),
    ((2, 1, 1, 1), (1, 0, -1, 0, -1, -1, -1, -1, -1, 0, -1, -1, 1, 1, 0, -1, -1)),
    ((2, 2, 1, 1), (1, 1, 0, -1, -1, -1, -1, 1, -1, -1, -1, -1, 1, -1, -1, 0, 0)),
    ((2, 3, 1, 1), (1, 1, 0, 0, -1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, 0, -1)),
    ((3, 1, 1, 1), (1, 0, -1, 0, 0, 1, -1, 1, -1, -1, -1, -1, 1, 1, 0, 0, -1)),
    ((3, 2, 1, 1), (1, 1, 0, -1, 0, 1, -1, -1, -1, 0, -1, -1, 1, -1, -1, -1, 0)),
    ((3, 3, 1, 1), (1, 1, 0, 0, 0, 1, -1, 1, -1, 0, -1, -1, 1, -1, -1, -1, -1)),
    ((1, 2, 1, 2), (-1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, -1, 1, 1, 0, 0)),
    ((1, 3, 1, 2), (-1, 1, 1, 0, 1, 1, -1, 1, 1, 1, 1, -1, -1, 1, 1, 0, 1)),
    ((1, 3, 1, 3), (-1, 1, 1, 0, 0, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1)),
    ((2, 1, 2, 1), (1, -1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1, -1, 1, 1, 0, 0)),
    ((2, 2, 2, 2), (0, 0, 1, 0, 0, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1, 0, 0)),
    ((2, 3, 2, 3), (0, 0, 1, 1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1, -1, 1, -1)),
    ((3, 1, 3, 1), (1, -1, -1, 0, 0, 1, -1, 1, -1, -1, -1, 1, -1, 1, 1, 1, -1)),
    ((3, 3, 3, 3), (0, 0, 1, 0, 0, 1, -1, 1, -1, 1, -1, 1, 1, -1, -1, 0, 0)),
)


def _tag(pqrs) -> str:
    p, q, r, s = pqrs
    return f"ric{p}{q}-{r}{s}"


_CATALOGUE = tuple(
    IdentityCoefficients(c, pqrs, _tag(pqrs)) for pqrs, c in _CATALOGUE_DATA
)
CATALOGUE_BY_PQRS = {ic.pqrs: ic for ic in _CATALOGUE}

ALL_COMBINATIONS = tuple(itertools.product((1, 2, 3), repeat=4))


def identity_catalogue():
    """The seventeen catalogued identity members, fixed order."""
    return list(_CATALOGUE)


def identity_row(coeffs: IdentityCoefficients):
    """Structural vector of one identity, both sides included.

    The first 18 slots mark which second-derivative difference stands on the
    left (one slot per ordered rule pair, separately for the plain and the
    index-swapped occurrence); then the R-commutator weight (always 1) and
    c_1..c_17.  A set of identities is linearly dependent exactly when a
    combination cancels on both sides, and because the right side is a linear
    function of the left one, that is decided by these rows.
    """
    p, q, r, s = coeffs.pqrs
    lhs = [0] * 18
    lhs[(p - 1) * 3 + (q - 1)] = 1
    lhs[9 + (r - 1) * 3 + (s - 1)] = -1
    return [*lhs, 1, *coeffs.c]


def catalogue_independence_rank() -> int:
    """Rank of the seventeen catalogue members as identities.

    The value is 16: one catalogue member is an exact combination of three
    others (its left side cancels against theirs), so the catalogue spans a
    16-dimensional space while the full 81-member family spans 17.
    """
    return matrix_rank(identity_row(ic) for ic in _CATALOGUE)


# ---------------------------------------------------------------------------
# Workspace: per-(a, L) caches shared across combinations
# ---------------------------------------------------------------------------


# Index letters: i, j, m, n are free in every (1,3) block [i][j][m][n]; A and
# B are summed.  ``ID`` reads a block as it is, ``SWAP`` with m and n swapped.
ID, SWAP = "ijmn->ijmn", "ijnm->ijmn"
_SWAPPED = {ID: SWAP, SWAP: ID}

# Covariant-derivative keys: key -> (rule, key of the tensor differentiated).
# ``d_sym``, ``d_1``..``d_4`` are first derivatives of a by rule tag, ``dtor``
# is the symmetric-rule derivative of tor, ``dd_sym`` is SSa, and ("dd", p, q)
# is a p|m q|n by composition.
_DERIVATIVES = {
    "dtor": (DerivKind.SYM, "tor"),
    "dd_sym": (DerivKind.SYM, "d_sym"),
    **{f"d_{kind.tag}": (kind, "a") for kind in ALL_KINDS},
    **{("dd", p, q): (kq, f"d_{p}") for p in KIND_BY_NUMBER for q, kq in KIND_BY_NUMBER.items()},
}

# Cached tor.tor (1,3) blocks: (spec, operand names); see IdentityWorkspace._tensor.
_BLOCKS = {
    "q2": ("ijA,Amn->ijmn", "tor", "tor"),
    "q3": ("iAn,Ajm->ijmn", "tor", "tor"),
}

# Basis term k in 1..17: (weight, read, spec, operand names).  Column k, the
# term at weight 1, reads the cached contraction (spec, operand names) as it
# is (ID) or with m and n swapped (SWAP); basis term k is weight times it.
_BASIS = (
    (2, ID, "Ajm,iAn->ijmn", "tor", "d_sym"),
    (2, SWAP, "Ajm,iAn->ijmn", "tor", "d_sym"),
    (2, ID, "Amn,ijA->ijmn", "tor", "d_sym"),
    (2, ID, "iAn,Ajm->ijmn", "tor", "d_sym"),
    (2, SWAP, "iAn,Ajm->ijmn", "tor", "d_sym"),
    (1, ID, "Aj,iAmn->ijmn", "a", "dtor"),
    (1, SWAP, "Aj,iAmn->ijmn", "a", "dtor"),
    (1, ID, "Aj,iAmn->ijmn", "a", "q3"),
    (1, SWAP, "Aj,iAmn->ijmn", "a", "q3"),
    (2, ID, "Aj,iAmn->ijmn", "a", "q2"),
    (-1, ID, "iA,Ajmn->ijmn", "a", "dtor"),
    (-1, SWAP, "iA,Ajmn->ijmn", "a", "dtor"),
    (-1, ID, "iA,Ajmn->ijmn", "a", "q3"),
    (-1, SWAP, "iA,Ajmn->ijmn", "a", "q3"),
    (-2, ID, "iA,Ajmn->ijmn", "a", "q2"),
    (-2, ID, "iAm,Bjn,AB->ijmn", "tor", "tor", "a"),
    (-2, SWAP, "iAm,Bjn,AB->ijmn", "tor", "tor", "a"),
)

# Each rule is D = S + sigma_up U + sigma_lo V: S the symmetric rule,
# (U x)^i_{j..m} = tor^i_{Am} x^A_{j..} and (V x)^i_{j..m} = sum over the lower
# slots of tor^A_{jm} x^i_{..A..}.  dd(p, q) = D_q D_p a is SSa = S(S a) plus
# eight blocks, each the sum of basis columns below, weighted by
# sigma(outer part, rule q) * sigma(inner part, rule p).  S(Ua) and S(Va)
# follow from Leibniz: dtor.a + tor.(Sa).
_DD_BLOCKS = (
    ("S", "U", (6, 5)),
    ("S", "V", (11, 1)),
    ("U", "S", (4,)),
    ("U", "U", (8,)),
    ("U", "V", (17,)),
    ("V", "S", (2, 3)),
    ("V", "U", (16, 10)),
    ("V", "V", (14, 15)),
)

# Keys antisymmetric in m, n: columns 3, 10 and 15 carry tor^A_{mn}, the
# R-commutator carries R^i_{jmn}.  Their SWAP read is -1 times their ID read.
_ANTISYMMETRIC = {tuple(_BASIS[k - 1][2:]) for k in (3, 10, 15)} | {"rcomm"}

# (read, key) -> k for basis column k; with the fold above, every column
# reference of an identity side is one of these.
_COLUMN_BY_READ = {(read, tuple(key)): k for k, (_, read, *key) in enumerate(_BASIS, start=1)}


def _sigma(part: str, kind: DerivKind) -> int:
    return 1 if part == "S" else kind.sigma_up if part == "U" else kind.sigma_lo


def _column(k: int, weight, swap=False):
    """Reference (weight, read, key) to column k in 1..17, optionally read
    with m and n swapped."""
    _, read, *key = _BASIS[k - 1]
    return weight, _SWAPPED[read] if swap else read, tuple(key)


def _basis_ref(k: int, scale=1):
    """Reference to ``scale`` times basis term k."""
    return _column(k, scale * _BASIS[k - 1][0])


@cache
def _dd_refs(p: int, q: int, sign=1, swap=False) -> tuple:
    """dd(p, q) as weighted references to SSa and the basis columns; cached."""
    kp, kq = KIND_BY_NUMBER[p], KIND_BY_NUMBER[q]
    refs = [(sign, SWAP if swap else ID, "dd_sym")]
    for outer, inner, columns in _DD_BLOCKS:
        w = sign * _sigma(outer, kq) * _sigma(inner, kp)
        refs += [_column(k, w, swap) for k in columns]
    return tuple(refs)


def _lhs_refs(pqrs) -> tuple:
    """a p|m q|n - a r|n s|m as references, from the two cached dd tuples."""
    p, q, r, s = pqrs
    return _dd_refs(p, q) + _dd_refs(r, s, -1, True)


def _rhs_refs(coeffs: IdentityCoefficients, sign=1):
    refs = [(sign, ID, "rcomm")]
    refs += [_basis_ref(k, sign * ck) for k, ck in enumerate(coeffs.c, start=1) if ck]
    return refs


def _mixed_refs(coeffs: IdentityCoefficients, weights: MixWeights, sign=1):
    """``sign`` * den * rhs_mixed as weighted references, den = weights.den;
    every weight is an int."""
    c = (None, *(sign * x for x in coeffs.c))
    d = weights.den
    # over d, row k's d1 - d2 + d3 and d1 - d2 - d3: the upper/lower leftovers
    xu = (None, *(n1 - n2 + n3 for n1, n2, n3 in weights.num))
    xl = (None, *(n1 - n2 - n3 for n1, n2, n3 in weights.num))

    refs = [(sign * d, ID, "rcomm")]
    # term k in 1..5 is basis term k with d_sym replaced by row k's mixture
    # of d_1, d_2 and d_3, read as column k is
    refs += [
        (2 * c[k] * n, _BASIS[k - 1][1], (_BASIS[k - 1][2], "tor", f"d_{l}"))
        for k in range(1, 6) if c[k]
        for l, n in enumerate(weights.num[k - 1], start=1) if n
    ]
    bracket_weights = (
        d * c[6],
        d * c[7],
        d * c[8] - 2 * c[4] * xu[4],
        d * c[9] - 2 * c[5] * xu[5],
        d * c[10] - c[3] * xu[3],
        d * c[11],
        d * c[12],
        d * c[13] - 2 * c[1] * xl[1],
        d * c[14] - 2 * c[2] * xl[2],
        d * c[15] - c[3] * xl[3],
        d * c[16] + c[2] * xu[2] - c[5] * xl[5],
        d * c[17] + c[1] * xu[1] - c[4] * xl[4],
    )
    refs += [_basis_ref(k, w) for k, w in enumerate(bracket_weights, start=6)]
    return refs


def _merge(refs) -> dict:
    """Weighted references (weight, read, key) summed per (read, key); only
    nonzero sums are kept.  A key of ``_ANTISYMMETRIC`` read with SWAP counts
    as -1 times its ID read, so a plain and a swapped read at equal weight
    cancel here, before any tensor is built."""
    merged = {}
    for w, read, key in refs:
        if read == SWAP and key in _ANTISYMMETRIC:
            w, read = -w, ID
        merged[read, key] = merged.get((read, key), 0) + w
    return {rk: w for rk, w in merged.items() if w}


@cache
def _residual_refs(coeffs: IdentityCoefficients) -> tuple:
    """lhs - rhs of one member as merged ((read, key), weight) pairs; cached,
    since they do not depend on the instance."""
    return tuple(_merge([*_lhs_refs(coeffs.pqrs), *_rhs_refs(coeffs, sign=-1)]).items())


def _split_target(pqrs):
    """Combination pqrs's target, lhs minus the R-commutator, as (rest, offsets).

    ``offsets[k - 1]`` is the exact multiple of basis term k that the
    target's column-k piece carries (its weight over w_k); ``rest`` holds the
    other merged references.  The target is contract(rest) plus
    sum_k offsets[k - 1] B_k, and for all 81 combinations ``rest`` is the
    same SSa - SSa^(m<->n) - rcomm."""
    rest, offsets = [], [0] * 17
    for (read, key), w in _merge([*_lhs_refs(pqrs), (-1, ID, "rcomm")]).items():
        k = _COLUMN_BY_READ.get((read, key))
        if k is None:
            rest.append((w, read, key))
        else:
            offsets[k - 1] = Fraction(w, _BASIS[k - 1][0])
    return tuple(rest), offsets


class IdentityWorkspace:
    """All derived tensors of one (tensor, connection) instance.

    The 81 combinations reuse the same torsion products, curvature tensor
    and basis columns, so sweeps construct one workspace per instance and
    ask it for everything.

    Every identity side is a weighted sum of cached weight-1 tensors (SSa,
    the R-commutator and the basis columns; see the module docstring), and
    only tensors left with a nonzero merged weight are built.  Each tensor
    has a reference key, and :meth:`_tensor` forms and caches it.
    """

    def __init__(self, a: TensorField, L: ConnectionField):
        if a.valence != (1, 1):
            raise ValueError("identity family is stated for valence (1, 1)")
        if a.dim != L.dim:
            raise ValueError("dimension mismatch")
        self.a = a
        self.L = L
        self._cache = {}

    def _tensor(self, key) -> TensorField:
        """The tensor of a reference key, formed on its first read and
        cached, so a hit is one lookup.

        A key is an operand name (``a``, ``tor``, ``R``, a key of
        ``_DERIVATIVES``, a name of ``_BLOCKS``, or ``rcomm``), a (spec,
        operand names) contraction, or ``("basis", k)``."""
        try:
            return self._cache[key]
        except KeyError:
            pass
        read = self._tensor
        if key in _DERIVATIVES:
            kind, x = _DERIVATIVES[key]
            tensor = covariant_derivative(kind, read(x), self.L)
        elif key == "rcomm":
            a, R = self.a, read("R")
            tensor = contract((1, 3), (1, "Aj,iAmn->ijmn", a, R), (-1, "iA,Ajmn->ijmn", a, R))
        elif isinstance(key, tuple) and key[0] == "basis":
            tensor = contract((1, 3), *self._pieces([_basis_ref(key[1])]))
        elif isinstance(key, tuple) or key in _BLOCKS:
            spec, *names = _BLOCKS.get(key, key)
            tensor = contract((1, 3), (1, spec, *map(read, names)))
        elif key == "a":
            tensor = self.a
        elif key == "tor":
            tensor = self.L.torsion_half()
        elif key == "R":
            tensor = curvature_R(self.L.symmetric_part())
        else:
            raise KeyError(f"no tensor is named {key!r}")
        self._cache[key] = tensor
        return tensor

    def _pieces(self, refs) -> list:
        """``contract`` terms of weighted references (weight, read, key),
        merged by :func:`_merge`; only keys left with a nonzero weight are
        built."""
        return [(w, read, self._tensor(key)) for (read, key), w in _merge(refs).items()]

    # cached reads the tests and the layer tracer call --------------------------

    def dd(self, p: int, q: int) -> TensorField:
        """a p|m q|n by composition: the reference for the block form the
        identity checks use."""
        return self._tensor(("dd", p, q))

    def r_commutator(self) -> TensorField:
        """a^alpha_j R^i_{alpha mn} - a^i_alpha R^alpha_{jmn}."""
        return self._tensor("rcomm")

    def basis(self, k: int) -> TensorField:
        """Basis term k in 1..17 (the R-commutator is not part of the basis)."""
        if not 1 <= k <= 17:
            raise ValueError("basis index must lie in 1..17")
        return self._tensor(("basis", k))

    # identity sides -------------------------------------------------------------

    def lhs(self, pqrs) -> TensorField:
        """a p|m q|n - a r|n s|m (the second pair evaluated with m, n swapped)."""
        return contract((1, 3), *self._pieces(_lhs_refs(pqrs)))

    def rhs(self, coeffs: IdentityCoefficients) -> TensorField:
        """Right side of the family identity for one coefficient vector."""
        return contract((1, 3), *self._pieces(_rhs_refs(coeffs)))

    def residual_pieces(self, coeffs: IdentityCoefficients):
        """Weighted column tensors of :meth:`residual`, merged per column
        (:func:`_residual_refs`); every weight is an int."""
        return [(w, read, self._tensor(key)) for (read, key), w in _residual_refs(coeffs)]

    def residual(self, coeffs: IdentityCoefficients) -> TensorField:
        """Left minus right side in one pass over the cached column tensors;
        linear in :func:`identity_row` of ``coeffs``."""
        return contract((1, 3), *self.residual_pieces(coeffs))

    def rhs_mixed(self, coeffs: IdentityCoefficients, weights: MixWeights) -> TensorField:
        """The family with the five derivative terms written as rule-1/2/3
        mixtures; bracket coefficients pick up the substitution leftovers.

        Expressed against the cached basis: pattern k of the torsion-quadratic
        brackets absorbs -2 c_k times the substitution sign combinations."""
        pieces = self._pieces(_mixed_refs(coeffs, weights))
        return contract((1, 3), *((Fraction(w, weights.den), read, t) for w, read, t in pieces))

    def mixed_residual_pieces(self, coeffs: IdentityCoefficients, weights: MixWeights):
        """Weighted column tensors of den * (lhs - rhs_mixed), den =
        weights.den, merged per column; every weight is an int."""
        lhs = [(weights.den * w, read, key) for w, read, key in _lhs_refs(coeffs.pqrs)]
        return self._pieces([*lhs, *_mixed_refs(coeffs, weights, sign=-1)])

    def nonzero_residuals(self, members) -> dict:
        """:func:`~torsioncalc.algebra.nonzero_sums` of the residuals of
        identity members (:class:`IdentityCoefficients`), by member index.
        Members whose merged residual pieces are the same have the same
        residual, so each distinct piece list is packed once, and its result
        is reported for every member that has it.  Every correct member of
        all 81 merges to SSa - SSa^(m<->n) - rcomm, so a correct sweep packs
        one residual however many members it checks."""
        index, distinct, slots = {}, [], []
        for ic in members:
            pieces = self.residual_pieces(ic)
            key = tuple(x for w, spec, t in pieces for x in (w, spec, id(t)))
            if key not in index:
                index[key] = len(distinct)
                distinct.append(pieces)
            slots.append(index[key])
        found = nonzero_sums((1, 3), distinct)
        return {k: found[slot] for k, slot in enumerate(slots) if slot in found}

    def basis_rank(self) -> int:
        """The rank of the 17 basis tensors on this instance, fed until it
        reaches 17; the coefficients of every combination are unique
        exactly when it does.

        Basis term k is w_k times column k, so the weight-1 columns have the
        same rank; their equations, one per (entry, monomial), go to
        :meth:`~torsioncalc.algebra.LinearSystem.add_coefficient_rows`.  The
        constant-term rows go first: a product's constant term is the
        product of its factors', so a column's are the same contraction
        over its operands' (q2's and q3's over tor's; d_sym and dtor are
        formed whole, then cut).  Only if they fall short of 17 are the ten
        columns formed whole, through :meth:`_tensor`; the constant rows are
        some of their rows, so the rank is theirs."""
        dim = self.a.dim
        # the flat position of entry (i, j, m, n) read as (i, j, n, m)
        swapped = [e - e % dim**2 + e % dim * dim + e // dim % dim for e in range(dim**4)]

        @cache  # not recursive: a self-referencing closure would hold self past the call
        def constant_operand(name):
            if name in _BLOCKS:
                spec, *names = _BLOCKS[name]
                parts = [self._tensor(n).constant_part() for n in names]
                return contract((1, 3), (1, spec, *parts))
            return self._tensor(name).constant_part()

        def constant_column(key):
            spec, *names = key
            return contract((1, 3), (1, spec, *map(constant_operand, names)))

        def rows(read):
            columns = {key: read(key).entries for _, key in _COLUMN_BY_READ}
            for e, s in enumerate(swapped):
                yield [columns[key][e if r == ID else s] for r, key in _COLUMN_BY_READ]

        system = LinearSystem(17, nrhs=0)
        system.add_coefficient_rows(itertools.chain(rows(constant_column), rows(self._tensor)))
        return system.rank


# ---------------------------------------------------------------------------
# The 81 combinations: table offsets
# ---------------------------------------------------------------------------


def solve_all_identities() -> dict:
    """The coefficients of all 81 combinations as {pqrs:
    IdentityCoefficients}: the basis offsets of each target
    (:func:`_split_target`), read off the tables with no instance and no
    linear solve.

    A target is its offsets times the basis plus the rest SSa - SSa^(m<->n)
    - R-commutator, so the offsets are the coefficients when that rest
    vanishes and the 17 basis tensors are independent; the CLI checks both
    on fresh instances (:meth:`IdentityWorkspace.basis_rank`, and the
    residual of every solved member).  A combination whose rest differs
    from that of (1, 1, 1, 1), or whose offsets leave {-1, 0, 1}, is refused
    (IdentityUnsolvableError).
    """
    shared = (1, 1, 1, 1)
    rest = _split_target(shared)[0]
    solutions = {}
    for combo in ALL_COMBINATIONS:
        other, offsets = _split_target(combo)
        if other != rest:
            raise IdentityUnsolvableError(
                f"{combo}: its rest differs from the shared rest of {shared}"
            )
        for v in offsets:
            if v not in (-1, 0, 1):
                raise IdentityUnsolvableError(
                    f"{combo}: coefficient {v} falls outside {{-1, 0, 1}}"
                )
        tag = _tag(combo) if combo in CATALOGUE_BY_PQRS else None
        solutions[combo] = IdentityCoefficients(tuple(map(int, offsets)), combo, tag)
    return solutions
