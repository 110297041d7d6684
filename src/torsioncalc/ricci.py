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
substitution actually produces.

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
tensors are independent: the CLI checks the first on fresh instances, and
``solve_all_identities`` feeds the basis rank; a combination whose rest
differs is refused.

The workspace forms every tensor through one builder,
:meth:`IdentityWorkspace._block`: a key whole, or over a range of its flat
entries, by the same ``contract`` or ``covariant_derivative`` call given
that range; a whole tensor is the range that covers every entry.  Whole
tensors are cached.  The rank feed's equations, one per (entry, monomial),
are formed one (i, j) block of dim**2 entries at a time, and a block only
while the rank is short of 17.  The first block has reached it on every seed
tried, so of the ten (1,3) column contractions the equations read only the
first dim**2 entries are formed; the operands the blocks read across (a,
tor, d_sym, dtor, q2 and q3) are built in full.

The residual checks go through ``algebra.nonzero_sums`` and the rank feed's
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
from .sampling import random_even_connection, random_tensor_field, sample_instance


class IdentityAmbiguityError(RuntimeError):
    """The 17 basis tensors never reached rank 17 on the feed instances."""


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

# Torsion-against-derivative pattern k in 1..5: tor, then X = a derivative of a.
_DTERM_SPECS = (
    "Ajm,iAn->ijmn",
    "Ajn,iAm->ijmn",
    "Amn,ijA->ijmn",
    "iAn,Ajm->ijmn",
    "iAm,Ajn->ijmn",
)

# Cached tor.tor (1,3) blocks: (spec, operand names); see IdentityWorkspace._block.
_BLOCKS = {
    "q2": ("ijA,Amn->ijmn", "tor", "tor"),
    "q3": ("iAn,Ajm->ijmn", "tor", "tor"),
}

# Basis term k in 1..17: (weight, read, spec, operand names).  Column k, the
# term at weight 1, reads the cached contraction (spec, operand names) as it
# is (ID) or with m and n swapped (SWAP); basis term k is weight times it.
_BASIS = (
    (2, ID, _DTERM_SPECS[0], "tor", "d_sym"),
    (2, SWAP, _DTERM_SPECS[0], "tor", "d_sym"),
    (2, ID, _DTERM_SPECS[2], "tor", "d_sym"),
    (2, ID, _DTERM_SPECS[3], "tor", "d_sym"),
    (2, SWAP, _DTERM_SPECS[3], "tor", "d_sym"),
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
    refs += [
        (2 * c[k] * n, ID, (_DTERM_SPECS[k - 1], "tor", f"d_{l}"))
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
    has a reference key; :meth:`_block` forms any key, whole or over a
    range of entries, and :meth:`_tensor` caches the whole ones.
    """

    def __init__(self, a: TensorField, L: ConnectionField):
        if a.valence != (1, 1):
            raise ValueError("identity family is stated for valence (1, 1)")
        if a.dim != L.dim:
            raise ValueError("dimension mismatch")
        self.a = a
        self.L = L
        self._cache = {}

    def _block(self, key, entries=None):
        """The tensor of a reference key, formed whole as a TensorField or,
        with ``entries``, over that range of flat entries alone as a list of
        ScalarFields (as from ``contract``); the tensors it reads are cached
        whole.

        A key is an operand name (``a``, ``tor``, ``R``, a key of
        ``_DERIVATIVES``, a name of ``_BLOCKS``, or ``rcomm``), a (spec,
        operand names) contraction, or ``("basis", k)``."""
        L, read = self.L, self._tensor
        if key in _DERIVATIVES:
            kind, x = _DERIVATIVES[key]
            return covariant_derivative(kind, read(x), L, entries=entries)
        if key in _BLOCKS:
            return self._block(_BLOCKS[key], entries)
        if key == "rcomm":
            a, R = self.a, read("R")
            terms = (1, "Aj,iAmn->ijmn", a, R), (-1, "iA,Ajmn->ijmn", a, R)
            return contract((1, 3), *terms, entries=entries)
        if isinstance(key, tuple):
            head, *rest = key
            if head == "basis":
                return contract((1, 3), *self._pieces([_basis_ref(*rest)]), entries=entries)
            return contract((1, 3), (1, head, *map(read, rest)), entries=entries)
        if entries is not None:
            return read(key).entries[entries.start : entries.stop]
        if key == "a":
            return self.a
        if key == "tor":
            return L.torsion_half()
        if key == "R":
            return curvature_R(L.symmetric_part())
        raise KeyError(f"no tensor is named {key!r}")

    def _tensor(self, key) -> TensorField:
        """The whole tensor of a reference key (see :meth:`_block`), formed on
        its first read and cached, so a hit is one lookup."""
        try:
            return self._cache[key]
        except KeyError:
            tensor = self._cache[key] = self._block(key)
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
        """Weighted column tensors of :meth:`residual`, merged per column;
        every weight is an int."""
        return self._pieces([*_lhs_refs(coeffs.pqrs), *_rhs_refs(coeffs, sign=-1)])

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
        residual (every correct member's is SSa - SSa^(m<->n) - rcomm), so
        each distinct piece list is packed once, and its result is reported
        for every member that has it."""
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


# ---------------------------------------------------------------------------
# The 81 combinations: table offsets and the basis rank
# ---------------------------------------------------------------------------


# The rank feed reads an instance of dim 3 first, then one of dim 4, and the
# CLI checks the coefficients on one fresh instance of each.  In dim 2 the 17
# basis tensors have rank 15, so a feed of dim-2 instances alone stops short
# of rank 17 and raises IdentityAmbiguityError.
INSTANCE_DIMS = (3, 4)


def _feed_entries(ws: IdentityWorkspace):
    """The rank feed's equations on one instance for
    :meth:`LinearSystem.add_coefficient_rows`, entry by entry in row-major
    order: the 17 basis terms, each as one (weight, ScalarField) term.

    The tensors are formed one (i, j) block of dim**2 entries at a time, when
    the block's first entry is drawn, so no block after the one that reaches
    rank 17 is formed.  A read with m and n swapped stays inside its block,
    so it reads the block formed for the plain read."""
    columns = [_basis_ref(k) for k in range(1, 18)]
    keys = dict.fromkeys(key for _, _, key in columns)
    dim = ws.a.dim
    size = dim * dim
    # the block position of entry (m, n) read as (n, m)
    swapped = [n * dim + m for m in range(dim) for n in range(dim)]
    for start in range(0, size * size, size):
        blocks = {key: ws._block(key, range(start, start + size)) for key in keys}
        for e, s in enumerate(swapped):
            yield [[(w, blocks[key][e if read == ID else s])] for w, read, key in columns]


def span_basis(members) -> list:
    """The members whose :func:`identity_row` is independent of the rows
    before them, in the order given: those whose row adds a pivot to one
    :class:`LinearSystem`.  Every member is an exact rational combination
    of the kept ones; the full 81-member sweep keeps 17.

    A residual is linear in the member's :func:`identity_row`, so on a given
    instance every member's residual vanishes exactly when the kept ones'
    do: checking the kept members is the same predicate as checking all.  A
    wrong coefficient moves its row out of the span of the true identities,
    so that member is kept and its nonzero residual fails.
    """
    system = LinearSystem(36, nrhs=0)  # the width of identity_row
    return [ic for ic in members if system.add_row(identity_row(ic))]


def solve_all_identities(seed: int = 20260809, degree: int = 2) -> dict:
    """The coefficients of all 81 combinations as {pqrs:
    IdentityCoefficients}: the basis offsets of each target
    (:func:`_split_target`), with no linear solve.

    A target is its offsets times the basis plus the rest SSa - SSa^(m<->n)
    - R-commutator, so the offsets are the coefficients when that rest
    vanishes and the 17 basis tensors are independent.  A combination whose
    rest differs from that of (1, 1, 1, 1), or whose offsets leave
    {-1, 0, 1}, is refused (IdentityUnsolvableError).  The basis rank is fed
    from one seeded instance of each dim in ``INSTANCE_DIMS`` in turn, into
    a :class:`LinearSystem` with no right side, until it reaches 17; short of
    17 the coefficients are not unique (IdentityAmbiguityError).  That the
    rest vanishes is the CLI's check, on fresh instances, of the members
    :func:`span_basis` keeps.
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

    system = LinearSystem(17, nrhs=0)
    for t, dim in enumerate(INSTANCE_DIMS):
        _, a, L = sample_instance(seed, f"solve:{t}:{dim}", dim, degree)
        system.add_coefficient_rows(_feed_entries(IdentityWorkspace(a, L)))
        if system.rank == 17:
            return solutions
    raise IdentityAmbiguityError(
        f"design matrix rank {system.rank} < 17 after {len(INSTANCE_DIMS)} instances"
    )
