"""The Ricci-type identity family for connections with torsion.

For a valence-(1,1) field the antisymmetrised second covariant derivatives
built from rules 1..3 satisfy

    a p|m q|n - a r|n s|m  =  R-commutator  +  sum_k c_k * B_k

where the seventeen basis terms B_k collect torsion against first
derivatives, torsion derivatives, and torsion-quadratic contractions, and
every coefficient c_k lies in {-1, 0, 1}.  This module carries the catalogue
of seventeen independent members, evaluates the right side for arbitrary
coefficients, recovers coefficients for any of the 81 (p,q,r,s) combinations
by exact linear solving, and checks the equivalent mixed-rule and
partial-derivative (pseudotensor-revealing) forms of the family.

The mixed and expanded forms are implemented from the substitution rules
relating the derivative kinds, with every bracket correction carried at the
weight the substitution actually produces.

Second derivatives come from one symmetric pass.  Every rule is
D = S + sigma_up U + sigma_lo V, with S the symmetric-part rule and U, V the
torsion terms on the upper and the lower indices (no partial derivatives).
So a p|m q|n = D_q D_p a is SSa = S(S a) plus eight sigma-product-weighted
blocks, and by Leibniz, S(Ua) = (dtor) a + tor (Sa) and likewise for V.  All
eight are sums of the seventeen basis columns B_k / w_k, read as they are
or with m and n swapped, so SSa is the only second-derivative pass.  Each
identity side becomes integer- (mixed form: rational-) weighted columns,
merged per column; a column whose weights cancel is never built.  Columns 3,
10 and 15 and the R-commutator are antisymmetric in m, n (each carries
tor^A_{mn} or R^i_{jmn}), so their swapped read is folded into -1 times the
plain one before merging; in a correct member those weights cancel.  The
residual summed this way is exactly lhs - rhs on the instance, so checking
it is still the exact per-instance predicate; the composition
:meth:`IdentityWorkspace.dd` stays as the reference tests compare against.

The same split makes the coefficient solve one right side.  A combination's
target, lhs minus the R-commutator, is basis-column pieces, which are exact
offsets c_k += w / w_k, plus a rest that for all 81 combinations is the one
column SSa - SSa^(m<->n) - R-commutator.  Only that rest is solved for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import (
    LinearSystem,
    ScalarField,
    TensorField,
    _add_terms,
    _flat_to_indices,
    _strip_zeros,
    contract,
    matrix_rank,
)
from .connection import (
    ALL_KINDS,
    KIND_BY_NUMBER,
    ConnectionField,
    DerivKind,
    covariant_derivative,
)
from .curvature import curvature_R
from .sampling import derive_rng, random_even_connection, random_tensor_field


class IdentityAmbiguityError(RuntimeError):
    """The solver's design matrix never reached full column rank."""


class IdentityUnsolvableError(RuntimeError):
    """No coefficient vector in the family reproduces the left side."""


@dataclass(frozen=True)
class IdentityCoefficients:
    """One member of the identity family: the 17-entry coefficient vector
    and the (p, q, r, s) combination it encodes."""

    c: tuple
    pqrs: tuple
    tag: str | None = None

    def __post_init__(self):
        if len(self.c) != 17:
            raise ValueError("coefficient vector must have 17 entries")
        if any(v not in (-1, 0, 1) for v in self.c):
            raise ValueError("coefficients must lie in {-1, 0, 1}")
        if len(self.pqrs) != 4 or any(x not in (1, 2, 3) for x in self.pqrs):
            raise ValueError("combination must be a 4-tuple over {1, 2, 3}")


@dataclass(frozen=True)
class MixWeights:
    """Row-stochastic weights d^l_k (5 rows, l = 1..3) mixing the three
    derivative rules inside the five single-derivative terms."""

    rows: tuple

    def __post_init__(self):
        if len(self.rows) != 5 or any(len(r) != 3 for r in self.rows):
            raise ValueError("weights must be a 5x3 matrix")
        for r in self.rows:
            if sum(Fraction(x) for x in r) != 1:
                raise ValueError("each weight row must sum to 1")

    @classmethod
    def pure(cls, l: int) -> "MixWeights":
        if l not in (1, 2, 3):
            raise ValueError("rule index must be 1, 2 or 3")
        row = tuple(1 if i == l - 1 else 0 for i in range(3))
        return cls((row,) * 5)

    @classmethod
    def uniform(cls) -> "MixWeights":
        third = Fraction(1, 3)
        return cls(((third, third, third),) * 5)

    @classmethod
    def random(cls, rng) -> "MixWeights":
        rows = []
        for _ in range(5):
            d1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            d2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            rows.append((d1, d2, 1 - d1 - d2))
        return cls(tuple(rows))

    def split_signs(self, k: int):
        """(d1-d2+d3, d1-d2-d3) for row k in 1..5; these weight the upper-
        and lower-index leftovers of the substitution."""
        d1, d2, d3 = (Fraction(x) for x in self.rows[k - 1])
        return d1 - d2 + d3, d1 - d2 - d3


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

_KIND_BY_TAG = {kind.tag: kind for kind in ALL_KINDS}

# Torsion-against-derivative pattern k in 1..5: tor, then X = a derivative of a.
_DTERM_SPECS = (
    "Ajm,iAn->ijmn",
    "Ajn,iAm->ijmn",
    "Amn,ijA->ijmn",
    "iAn,Ajm->ijmn",
    "iAm,Ajn->ijmn",
)

# Cached tor.tor (1,3) blocks: (spec, operand names); see IdentityWorkspace._operand.
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


def _dd_refs(p: int, q: int, sign=1, swap=False):
    """dd(p, q) as weighted references to SSa and the basis columns."""
    kp, kq = KIND_BY_NUMBER[p], KIND_BY_NUMBER[q]
    refs = [(sign, SWAP if swap else ID, "dd_sym")]
    for outer, inner, columns in _DD_BLOCKS:
        w = sign * _sigma(outer, kq) * _sigma(inner, kp)
        refs += [_column(k, w, swap) for k in columns]
    return refs


def _lhs_refs(pqrs):
    p, q, r, s = pqrs
    return [*_dd_refs(p, q), *_dd_refs(r, s, sign=-1, swap=True)]


def _rhs_refs(coeffs: IdentityCoefficients, sign=1):
    refs = [(sign, ID, "rcomm")]
    refs += [_basis_ref(k, sign * ck) for k, ck in enumerate(coeffs.c, start=1) if ck]
    return refs


def _mixed_refs(coeffs: IdentityCoefficients, weights: MixWeights):
    """rhs_mixed as weighted references; weights are rational."""
    c = (None,) + coeffs.c
    xu, xl = zip((None, None), *(weights.split_signs(k) for k in range(1, 6)))

    refs = [(1, ID, "rcomm")]
    for k in range(1, 6):
        if not c[k]:
            continue
        for l in (1, 2, 3):
            w = Fraction(weights.rows[k - 1][l - 1])
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

    Second derivatives are not built rule by rule: with D = S + sigma_up U
    + sigma_lo V (``_DD_BLOCKS``), every identity side is a weighted sum of
    cached weight-1 tensors, namely SSa, the R-commutator and the basis
    columns.  Weights are merged per (read, tensor) first, a swapped read of
    an m, n-antisymmetric tensor counting as -1 times its plain read, and
    only tensors left with a nonzero weight are built.  The sum is exactly
    the tensor the rule-by-rule composition gives (:meth:`dd`, kept as the
    reference), so a residual checked this way is the same exact
    per-instance predicate: it is zero exactly when lhs - rhs is.
    """

    def __init__(self, a: TensorField, L: ConnectionField):
        if a.valence != (1, 1):
            raise ValueError("identity family is stated for valence (1, 1)")
        if a.dim != L.dim:
            raise ValueError("dimension mismatch")
        self.a = a
        self.L = L
        self.dim = a.dim
        self._cache = {}

    def _get(self, key, build):
        try:
            return self._cache[key]
        except KeyError:
            value = build()
            self._cache[key] = value
            return value

    def _operand(self, name: str) -> TensorField:
        """A factor named in the spec tables: ``a``, the torsion half ``tor``,
        its symmetric-rule derivative ``dtor``, a first derivative of ``a``
        (``d_sym``, ``d_1``..``d_4`` by rule tag, ``grad_a`` the plain
        partial gradient), ``dd_sym`` (SSa), ``rcomm`` or a cached block of
        ``_BLOCKS``."""
        if name == "a":
            return self.a
        if name == "tor":
            return self.L.torsion_half()
        if name == "rcomm":
            return self.r_commutator()
        if name in _BLOCKS:
            return self._contraction(*_BLOCKS[name])
        if name == "grad_a":
            return self._get(name, self.a.partial_gradient)
        if name == "dtor":
            return self._get(
                name,
                lambda: covariant_derivative(DerivKind.SYM, self.L.torsion_half(), self.L),
            )
        if name == "dd_sym":
            return self._get(
                name,
                lambda: covariant_derivative(DerivKind.SYM, self._operand("d_sym"), self.L),
            )
        return self.first_derivative(_KIND_BY_TAG[name.removeprefix("d_")])

    def _contraction(self, spec: str, *names) -> TensorField:
        """The (1,3) contraction of named operands by ``spec``, cached."""
        return self._get(
            (spec, *names), lambda: contract((1, 3), (1, spec, *map(self._operand, names)))
        )

    def _tensor(self, key) -> TensorField:
        """The cached tensor of a reference key: an operand name or a
        (spec, operand names) contraction."""
        return self._operand(key) if isinstance(key, str) else self._contraction(*key)

    def _pieces(self, refs) -> list:
        """``contract`` terms of weighted references (weight, read, key).
        Weights are merged per (read, key) first (:func:`_merge`, which
        folds the m, n-antisymmetric keys); only keys left with a nonzero
        weight are built."""
        return [(w, read, self._tensor(key)) for (read, key), w in _merge(refs).items()]

    # first and second derivatives ------------------------------------------

    def first_derivative(self, which) -> TensorField:
        """Covariant derivative of ``a``: rule 1..3 or any DerivKind."""
        kind = KIND_BY_NUMBER[which] if isinstance(which, int) else which
        return self._get(
            ("d1", kind), lambda: covariant_derivative(kind, self.a, self.L)
        )

    def dd(self, p: int, q: int) -> TensorField:
        """a p|m q|n by composition, cached per ordered pair: the reference
        for the block form the identity checks use."""

        def build():
            kq = KIND_BY_NUMBER[q]
            return covariant_derivative(kq, self.first_derivative(p), self.L)

        return self._get(("dd", p, q), build)

    def lhs(self, pqrs) -> TensorField:
        """a p|m q|n - a r|n s|m (the second pair evaluated with m, n swapped)."""
        return contract((1, 3), *self._pieces(_lhs_refs(pqrs)))

    # curvature and torsion blocks -------------------------------------------

    def curvature(self) -> TensorField:
        return self._get("R", lambda: curvature_R(self.L.symmetric_part()))

    def r_commutator(self) -> TensorField:
        """a^alpha_j R^i_{alpha mn} - a^i_alpha R^alpha_{jmn}."""

        def build():
            R = self.curvature()
            return contract(
                (1, 3), (1, "Aj,iAmn->ijmn", self.a, R), (-1, "iA,Ajmn->ijmn", self.a, R)
            )

        return self._get("rcomm", build)

    # basis and right sides ----------------------------------------------------

    def basis(self, k: int) -> TensorField:
        """Basis term k in 1..17 (the R-commutator is not part of the basis)."""
        if not 1 <= k <= 17:
            raise ValueError("basis index must lie in 1..17")
        return self._get(
            ("basis", k), lambda: contract((1, 3), *self._pieces([_basis_ref(k)]))
        )

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

    def rhs_expanded(self, coeffs: IdentityCoefficients) -> TensorField:
        """The pseudotensor-revealing form: first derivatives replaced by
        plain partials, with the induced symmetric-part cross terms carried
        inside the brackets.  Agrees exactly with :meth:`rhs`."""
        c = (None,) + coeffs.c  # 1-based
        a, tor = self.a, self.L.torsion_half()
        sym = self.L.symmetric_part().coeffs
        pieces = [(1, ID, self.r_commutator())]
        pieces += [
            (2 * c[k], ID, self._contraction(_DTERM_SPECS[k - 1], "tor", "grad_a"))
            for k in range(1, 6)
        ]
        pieces += [(c[k], ID, self.basis(k)) for k in range(6, 18)]
        pieces += [
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
        return contract((1, 3), *pieces)

    def rhs_mixed(self, coeffs: IdentityCoefficients, weights: MixWeights) -> TensorField:
        """The family with the five derivative terms written as rule-1/2/3
        mixtures; bracket coefficients pick up the substitution leftovers.

        Expressed against the cached basis: pattern k of the torsion-quadratic
        brackets absorbs -2 c_k times the substitution sign combinations."""
        return contract((1, 3), *self._pieces(_mixed_refs(coeffs, weights)))

    def mixed_residual_pieces(self, coeffs: IdentityCoefficients, weights: MixWeights):
        """Weighted column tensors of lhs - rhs_mixed, merged per column;
        weights are rational."""
        refs = _mixed_refs(coeffs, weights)
        return self._pieces([*_lhs_refs(coeffs.pqrs), *((-w, read, key) for w, read, key in refs)])

    def mixed_residual(self, coeffs: IdentityCoefficients, weights: MixWeights) -> TensorField:
        """D * (lhs - rhs_mixed) in one pass, D the lcm of the weights'
        denominators.  Every weight is scaled to an integer, so the
        accumulation runs on ints; the result is zero exactly when the
        rational residual is."""
        pieces = self.mixed_residual_pieces(coeffs, weights)
        D = lcm(*(Fraction(w).denominator for w, _, _ in pieces))
        return contract((1, 3), *((int(w * D), spec, t) for w, spec, t in pieces))

    def nonzero_members(self, members) -> dict:
        """Which of K residuals are nonzero, from one packed ``contract``.

        ``members`` holds one piece list per member, as built by
        :meth:`residual_pieces` or :meth:`mixed_residual_pieces`; member k's
        residual is the sum of its pieces.  Returns {k: (entry, monomial)}
        for every nonzero member in index order, where ``entry`` is the
        index tuple of its first nonzero entry (row-major) and ``monomial``
        the first nonzero term there (packed-key order), a one-term
        ScalarField carrying the residual's own coefficient.

        The members are packed into big-int slots of b bits (SWAR).  Column
        j, a distinct (spec, tensor) pair, is scaled by E, the lcm of the
        columns' coefficient denominators, and weighted by
        sum_k (Dw w_kj) << (b k), Dw the lcm of the weights' denominators.
        Each coefficient of the one contraction is then sum_k r_k 2^(b k),
        with r_k = D times member k's coefficient, D = Dw E.  b is chosen so
        that 2^(b-1) > D sum_j |w_kj| max|column j| for every k, hence every
        |r_k| < 2^(b-1); such a sum is zero only when every r_k is, and the
        r_k decode slot by slot with sign.  So this is exactly the predicate
        ``residual.is_zero()`` per member, not a random projection.
        """
        columns = {}  # (spec, id(tensor)) -> (spec, tensor, {k: weight})
        for k, pieces in enumerate(members):
            for w, spec, t in pieces:
                if w:
                    _, _, ws = columns.setdefault((spec, id(t)), (spec, t, {}))
                    ws[k] = ws.get(k, 0) + w
        tensors = {id(t): t for _, t, _ in columns.values()}
        stats = {}  # id(tensor) -> (max |coefficient|, lcm of denominators)
        for key, t in tensors.items():
            values = [v for e in t.entries for v in e._terms.values()]
            fractional = Fraction in set(map(type, values))
            stats[key] = (
                max(map(abs, values), default=0),
                lcm(*(v.denominator for v in values)) if fractional else 1,
            )
        Dw = lcm(*(Fraction(w).denominator for *_, ws in columns.values() for w in ws.values()))
        E = lcm(*(den for _, den in stats.values()))
        bounds = [0] * len(members)
        for _, t, ws in columns.values():
            top = int(E * stats[id(t)][0])
            for k, w in ws.items():
                bounds[k] += abs(int(w * Dw)) * top
        b = max(bounds, default=0).bit_length() + 1
        if E != 1:  # integral copies, so the accumulation runs on ints
            tensors = {key: t.scale(E) for key, t in tensors.items()}
        terms = [
            (sum(int(w * Dw) << (b * k) for k, w in ws.items()), spec, tensors[id(t)])
            for spec, t, ws in columns.values()
        ]
        if not terms:
            return {}
        packed = contract((1, 3), *terms)

        D, mask, half = Dw * E, (1 << b) - 1, 1 << (b - 1)
        found = {}
        for e, field in enumerate(packed.entries):
            for key in sorted(field._terms):
                v, k = field._terms[key], 0
                while v:
                    r = v & mask
                    if r >= half:
                        r -= mask + 1
                    if r and k not in found:
                        coeff = Fraction(r, D)
                        term = coeff.numerator if coeff.denominator == 1 else coeff
                        found[k] = (
                            _flat_to_indices(e, self.dim, 4),
                            ScalarField(self.dim, {key: term}),
                        )
                    v = (v - r) >> b
                    k += 1
        return dict(sorted(found.items()))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def verify_identity(pqrs, a: TensorField, L: ConnectionField) -> TensorField:
    """Residual (left minus right side) for a catalogued combination."""
    pqrs = tuple(pqrs)
    if pqrs not in CATALOGUE_BY_PQRS:
        raise ValueError(
            f"{pqrs} is not catalogued; use solve_identity_coefficients for it"
        )
    return IdentityWorkspace(a, L).residual(CATALOGUE_BY_PQRS[pqrs])


def verify_mixed_family(
    pqrs, weights: MixWeights, a: TensorField, L: ConnectionField
) -> TensorField:
    """Residual of the mixed-rule form for a catalogued combination, scaled
    by D, the lcm of the weights' denominators (see
    :meth:`IdentityWorkspace.mixed_residual`): it has integer coefficients
    on integral instances and vanishes exactly when the rational one does."""
    pqrs = tuple(pqrs)
    if pqrs not in CATALOGUE_BY_PQRS:
        raise ValueError("mixed-family verification covers catalogued combinations")
    return IdentityWorkspace(a, L).mixed_residual(CATALOGUE_BY_PQRS[pqrs], weights)


def verify_expanded_identity(pqrs, a: TensorField, L: ConnectionField) -> TensorField:
    """Difference between the partial-derivative (expanded) form and the
    covariant form of the right side; exactly zero when both are correct."""
    pqrs = tuple(pqrs)
    if pqrs not in CATALOGUE_BY_PQRS:
        raise ValueError("expanded-form verification covers catalogued combinations")
    ws = IdentityWorkspace(a, L)
    coeffs = CATALOGUE_BY_PQRS[pqrs]
    return ws.rhs_expanded(coeffs) - ws.rhs(coeffs)


# ---------------------------------------------------------------------------
# Coefficient solving
# ---------------------------------------------------------------------------


def _instance_workspace(seed: int, label: str, dim: int, degree: int) -> IdentityWorkspace:
    rng = derive_rng(seed, label)
    L = random_even_connection(rng, dim, degree)
    a = random_tensor_field(rng, dim, (1, 1), degree)
    return IdentityWorkspace(a, L)


def _feed_rows(system: LinearSystem, ws: IdentityWorkspace, rests) -> None:
    """Stack structural equations (one per tensor entry and monomial) until
    the design matrix has full column rank.

    Right side j is the tensor of ``rests[j]``, a list of weighted
    references (see :func:`_split_target`); it is summed entry by entry from
    its cached tensors as the rows are fed, so the entries after full rank
    are never assembled."""
    dim = ws.dim
    entries = {}  # id(tensor) -> the term dicts of its entries

    def columns(refs):
        out = []
        for w, read, t in ws._pieces(refs):
            if id(t) not in entries:
                entries[id(t)] = [e._terms for e in t.entries]
            out.append((w, read == SWAP, entries[id(t)]))
        return out

    basis = [columns([_basis_ref(k)])[0] for k in range(1, 18)]
    target_columns = [columns(rest) for rest in rests]
    for e in range(dim**4):
        m, n = divmod(e % (dim * dim), dim)
        swapped = e + (n - m) * (dim - 1)  # the entry with m and n swapped (SWAP)
        basis_terms = [(w, col[swapped if swap else e]) for w, swap, col in basis]
        targets = []
        for pieces in target_columns:
            acc = {}
            for w, swap, col in pieces:
                _add_terms(acc, col[swapped if swap else e], w)
            targets.append(_strip_zeros(acc))
        keys = set()
        for _, bt in basis_terms:
            keys.update(bt)
        for tg in targets:
            keys.update(tg)
        for key in sorted(keys):
            row = [w * bt.get(key, 0) for w, bt in basis_terms]
            rhs = [tg.get(key, 0) for tg in targets]
            system.add_row(row, rhs)
        if system.rank == 17:
            return


def span_basis(members) -> list:
    """The members whose :func:`identity_row` is independent of the rows
    before them, in the order given: those whose row adds a pivot to one
    :class:`LinearSystem`.  Every member is an exact rational combination
    of the kept ones; the full 81-member sweep keeps 17.
    """
    system = LinearSystem(36, nrhs=0)  # the width of identity_row
    return [ic for ic in members if system.add_row(identity_row(ic))]


def verify_solutions(solutions, seed: int, verify_dims, degree: int) -> list:
    """Check solved members on fresh instances through their span basis.

    :meth:`IdentityWorkspace.residual` is linear in :func:`identity_row`,
    and every solved row is an exact rational combination of the rows
    :func:`span_basis` keeps, so on a given instance all residuals vanish
    exactly when the kept ones do.  Checking only the kept members is the
    same predicate as checking every member.  A wrong coefficient moves its
    row out of the span of the true identities, so that member is kept and
    its nonzero residual fails.

    On each instance the kept members are checked together by
    :meth:`IdentityWorkspace.nonzero_members`: one contraction whose
    coefficients pack the members' residual coefficients into big-int slots
    wide enough that their sum is zero only when every slot is.  That too is
    the exact per-member predicate.  Returns the kept members; raises
    IdentityUnsolvableError naming the instance, the member and its first
    nonzero residual entry and monomial.
    """
    kept = span_basis(solutions.values())
    for t, dim in enumerate(verify_dims):
        label = f"check:{t}:{dim}"
        ws = _instance_workspace(seed, label, dim, degree)
        failing = ws.nonzero_members([ws.residual_pieces(ic) for ic in kept])
        if failing:
            k, (entry, monomial) = next(iter(failing.items()))
            raise IdentityUnsolvableError(
                f"{kept[k].pqrs}: solved coefficients fail on a fresh instance"
                f" (seed {seed}, label {label!r}, dim {dim}, degree {degree}):"
                f" entry {entry} has residual term {monomial!r}"
            )
    return kept


class SolvedIdentities(dict):
    """{pqrs: IdentityCoefficients} from a solve, with ``span``: the members
    :func:`span_basis` kept when the solutions were verified."""

    def __init__(self, members, span):
        super().__init__(members)
        self.span = span


def _solve_combos(combos, seed, dims, degree, verify_dims) -> SolvedIdentities:
    """Solve the combinations together, then verify them on fresh instances.

    :func:`_split_target` splits each target into exact basis offsets and
    a rest; the system carries one right side per distinct rest (one for
    the 81 combinations).  A target and its rest differ by a basis
    combination, so the rows fed and their consistency are those of the
    targets.  The system is solved fraction-free (see
    :class:`LinearSystem`), once per distinct rest, and each combination's
    coefficients are that solution plus its offsets.

    The verification checks the span basis of the solved identity rows (17
    members for the full sweep), not every member: the residual is linear in
    the identity row and every solved row is an exact combination of the
    kept ones, so all residuals vanish exactly when the kept ones do.  The
    kept members share one packed contraction per instance, whose slots are
    wide enough that the packed sum vanishes exactly when every member's
    residual does (:meth:`IdentityWorkspace.nonzero_members`).
    """
    splits = [_split_target(combo) for combo in combos]
    rests = list(dict.fromkeys(rest for rest, _ in splits))
    system = LinearSystem(17, nrhs=len(rests))
    for t, dim in enumerate(dims):
        # no reference kept: the workspace is freed before verification
        _feed_rows(system, _instance_workspace(seed, f"solve:{t}:{dim}", dim, degree), rests)
        if system.rank == 17:
            break
    if system.rank < 17:
        raise IdentityAmbiguityError(
            f"design matrix rank {system.rank} < 17 after {len(dims)} instances"
        )

    solved = {}  # rest -> its solution
    solutions = {}
    for combo, (rest, offsets) in zip(combos, splits):
        if rest not in solved:
            try:
                solved[rest] = system.solve(rests.index(rest))
            except ValueError as exc:
                raise IdentityUnsolvableError(f"{combo}: {exc}") from exc
        ints = []
        for v in map(sum, zip(solved[rest], offsets)):
            if v.denominator != 1 or v not in (-1, 0, 1):
                raise IdentityUnsolvableError(
                    f"{combo}: solved coefficient {v} falls outside {{-1, 0, 1}}"
                )
            ints.append(int(v))
        solutions[combo] = IdentityCoefficients(
            tuple(ints), combo, _tag(combo) if combo in CATALOGUE_BY_PQRS else None
        )

    return SolvedIdentities(solutions, verify_solutions(solutions, seed, verify_dims, degree))


def solve_identity_coefficients(
    pqrs, seed: int = 20260809, dims=(3, 4), degree: int = 2, verify_dims=(3,)
) -> IdentityCoefficients:
    """Recover the coefficient vector of one (p, q, r, s) combination.

    Sets up the exact linear system whose unknowns are the seventeen basis
    weights and whose equations equate polynomial coefficients of the rest
    of the left side (SSa - SSa^(m<->n) - R-commutator, once the basis
    columns of ``_DD_BLOCKS`` are taken out as exact offsets) with the basis
    combination, instance by instance, adds the offsets, then confirms the
    solution on fresh instances.  A single member is its own span basis, so
    it is checked directly.
    """
    pqrs = tuple(pqrs)
    if any(x not in (1, 2, 3) for x in pqrs) or len(pqrs) != 4:
        raise ValueError("combination must be a 4-tuple over {1, 2, 3}")
    return _solve_combos([pqrs], seed, dims, degree, verify_dims)[pqrs]


def solve_all_identities(
    seed: int = 20260809, dims=(3, 4), degree: int = 2, verify_dims=(3, 4)
) -> SolvedIdentities:
    """Solve every one of the 81 combinations; returns {pqrs: coefficients}
    as a :class:`SolvedIdentities`.

    All 81 targets share one rest, SSa - SSa^(m<->n) - R-commutator, so the
    system has one right side and is solved once; each combination adds its
    own basis offsets from ``_DD_BLOCKS``.  The solutions are confirmed on
    fresh instances through the 17 members of their span basis: the
    residual is linear in the identity row and the other 64 rows are exact
    combinations of those 17, so all 81 residuals vanish exactly when the 17
    checked ones do.
    """
    return _solve_combos(list(ALL_COMBINATIONS), seed, dims, degree, verify_dims)


def solved_span_rank(solutions: SolvedIdentities) -> int:
    """Dimension of the span of solved identities (17 for the full sweep):
    the number of members :func:`span_basis` kept when they were verified,
    so the rows are not eliminated a second time."""
    return len(solutions.span)
