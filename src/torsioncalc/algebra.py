"""Exact arithmetic substrate: rationals, multivariate polynomials over the
rationals, dense multi-index tensor fields, and exact rational linear algebra.

Sums over repeated indices go through one primitive, :func:`contract`, which
takes ``numpy.einsum``-style specs over the row-major entry layout; the
covariant derivative in :mod:`torsioncalc.connection` is one such call.  It
forms its polynomial products through one helper, :func:`_product_sums`:
operands large enough to pay for it are encoded as integers (Kronecker
substitution, :class:`_Kronecker`), so that a product is one big-int
multiply, and the rest multiply term by term.  Exact elimination likewise
has one routine, :class:`LinearSystem`: every rank, span basis and
coefficient solve in the package goes through it, the solve's equations fed
by :meth:`LinearSystem.add_coefficient_rows`.  Every residual check is one
exact zero test, :func:`nonzero_sums`.  So no other module reads the packed
term format.  Polynomials of both stacks print through
:func:`format_polynomial`, ``ratfunc.Poly`` included.

Every value is immutable after construction and every operation is a pure
function, so instances can be shared freely between threads or processes.
There is deliberately no floating-point code path here: identities verified
downstream must produce residuals that are *exactly* zero.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul, or_

MAX_DIMENSION = 6

# Exponent multi-indices are packed into a single int, 8 bits per coordinate,
# so that monomial multiplication is a single integer addition.  Total degree
# stays far below 255 for every operation in this package.
_SHIFT = 8
_MASK = 0xFF
# the top bit of every slot: a key without these bits has exponents < 128
_HIGH_BITS = sum(0x80 << (_SHIFT * k) for k in range(MAX_DIMENSION))


class ExponentOverflowError(ValueError):
    """A product's exponent would not fit its 8-bit packed slot."""


def _pack(exponents) -> int:
    key = 0
    for k, e in enumerate(exponents):
        if e < 0:
            raise ValueError("exponents must be non-negative")
        if e > _MASK:
            raise ValueError("exponent too large to pack")
        key |= e << (_SHIFT * k)
    return key


def _unpack(key: int, dim: int) -> tuple:
    return tuple((key >> (_SHIFT * k)) & _MASK for k in range(dim))


def _check_product_exponents(dim: int, *factors) -> None:
    """Raise ExponentOverflowError when, in some coordinate, the maximum
    exponents of the factors sum past 255; their products' packed keys would
    otherwise carry into the next coordinate.  Each factor is a list of raw
    term dicts."""
    bounds = [reduce(or_, (reduce(or_, t, 0) for t in f), 0) for f in factors]
    for k in range(dim):
        shift = _SHIFT * k
        # the OR of a factor's keys bounds its largest exponent from above
        if sum((b >> shift) & _MASK for b in bounds) <= _MASK:
            continue
        maxima = [
            max(((key >> shift) & _MASK for t in f for key in t), default=0)
            for f in factors
        ]
        if sum(maxima) > _MASK:
            raise ExponentOverflowError(
                f"x{k}: exponents {' + '.join(map(str, maxima))}"
                f" exceed the packed limit {_MASK}"
            )


def _fma_terms(acc: dict, ta: dict, tb: dict, sign: int = 1) -> None:
    """acc += sign * (ta * tb), all operands raw term dicts.  Hot path."""
    if not ta or not tb:
        return
    get = acc.get
    if sign == 1:
        for ka, va in ta.items():
            for kb, vb in tb.items():
                k = ka + kb
                acc[k] = get(k, 0) + va * vb
    else:
        for ka, va in ta.items():
            for kb, vb in tb.items():
                k = ka + kb
                acc[k] = get(k, 0) - va * vb


def _add_terms(acc: dict, t: dict, scale=1) -> None:
    """acc += scale * t, raw term dicts."""
    if not t or scale == 0:
        return
    get = acc.get
    if scale == 1:
        for k, v in t.items():
            acc[k] = get(k, 0) + v
    else:
        for k, v in t.items():
            acc[k] = get(k, 0) + scale * v


def _strip_zeros(acc: dict) -> dict:
    """Drop zero coefficients and unbox integral Fractions to plain ints
    (integer arithmetic is several times faster on the hot paths)."""
    out = {}
    for k, v in acc.items():
        if v:
            if type(v) is Fraction and v.denominator == 1:
                v = v.numerator
            out[k] = v
    return out


def format_polynomial(terms) -> str:
    """Display of a polynomial from its (coefficient, monomial text) pairs,
    in order; the text is empty for the constant term."""
    parts = []
    for coeff, body in terms:
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class ScalarField:
    """Exact multivariate polynomial over the rationals in ``dim`` coordinates.

    Terms are stored as a map from packed exponent multi-index to a nonzero
    rational coefficient, which makes equality structural: two fields are equal
    iff they are the same polynomial.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, _terms: dict | None = None):
        if not 1 <= dim <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {dim}")
        self.dim = dim
        self._terms = _terms if _terms is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, dim: int) -> "ScalarField":
        if value == 0:
            return cls(dim)
        return cls(dim, {0: value})

    @classmethod
    def from_terms(cls, terms: dict, dim: int) -> "ScalarField":
        """Build from a map {exponent tuple: coefficient}."""
        packed = {}
        for exps, coeff in terms.items():
            if len(exps) != dim:
                raise ValueError("exponent tuple length must equal dimension")
            if coeff != 0:
                key = _pack(exps)
                packed[key] = packed.get(key, 0) + coeff
        return cls(dim, _strip_zeros(packed))

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict:
        """Terms as a map {exponent tuple: coefficient}, canonical order."""
        return {
            _unpack(k, self.dim): v for k, v in sorted(self._terms.items())
        }

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_dim(other)
        acc = dict(self._terms)
        _add_terms(acc, other._terms)
        return ScalarField(self.dim, _strip_zeros(acc))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_dim(other)
        acc = dict(self._terms)
        _add_terms(acc, other._terms, -1)
        return ScalarField(self.dim, _strip_zeros(acc))

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.dim, {k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            self._check_same_dim(other)
            if (reduce(or_, self._terms, 0) | reduce(or_, other._terms, 0)) & _HIGH_BITS:
                # some exponent reaches 128, so a sum of two may pass 255
                _check_product_exponents(self.dim, [self._terms], [other._terms])
            acc = {}
            _fma_terms(acc, self._terms, other._terms)
            return ScalarField(self.dim, _strip_zeros(acc))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "ScalarField":
        if factor == 0:
            return ScalarField(self.dim)
        return ScalarField(
            self.dim, _strip_zeros({k: factor * v for k, v in self._terms.items()})
        )

    def partial(self, k: int) -> "ScalarField":
        """Exact formal partial derivative with respect to coordinate ``k``."""
        if not 0 <= k < self.dim:
            raise IndexError(f"coordinate index {k} out of range for dimension {self.dim}")
        shift = _SHIFT * k
        out = {}
        for key, coeff in self._terms.items():
            e = (key >> shift) & _MASK
            if e:
                out[key - (1 << shift)] = coeff * e
        return ScalarField(self.dim, out)

    # -- comparisons / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __repr__(self) -> str:
        return format_polynomial(
            (coeff, "*".join(f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in enumerate(exps) if e))
            for exps, coeff in self.terms().items()
        )

    def _check_same_dim(self, other: "ScalarField") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


class TensorField:
    """Dense array of scalar fields with ``r`` upper and ``s`` lower indices.

    Entries are stored flat in row-major order, upper indices first.  Each
    index runs over ``0..dim-1``; the entry count is ``dim**(r+s)``.
    """

    __slots__ = ("dim", "valence", "entries")

    def __init__(self, dim: int, valence: tuple, entries: list):
        r, s = valence
        if r < 0 or s < 0:
            raise ValueError("valence components must be non-negative")
        if len(entries) != dim ** (r + s):
            raise ValueError("entry count must equal dim**(r+s)")
        self.dim = dim
        self.valence = (r, s)
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, valence: tuple) -> "TensorField":
        count = dim ** (valence[0] + valence[1])
        z = ScalarField(dim)
        return cls(dim, valence, [z] * count)

    @classmethod
    def build(cls, dim: int, valence: tuple, fn) -> "TensorField":
        """Entry-wise constructor: ``fn(*indices) -> ScalarField``."""
        rank = valence[0] + valence[1]
        entries = []
        for flat in range(dim**rank):
            entries.append(fn(*_flat_to_indices(flat, dim, rank)))
        return cls(dim, valence, entries)

    # -- indexing -----------------------------------------------------------

    def rank(self) -> int:
        return self.valence[0] + self.valence[1]

    def get(self, *indices) -> ScalarField:
        if len(indices) != self.rank():
            raise ValueError("wrong number of indices")
        flat = 0
        for i in indices:
            if not 0 <= i < self.dim:
                raise IndexError("tensor index out of range")
            flat = flat * self.dim + i
        return self.entries[flat]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return TensorField(
            self.dim, self.valence,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "TensorField") -> "TensorField":
        self._check_compatible(other)
        return TensorField(
            self.dim, self.valence,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "TensorField":
        return TensorField(self.dim, self.valence, [-a for a in self.entries])

    def scale(self, factor) -> "TensorField":
        return TensorField(self.dim, self.valence, [a.scale(factor) for a in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorField):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.valence == other.valence
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        r, s = self.valence
        return f"TensorField(dim={self.dim}, valence=({r},{s}))"

    def partial_gradient(self) -> "TensorField":
        """Entry-wise partial derivative, appended as a final lower index."""
        r, s = self.valence
        dim = self.dim
        out = []
        for e in self.entries:
            for k in range(dim):
                out.append(e.partial(k))
        return TensorField(dim, (r, s + 1), out)

    def swap_last_lower(self) -> "TensorField":
        """Swap the final two lower indices (antisymmetry checks, LHS swaps)."""
        if self.valence[1] < 2:
            raise ValueError("swap_last_lower needs two lower indices")
        head = "abcdefghijklmnopqrstuvwx"[: self.rank() - 2]
        return contract(self.valence, (1, f"{head}yz->{head}zy", self))

    def _check_compatible(self, other: "TensorField") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.valence != other.valence:
            raise ValueError(f"valence mismatch: {self.valence} vs {other.valence}")


def _flat_to_indices(flat: int, dim: int, rank: int) -> tuple:
    idx = [0] * rank
    for pos in range(rank - 1, -1, -1):
        idx[pos] = flat % dim
        flat //= dim
    return tuple(idx)


@lru_cache(maxsize=1024)
def _contraction_plan(spec: str, dim: int):
    """Offsets of one ``numpy.einsum``-style spec in row-major layouts.

    Returns (ranks, out_rank, bases, inner): ``ranks`` counts each operand's
    letters, ``bases[k][e]`` is operand k's flat offset at output entry e
    with every summed letter at 0, and each tuple of ``inner`` adds one
    assignment of the summed letters, one offset per operand.  A letter
    repeated within an operand takes its diagonal.
    """
    inputs, arrow, output = spec.partition("->")
    if not arrow:
        raise ValueError(f"{spec!r}: expected 'in1,in2,...->out'")
    operands = inputs.split(",")
    if len(set(output)) != len(output):
        raise ValueError(f"{spec!r}: output letters must be distinct")
    used = set("".join(operands))
    missing = sorted(set(output) - used)
    if missing:
        raise ValueError(f"{spec!r}: output letters {missing} appear in no operand")
    summed = sorted(used - set(output))

    strides = []
    for letters in operands:
        stride = dict.fromkeys(used, 0)
        for p, c in enumerate(letters):
            stride[c] += dim ** (len(letters) - 1 - p)
        strides.append(stride)

    def offsets(letters):
        # one column of offsets per operand, in itertools.product order of
        # the letters' values: each letter expands every offset into dim,
        # its value varying fastest
        columns = []
        for st in strides:
            col = [0]
            for c in letters:
                step = st[c]
                col = [o + v * step for o in col for v in range(dim)]
            columns.append(tuple(col))
        return columns

    bases = tuple(offsets(output))
    return tuple(map(len, operands)), len(output), bases, tuple(zip(*offsets(summed)))


@lru_cache(maxsize=256)
def _pair_first(spec: str):
    """Split a spec of three or more operands into two steps.

    Picks the pair of operands whose contraction keeps the fewest letters
    (those another operand or the output still needs) and returns
    ``(i, j, pair_spec, pair_rank, rest_spec)``: operands i and j contract
    by ``pair_spec`` into one rank-``pair_rank`` intermediate, which
    ``rest_spec`` takes as its last operand after the remaining ones.  The
    pair's product is then formed once per entry of the intermediate, not
    again for every output entry and assignment of the other summed letters.
    """
    inputs, _, output = spec.partition("->")
    operands = inputs.split(",")
    best = None
    for i, j in itertools.combinations(range(len(operands)), 2):
        rest = [o for k, o in enumerate(operands) if k not in (i, j)]
        needed = set("".join(rest) + output)
        kept = "".join(dict.fromkeys(c for c in operands[i] + operands[j] if c in needed))
        if best is None or len(kept) < len(best[2]):
            best = (i, j, kept, rest)
    i, j, kept, rest = best
    pair_spec = f"{operands[i]},{operands[j]}->{kept}"
    return i, j, pair_spec, len(kept), f"{','.join([*rest, kept])}->{output}"


# ---------------------------------------------------------------------------
# Kronecker-packed products
# ---------------------------------------------------------------------------


def _factor_stats(factor):
    """(the set of keys, largest |coefficient|, largest sum of |coefficient|
    over one entry) of a list of raw term dicts, for
    :func:`_kronecker_layout`; None when some coefficient is not an int."""
    values = [v for t in factor for v in t.values()]
    if not {int}.issuperset(map(type, values)):
        return None
    return (
        set().union(*factor),
        max(map(abs, values)),
        max(sum(map(abs, t.values())) for t in factor),
    )


class _Kronecker:
    """Polynomials as integers (Kronecker substitution), so that a product
    of two polynomials is one big-int multiply.

    Exponent e maps to position pos(e) = sum_k e_k M_k in the mixed radix
    ``radices`` (M_k the product of the radices before k), and a term c x^e
    to c << (w pos(e)).  When every product exponent lies below the radices,
    pos(ex + ey) = pos(ex) + pos(ey), so each w-bit slot of a sum of
    products collects exactly the coefficient of one monomial.  The caller
    picks w so that 2^(w-1) exceeds each such coefficient in absolute value:
    then adding 2^(w-1) at every position of total degree <= ``degree``
    leaves each slot in [0, 2^w), so no borrow or carry crosses a slot, and
    flipping that bit back leaves each slot as its coefficient in w-bit two's
    complement.
    """

    __slots__ = ("shift_of", "bias", "size", "unpack", "keys")

    def __init__(self, radices: tuple, degree: int, width: int):
        places = [1, *itertools.accumulate(radices[:-1], mul)]
        # every (position, key) of total degree <= degree, in ascending order
        # of both: coordinate 0 is the least significant in each
        positions = [(0, 0, 0)]
        for k, (b, m) in enumerate(zip(radices, places)):
            positions = [
                (p + e * m, key | e << (_SHIFT * k), d + e)
                for p, key, d in positions
                for e in range(min(b, degree - d + 1))
            ]
        positions.sort()
        nbytes = width // 8
        self.shift_of = {key: width * p for p, key, _ in positions}
        self.bias = sum(1 << (width * (p + 1) - 1) for p, _, _ in positions)
        self.size = nbytes * (positions[-1][0] + 1)
        self.keys = [key for _, key, _ in positions]
        layout, last = [], 0
        for p, _, _ in positions:
            layout.append(f"{(p - last) * nbytes}x{nbytes}s" if p > last else f"{nbytes}s")
            last = p + 1
        self.unpack = struct.Struct("<" + "".join(layout)).unpack_from

    def encode(self, factor) -> list:
        """One integer per term dict of ``factor``, whose keys must lie
        below the radices and the degree."""
        shift_of = self.shift_of
        return [sum([c << shift_of[key] for key, c in t.items()]) for t in factor]

    def decode(self, value: int) -> dict:
        """The term dict of a packed sum, in ascending key order."""
        if not value:
            return {}
        bias = self.bias
        raw = self.unpack(((value + bias) ^ bias).to_bytes(self.size, "little"))
        return {
            key: c
            for key, chunk in zip(self.keys, raw)
            if (c := int.from_bytes(chunk, "little", signed=True))
        }


# one layout per (radices, degree, width), reused across calls
_kronecker = lru_cache(maxsize=64)(_Kronecker)

# Which path pays, in units of one term pair of _fma_terms (about 110 ns on
# a 2-vCPU x86 VM, CPython 3.11), fitted to covariant derivatives and
# contractions at dims 2-6 and degrees 1-4.  The term dicts cost one unit per
# term pair plus _DICT_PRODUCT per product.  Packing costs one unit per
# _DIGIT_PAIRS of max(dx, dy) * min(dx, dy)**0.585 per product (a Karatsuba
# multiply of dx and dy 30-bit digits), _ENTRY_COST per output entry,
# _SLOT_COST per decoded slot, _TERM_COST per encoded term and _LAYOUT_COST
# once.
_DICT_PRODUCT = 10
_DIGIT_PAIRS = 40
_ENTRY_COST = 10
_SLOT_COST = 0.5
_TERM_COST = 8
_LAYOUT_COST = 60


def _kronecker_layout(dim: int, xs, ys, plan):
    """The :class:`_Kronecker` for :func:`_product_sums` of ``plan`` over the
    term dicts ``xs`` and ``ys``, or None when every product is zero, when
    by the cost estimate above the term dicts are cheaper, or when a
    coefficient is not an int.

    The slot width is exact: one coefficient of x * y is at most
    max ||x||_1 max |y| (or with x and y exchanged) in absolute value, so a
    sum of as many products as the longest entry of ``plan`` stays below
    2^(w-1)."""
    nx, ny = sum(map(len, xs)), sum(map(len, ys))
    if not nx or not ny:
        return None
    products = sum(map(len, plan))
    term_dicts = products * (nx / len(xs) * ny / len(ys) + _DICT_PRODUCT)
    # what packing costs besides the multiplies and the decoded slots
    fixed = len(plan) * _ENTRY_COST + _TERM_COST * (nx + ny) + _LAYOUT_COST
    if term_dicts <= fixed:
        return None
    sx, sy = _factor_stats(xs), _factor_stats(ys)
    if sx is None or sy is None:
        return None
    (kx, topx, l1x), (ky, topy, l1y) = sx, sy
    bound = max(map(len, plan)) * min(l1x * topy, l1y * topx)
    width = (bound.bit_length() + 8) // 8 * 8
    ex = [_unpack(k, dim) for k in kx]
    ey = [_unpack(k, dim) for k in ky]
    # each pair of factors passed _check_product_exponents, so a product
    # exponent never exceeds _MASK even where the maxima of x and y do
    radices = tuple(
        min(max(e[k] for e in ex) + max(e[k] for e in ey), _MASK) + 1 for k in range(dim)
    )
    places = [1, *itertools.accumulate(radices[:-1], mul)]

    def digits(exps):  # 30-bit digits of the longest encoded entry
        top = max(sum(e * m for e, m in zip(es, places)) for es in exps)
        return (width * (top + 1) + 29) // 30

    degree = max(map(sum, ex)) + max(map(sum, ey))
    slots = 1
    for k in range(dim):  # monomials of total degree <= degree
        slots = slots * (degree + k + 1) // (k + 1)
    dx, dy = sorted((digits(ex), digits(ey)))
    packed = fixed + products * dy * dx**0.585 / _DIGIT_PAIRS + len(plan) * _SLOT_COST * slots
    if term_dicts <= packed:
        return None
    return _kronecker(radices, degree, width)


def _product_sums(dim: int, xs, ys, plan) -> list:
    """For each output entry e, the raw term dict of
    sum(sign * xs[i] * ys[j] for sign, i, j in plan[e]), signs +-1.

    ``xs`` and ``ys`` are lists of raw term dicts whose pairs in ``plan``
    have passed :func:`_check_product_exponents`.  Integer operands that are
    large enough to pay for it are encoded once each (:class:`_Kronecker`),
    and every entry's sum is formed in plain ints and decoded once;
    otherwise, and for Fraction coefficients, the products run through
    :func:`_fma_terms`.  Both give the same polynomial."""
    layout = _kronecker_layout(dim, xs, ys, plan)
    sums = []
    if layout is None:
        for pairs in plan:
            acc = {}
            for sign, i, j in pairs:
                _fma_terms(acc, xs[i], ys[j], sign)
            sums.append(acc)
        return sums
    ex, ey = layout.encode(xs), layout.encode(ys)
    for pairs in plan:
        total = 0
        for sign, i, j in pairs:
            if sign > 0:
                total += ex[i] * ey[j]
            else:
                total -= ex[i] * ey[j]
        sums.append(layout.decode(total))
    return sums


def contract(valence: tuple, *terms, entries: range | None = None):
    """Weighted sum of index contractions with ``numpy.einsum`` letters.

    Each term is ``(weight, spec, *tensors)``, for example
    ``(-2, "iA,Ajmn->ijmn", a, q)`` for -2 a^i_A q^A_jmn: letters of the
    output are free, every other letter is summed over 0..dim-1, and the
    output letters follow the row-major layout of a tensor of ``valence``.
    All terms accumulate in one pass per output entry; a term of three or
    more operands first contracts a pair of them (:func:`_pair_first`), in
    full.  Weights may be ints or Fractions.  A spec whose letters do not
    match its operands' ranks, an output letter that no operand carries, or
    operands of different dimensions raise ValueError.

    Returns a TensorField.  With ``entries``, a range of flat (row-major)
    output entries, only those entries are formed, and their ScalarFields
    come back as a list in range order; the operands are read wherever the
    terms index them.
    """
    dim = next((t.dim for _, _, *tensors in terms for t in tensors), None)
    if dim is None:
        raise ValueError("contract needs at least one operand")
    rank = valence[0] + valence[1]
    count = dim**rank
    if entries is not None:
        if entries.step != 1 or not 0 <= entries.start <= entries.stop <= count:
            raise ValueError(f"{entries!r} is not a range of entries 0..{count - 1}")
        window = slice(entries.start, entries.stop)
        count = len(entries)

    def plan(spec):
        ranks, out_rank, bases, inner = _contraction_plan(spec, dim)
        if entries is not None:
            bases = tuple(b[window] for b in bases)
        return ranks, out_rank, bases, inner

    singles, products = [], []
    for weight, spec, *tensors in terms:
        ranks, out_rank, bases, inner = plan(spec)
        if out_rank != rank:
            raise ValueError(f"{spec!r}: output rank {out_rank} does not match valence {valence}")
        if len(tensors) != len(ranks):
            raise ValueError(f"{spec!r}: names {len(ranks)} operand(s), got {len(tensors)}")
        for t, r in zip(tensors, ranks):
            if t.dim != dim:
                raise ValueError(f"operands must share one dimension, got {dim} and {t.dim}")
            if t.rank() != r:
                raise ValueError(f"{spec!r}: {r} index letters for a rank-{t.rank()} operand")
        if not weight:
            continue
        if len(tensors) > 2:
            # the whole product's exponents, checked before any pair is formed
            _check_product_exponents(dim, *([e._terms for e in t.entries] for t in tensors))
        while len(tensors) > 2:
            i, j, pair_spec, pair_rank, spec = _pair_first(spec)
            pair = contract((0, pair_rank), (1, pair_spec, tensors[i], tensors[j]))
            tensors = [t for k, t in enumerate(tensors) if k not in (i, j)] + [pair]
            ranks, out_rank, bases, inner = plan(spec)
        if len(tensors) == 1:
            # the operand's entries gathered in output order, once per
            # assignment of the summed letters (a trace has several)
            x, (bx,) = tensors[0].entries, bases
            singles.extend((weight, [x[b + i]._terms for b in bx]) for (i,) in inner)
            continue
        _check_product_exponents(dim, *([e._terms for e in t.entries] for t in tensors))
        products.append((weight, tensors, bases, inner))

    # a weight of +-1 is a sign inside one sum of products per entry; any
    # other scales a per-term sum once
    unit = [p for p in products if p[0] in (1, -1)]
    sums = _product_sums(dim, *_product_plan(count, unit))
    scaled = [
        (w, _product_sums(dim, *_product_plan(count, [(1, *rest)])))
        for w, *rest in products
        if w not in (1, -1)
    ]
    out = []
    for e in range(count):
        acc = sums[e]
        for weight, gathered in singles:
            _add_terms(acc, gathered[e], weight)
        for weight, per_term in scaled:
            _add_terms(acc, per_term[e], weight)
        out.append(ScalarField(dim, _strip_zeros(acc)))
    return out if entries is not None else TensorField(dim, valence, out)


def _product_plan(count: int, products):
    """(xs, ys, plan) for :func:`_product_sums` from two-operand contract
    terms (sign, (x, y), bases, inner): the entries of each distinct x and y
    operand appended once, and per output entry the (sign, x entry, y entry)
    of every assignment of the summed letters."""
    xs, ys, offsets = [], [], {}

    def place(side, t):
        key = (id(side), id(t))
        if key not in offsets:
            offsets[key] = len(side)
            side.extend(e._terms for e in t.entries)
        return offsets[key]

    terms = [
        (sign, place(xs, x), place(ys, y), bx, by, inner)
        for sign, (x, y), (bx, by), inner in products
    ]
    plan = [
        [
            (sign, ox + bx[e] + ix, oy + by[e] + iy)
            for sign, ox, oy, bx, by, inner in terms
            for ix, iy in inner
        ]
        for e in range(count)
    ]
    return xs, ys, plan


# ---------------------------------------------------------------------------
# Exact zero test
# ---------------------------------------------------------------------------


def nonzero_sums(valence: tuple, members, dens=None) -> dict:
    """Which of K sums of one-operand ``contract`` terms are nonzero, from one
    packed :func:`contract`.

    Member k is a list of terms (weight, spec, tensor) into ``valence``,
    summed over ``dens[k]`` (1 when ``dens`` is None).  A member whose
    weights are not all ints is scaled to ints, and the scale joins its den.
    Returns {k: (entry, monomial)} for every nonzero member in index order,
    where ``entry`` is the index tuple of its first nonzero entry (row-major)
    and ``monomial`` the first nonzero term there (packed-key order), a
    one-term ScalarField carrying the sum's own coefficient.

    The members are packed into big-int slots of b bits (SWAR).  Column j, a
    distinct (spec, tensor) pair, is scaled by E, the lcm of the columns'
    coefficient denominators, and weighted by sum_k w_kj << (b k).  Each
    coefficient of the one contraction is then sum_k r_k 2^(b k), with r_k =
    dens[k] E times member k's coefficient.  b is chosen so that 2^(b-1) > E
    sum_j |w_kj| max|column j| for every k, hence every |r_k| < 2^(b-1);
    such a sum is zero only when every r_k is, and the r_k decode slot by
    slot with sign and over dens[k] E.  So this is exactly the predicate
    ``contract(valence, *member).is_zero()`` per member, not a random
    projection.
    """
    dens = list(dens) if dens else [1] * len(members)
    columns = {}  # (spec, id(tensor)) -> (spec, tensor, {k: weight})
    for k, pieces in enumerate(members):
        scale = lcm(*(w.denominator for w, _, _ in pieces))
        dens[k] *= scale
        for w, spec, t in pieces:
            if w:
                _, _, ws = columns.setdefault((spec, id(t)), (spec, t, {}))
                ws[k] = ws.get(k, 0) + int(w * scale)
    if not columns:
        return {}
    tensors = {id(t): t for _, t, _ in columns.values()}
    E, tops = 1, {}  # E: lcm of the coefficient denominators; tops: max |coefficient|
    for key, t in tensors.items():
        values = [v for e in t.entries for v in e._terms.values()]
        tops[key] = max(map(abs, values), default=0)
        if Fraction in set(map(type, values)):
            E = lcm(E, *(v.denominator for v in values))
    bounds = [0] * len(members)
    for _, t, ws in columns.values():
        top = int(E * tops[id(t)])
        for k, w in ws.items():
            bounds[k] += abs(w) * top
    b = max(bounds).bit_length() + 1
    if E != 1:  # integral copies, so the accumulation runs on ints
        tensors = {key: t.scale(E) for key, t in tensors.items()}
    packed = contract(
        valence,
        *(
            (sum(w << (b * k) for k, w in ws.items()), spec, tensors[id(t)])
            for spec, t, ws in columns.values()
        ),
    )

    dim, rank = packed.dim, packed.rank()
    mask, half = (1 << b) - 1, 1 << (b - 1)
    found = {}
    for e, field in enumerate(packed.entries):
        for key in sorted(field._terms):
            v, k = field._terms[key], 0
            while v:
                r = v & mask
                if r >= half:
                    r -= mask + 1
                if r and k not in found:
                    D = E * dens[k]
                    term = r // D if r % D == 0 else Fraction(r, D)
                    found[k] = (_flat_to_indices(e, dim, rank), ScalarField(dim, {key: term}))
                v = (v - r) >> b
                k += 1
    return dict(sorted(found.items()))


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def matrix_rank(rows) -> int:
    """Exact rank over the rationals of a list of equal-length rows, by
    feeding them to a :class:`LinearSystem` with no right side."""
    rows = [list(r) for r in rows]
    if not rows:
        raise ValueError("matrix needs at least one row")
    system = LinearSystem(len(rows[0]), nrhs=0)
    for r in rows:
        system.add_row(r)
    return system.rank


def _clear_denominators(row):
    """Scale a row of rationals to coprime integers (rank-preserving)."""
    denom = 1
    for v in row:
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) if isinstance(v, Fraction) else v * denom for v in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class LinearSystem:
    """Incremental exact Gaussian elimination with any number of right sides:
    the one elimination in the package.  Ranks (:func:`matrix_rank`), span
    bases (``ricci.span_basis``) and coefficient solves all run through it.

    Rows are reduced against the stored pivots as they arrive, so feeding a
    large redundant stream of equations is cheap once the rank saturates.
    Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): a row is
    kept as integers, ``p*row - f*prow`` removes pivot column ``c`` (``p``
    the pivot, ``f`` the row's entry at ``c``), and the row's content is
    divided out.  Fractions appear only in the back substitution of
    :meth:`solve`.
    """

    def __init__(self, ncols: int, nrhs: int = 1):
        self.ncols = ncols
        self.nrhs = nrhs
        self._pivot_rows = {}  # pivot column -> integer row, coefficients then rhs
        self.inconsistent = [False] * nrhs

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def add_row(self, coeffs, rhs=()) -> bool:
        """Reduce one row against the pivots; True when it adds a pivot,
        that is, exactly when the rank grows."""
        if len(coeffs) != self.ncols or len(rhs) != self.nrhs:
            raise ValueError("row shape mismatch")
        row = _clear_denominators([*coeffs, *rhs])
        for col, prow in self._pivot_rows.items():
            f = row[col]
            if f:
                p = prow[col]
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        for col in range(self.ncols):
            if row[col]:
                self._pivot_rows[col] = row
                return True
        for j, v in enumerate(row[self.ncols :]):
            if v:
                self.inconsistent[j] = True
        return False

    def add_coefficient_rows(self, entries) -> None:
        """Equate polynomial coefficients of sum_j x_j columns[j] and each
        right side, one row per (entry, monomial), until full column rank.

        ``entries`` yields, entry by entry, one sum per column and then one
        per right side, each a list of (weight, ScalarField) terms.  An
        entry's rows go in the packed-key order of the monomials that some
        column or right side carries there.  No entry is drawn once the rank
        is ``ncols``, so a generator forms nothing after the entry that
        reaches it; that entry is fed to its end, and those rows still test
        the right sides' consistency.
        """
        entries = iter(entries)
        while self.rank < self.ncols:
            sums = next(entries, None)
            if sums is None:
                return
            polys = []
            for terms in sums:
                acc = {}
                for w, field in terms:
                    _add_terms(acc, field._terms, w)
                polys.append(_strip_zeros(acc))
            for key in sorted(set().union(*polys)):
                row = [p.get(key, 0) for p in polys]
                self.add_row(row[: self.ncols], row[self.ncols :])

    def solve(self, which: int = 0):
        """The unique solution for right side ``which``.

        Requires full column rank; raises ValueError otherwise.  Back
        substitution over the integer pivot rows, in Fractions.
        """
        if self.rank < self.ncols:
            raise ValueError(
                f"system is underdetermined: rank {self.rank} < {self.ncols} unknowns"
            )
        if self.inconsistent[which]:
            raise ValueError("system is inconsistent for this right side")
        solution = [Fraction(0)] * self.ncols
        for col in sorted(self._pivot_rows, reverse=True):
            prow = self._pivot_rows[col]
            value = prow[self.ncols + which]
            for j in range(col + 1, self.ncols):
                if prow[j]:
                    value -= prow[j] * solution[j]
            solution[col] = Fraction(value, prow[col])
        return solution
