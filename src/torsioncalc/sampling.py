"""Seeded random generation of polynomial fields, tensors and connections.

All generators take an explicit ``random.Random`` so that every sweep is
reproducible from a recorded seed.  Sub-seeds for independent instances are
derived with :func:`derive_rng`, which hashes a label string, so a draw
depends only on (seed, label).
"""

from __future__ import annotations

import itertools
import random

from .algebra import ScalarField, TensorField
from .connection import ConnectionField

DEFAULT_DEGREE = 2
DEFAULT_COEFF_BOUND = 3


def derive_rng(seed: int, label: str) -> random.Random:
    """Independent generator for a named subtask of a seeded run."""
    return random.Random(f"{seed}:{label}")


def _monomials(dim: int, degree: int):
    """Exponent tuples of total degree <= degree, in a fixed order."""
    out = []
    for total in range(degree + 1):
        for cuts in itertools.combinations_with_replacement(range(dim), total):
            exps = [0] * dim
            for c in cuts:
                exps[c] += 1
            out.append(tuple(exps))
    return out


def random_scalar_field(
    rng: random.Random, dim: int, degree: int = DEFAULT_DEGREE
) -> ScalarField:
    """Random polynomial with integer coefficients in [-DEFAULT_COEFF_BOUND,
    DEFAULT_COEFF_BOUND]."""
    terms = {}
    for exps in _monomials(dim, degree):
        c = rng.randint(-DEFAULT_COEFF_BOUND, DEFAULT_COEFF_BOUND)
        if c:
            terms[exps] = c
    return ScalarField.from_terms(terms, dim)


def random_tensor_field(
    rng: random.Random, dim: int, valence: tuple, degree: int = DEFAULT_DEGREE
) -> TensorField:
    count = dim ** (valence[0] + valence[1])
    entries = [random_scalar_field(rng, dim, degree) for _ in range(count)]
    return TensorField(dim, valence, entries)


def random_connection(
    rng: random.Random, dim: int, degree: int = DEFAULT_DEGREE
) -> ConnectionField:
    return ConnectionField(random_tensor_field(rng, dim, (1, 2), degree))


def random_even_connection(
    rng: random.Random, dim: int, degree: int = DEFAULT_DEGREE
) -> ConnectionField:
    """Connection with even integer coefficients (doubled draws), so its
    symmetric and antisymmetric parts are integral; the verification sweeps
    prefer this purely for arithmetic speed."""
    L = random_connection(rng, dim, degree)
    return ConnectionField(L.coeffs.scale(2))


def sample_instance(seed: int, label: str, dim: int, degree: int):
    """The instance a sweep checks under ``label``: (rng, a, L), the even
    connection L drawn first, then the (1,1) field a; ``rng`` goes on to
    draw any per-instance weights."""
    rng = derive_rng(seed, label)
    L = random_even_connection(rng, dim, degree)
    return rng, random_tensor_field(rng, dim, (1, 1), degree), L
