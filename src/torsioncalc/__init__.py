"""Exact tensor calculus for affine connections with torsion.

The package verifies, by exact computation on polynomial fields over the
rationals, the linear structure of covariant derivatives on spaces with a
non-symmetric connection: the relations among the five derivative rules, the
family of Ricci-type identities and its seventeen-member catalogue, the
five-parameter curvature family, and a four-dimensional cosmology example
with torsion sourced by one off-diagonal metric function.

The API lives in the submodules (``torsioncalc.algebra``, ``.connection``,
``.curvature``, ``.ricci``, ``.ratfunc``, ``.cosmology``); import names
from there.  The package itself imports none of them, so a CLI run compiles
only the modules its subcommand calls.
"""

__version__ = "0.1.0"
