"""The four benchmark workloads: inputs made from the seed, the CLI command
that runs them, and the verdicts the paper says they must produce.

Every workload runs the ``torsioncalc`` CLI the way a user does (one process
per run, a JSON config on disk, the seed on the command line).  Inputs come
only from the workload seed; the CLI receives them through ``--seed`` and the
config file, nothing else.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction

# The seventeen (p, q, r, s) combinations of the paper's Ricci-identity
# catalogue.  The oracle is written out here, not read from a stored report.
CATALOGUE_PQRS = (
    (1, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1),
    (2, 3, 1, 1), (3, 1, 1, 1), (3, 2, 1, 1), (3, 3, 1, 1), (1, 2, 1, 2),
    (1, 3, 1, 2), (1, 3, 1, 3), (2, 1, 2, 1), (2, 2, 2, 2), (2, 3, 2, 3),
    (3, 1, 3, 1), (3, 3, 3, 3),
)


def _ric(pqrs) -> str:
    p, q, r, s = pqrs
    return f"ric{p}{q}-{r}{s}"


# Expected verdicts per workload: check id -> PASS.  Every member of each
# family holds exactly, so every expected verdict is PASS.
ORACLE = {
    "catalogue": {f"eq:{_ric(c)}": True for c in CATALOGUE_PQRS},
    "mixed": {f"eq:29:{_ric(c)}": True for c in CATALOGUE_PQRS},
    "solve": {
        **{
            "thm2:" + "".join(map(str, c)): True
            for c in itertools.product((1, 2, 3), repeat=4)
        },
        "cor2:span-rank": True,
    },
    "cosmology": {
        "eq:51": True, "eq:56": True, "eq:58-59": True, "eq:60": True,
        "eq:66": True,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # CLI subcommand and its flags
    dimension: int
    degree: int
    instances: int
    workers: int
    cosmology: bool = False

    def cli_seed(self, seed: int, k: int) -> int:
        """Seed of the k-th CLI run of one benchmark run."""
        return random.Random(f"{seed}:{self.name}:{k}").getrandbits(48)

    def config(self, cli_seed: int) -> dict:
        raw = {
            "dimension": self.dimension,
            "degree": self.degree,
            "instances": self.instances,
            "seed": cli_seed,
        }
        if self.cosmology:
            raw["cosmology"] = cosmology_block(cli_seed, self.degree)
        return raw

    def write_config(self, path, cli_seed: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(cli_seed), fh)

    def argv(self, config_path, cli_seed: int) -> list:
        return [
            *self.command, "--config", str(config_path),
            "--seed", str(cli_seed), "--json",
        ]


def cosmology_block(cli_seed: int, degree: int, panels: int = 2000) -> dict:
    """A cosmology metric made from the seed.

    s1 and s3 have degree ``degree``, s2, s4 and n degree ``degree + 1``.
    Each s_i is a product of factors (t + a) with a in 1..9, so its roots are
    negative and it stays positive on the window [0, 2]: the missing pole
    check of ``recover_n`` is a known gap that these inputs do not reach.
    Products of linear factors also keep the cost of one metric within a
    narrower range across seeds than random coefficients do.  v' - w is
    positive, so the recovery of n is defined."""
    rng = random.Random(f"cosmology:{cli_seed}")

    def positive(deg):
        coeffs = [1]
        for _ in range(deg):
            a = rng.randint(1, 9)
            coeffs = [x + a * y for x, y in zip([0, *coeffs], [*coeffs, 0])]
        return [str(c) for c in coeffs]

    n = [str(rng.randint(-3, 3)) for _ in range(degree + 1)]
    n.append(str(rng.choice((-3, -2, -1, 1, 2, 3))))
    vw = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return {
        "s1": positive(degree),
        "s2": positive(degree + 1),
        "s3": positive(degree),
        "s4": positive(degree + 1),
        "n": n,
        "vprime_minus_w": str(vw),
        "window": ["0", "2"],
        "panels": panels,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalogue", ("verify-ricci", "--scope", "catalogue"),
            dimension=3, degree=2, instances=1, workers=1,
        ),
        Workload(
            "mixed", ("verify-ricci", "--scope", "mixed"),
            dimension=2, degree=1, instances=8, workers=2,
        ),
        Workload(
            "solve", ("verify-ricci", "--scope", "all"),
            dimension=3, degree=1, instances=1, workers=1,
        ),
        Workload(
            "cosmology", ("cosmology",),
            dimension=4, degree=2, instances=1, workers=1, cosmology=True,
        ),
    )
}


def smoke_workload(w: Workload) -> Workload:
    """The same command at the smallest size: dim 2, degree 1.  ``--scope
    all`` is sized by degree only, and degree 1 is its smallest size."""
    if w.cosmology:
        return replace(w, degree=1)
    return replace(w, dimension=2, degree=1)


def judge(workload_name: str, report_bytes: bytes):
    """(attempted, failed) for one CLI report against the oracle.

    A missing check, an extra check, a wrong verdict or an unreadable report
    each count as failures; the denominator is the oracle's check count."""
    expected = ORACLE[workload_name]
    try:
        checks = json.loads(report_bytes)["checks"]
        got = {c["id"]: c["pass"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected)
    failed = sum(1 for cid, ok in expected.items() if got.get(cid) is not ok)
    failed += sum(1 for cid in got if cid not in expected)
    return len(expected), min(failed, len(expected))
