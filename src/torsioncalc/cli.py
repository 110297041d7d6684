"""Batch verification front door.

Subcommands run the package's verification sweeps from a JSON config and
emit a deterministic JSON report: ``verify-derivatives``, ``verify-ricci``
(with ``--scope catalogue|all|mixed``), ``rank-rho`` and ``cosmology``.
Exit status is 0 exactly when no check failed, 1 when one did, and 2 for an
unusable config, config file or report path, named in the message.  A
reader that closes stdout early (``| head``) cuts the printed output short
and nothing else: no traceback, and the status is still the report's.  Every
residual check is ``algebra.nonzero_sums``, the one exact zero test.  The
four residual sweeps (derivative relations, the catalogue, the mixed family
and the check instances of ``--scope all``) are one loop, ``_sweep``: for
each (dim, index) instance in turn it draws the instance with
``sampling.sample_instance``, hands it to the sweep's members function in
``_SWEEPS`` and keeps each tag's first failing slot, with the detail that
reruns it.  ``--scope all`` reads the 81 coefficient vectors off the tables
(``ricci.solve_all_identities``) and checks the residual of every one of
them on each check instance, stopping at the first that fails; its first
check instance also certifies the basis rank they rest on.  The span rank
``cor2`` is the rank of the 81 members' ``ricci.identity_row``s.

Modules are imported per subcommand, because each spawn compiles the source
it imports (there may be no bytecode cache): a ``cosmology`` run never
compiles ``ricci``.  ``algebra`` and ``report``, which every subcommand uses,
are imported at the top; the names read from the other modules are listed in
``_NAMES`` and bound by ``_need``, which each subcommand and the cosmology
config parser call first.
"""

from __future__ import annotations

# Imported first: compiling algebra's source (there may be no bytecode cache)
# takes a transient of about 2.5 MiB in the parser, which sets the process's
# peak RSS unless it lands on the smallest heap, before any other import.
from .algebra import matrix_rank, nonzero_sums
from .report import (
    Check,
    Report,
    quadrature_check,
    rank_check,
    residual_check,
    value_check,
)

import argparse
import errno
import importlib
import json
import os
import sys
import time
from fractions import Fraction

# The names this module reads from each of the other modules; ``_need``
# binds them here.
_NAMES = {
    "connection": (
        "DEPENDENT_TRIPLES", "INDEPENDENT_TRIPLES", "derivative_kind_rank",
        "derivative_relations",
    ),
    "cosmology": (
        "CosmologyMetric", "antisym_christoffel_generic", "antisym_christoffel_table",
        "clear_metric_memo", "energy_momentum", "matter_lagrangian_paths", "parse_number",
        "recover_n", "scalar_curvature", "scalar_curvature_family",
    ),
    "curvature": (
        "CURVATURE_R_MEMBER", "INDEPENDENT_SIX_SETS", "rho_catalogue", "rho_family_rank",
        "six_set_members",
    ),
    "ratfunc": ("Poly", "RationalFunction"),
    "ricci": (
        "CATALOGUE_BY_PQRS", "IdentityAmbiguityError", "IdentityUnsolvableError",
        "IdentityWorkspace", "MixWeights", "identity_catalogue", "identity_row",
        "solve_all_identities",
    ),
    "sampling": ("sample_instance",),
}


def _need(*modules):
    """Import ``modules`` and bind the names this module reads from them.  A
    name that is already bound keeps its value, so a wrapper set on this
    module (by a profiler or a test) is the function that runs."""
    scope = globals()
    for module in modules:
        source = importlib.import_module(f".{module}", __package__)
        for name in _NAMES[module]:
            scope.setdefault(name, getattr(source, name))


def __getattr__(name):
    """Bind a name of ``_NAMES`` on its first read from outside."""
    for module, names in _NAMES.items():
        if name in names:
            _need(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ``perfbench`` sets this variable and ``tests/test_bench_hooks.py`` pins its
# name; the CLI does not read it.
WORKERS_ENV = "TORSIONCALC_WORKERS"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class RunConfig:
    __slots__ = (
        "dimension", "seed", "degree", "instances", "cosmology", "window", "panels", "output",
    )

    def __init__(
        self,
        dimension: int = 3,
        seed: int = 20260809,
        degree: int = 2,
        instances: int = 20,
        cosmology: CosmologyMetric | None = None,
        window: tuple = (Fraction(0), Fraction(1)),
        panels: int = 1000,
        output: str | None = None,
    ):
        self.dimension, self.seed, self.degree, self.instances = dimension, seed, degree, instances
        self.cosmology, self.window, self.panels, self.output = cosmology, window, panels, output

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        cfg = cls()
        known = {
            "dimension", "seed", "degree", "instances", "cosmology", "output",
        }
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config field: {key!r}")
        if "dimension" in raw:
            cfg.dimension = _expect_int("dimension", raw["dimension"], 2, 6)
        if "seed" in raw:
            cfg.seed = _expect_int("seed", raw["seed"], 0, 2**64 - 1)
        if "degree" in raw:
            cfg.degree = _expect_int("degree", raw["degree"], 0, 8)
        if "instances" in raw:
            cfg.instances = _expect_int("instances", raw["instances"], 1, 10**6)
        if "output" in raw:
            if not isinstance(raw["output"], str):
                raise ConfigError("output: expected a path string")
            cfg.output = raw["output"]
        if "cosmology" in raw:
            cfg.cosmology, cfg.window, cfg.panels = _parse_cosmology(raw["cosmology"])
        return cfg

    def echo(self) -> dict:
        out = {
            "dimension": self.dimension,
            "seed": self.seed,
            "degree": self.degree,
            "instances": self.instances,
        }
        if self.cosmology is not None:
            out["cosmology"] = {
                **{
                    f"s{i+1}": [str(c) for c in p.coeffs]
                    for i, p in enumerate(self.cosmology.s)
                },
                "n": [str(c) for c in self.cosmology.n.coeffs],
                "vprime_minus_w": str(self.cosmology.vprime_minus_w),
                "window": [str(self.window[0]), str(self.window[1])],
                "panels": self.panels,
            }
        return out


def _expect_int(name, value, lo, hi) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected an integer")
    if not lo <= value <= hi:
        raise ConfigError(f"{name}: {value} outside [{lo}, {hi}]")
    return value


def _parse_cosmology(raw: dict):
    _need("cosmology", "ratfunc")
    if not isinstance(raw, dict):
        raise ConfigError("cosmology: expected an object")
    extra = set(raw) - {"s1", "s2", "s3", "s4", "n", "vprime_minus_w", "window", "panels"}
    if extra:
        raise ConfigError(f"cosmology: unknown fields {sorted(extra)}")
    values = {}
    for key in ("s1", "s2", "s3", "s4", "n", "vprime_minus_w"):
        if key not in raw:
            raise ConfigError(f"cosmology.{key}: missing")
        value, is_list = raw[key], key != "vprime_minus_w"
        if is_list and (not isinstance(value, list) or not value):
            raise ConfigError(f"cosmology.{key}: expected a non-empty list")
        try:
            values[key] = [parse_number(c) for c in value] if is_list else parse_number(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cosmology.{key}: {exc}") from exc
        if key[0] == "s" and not any(values[key]):
            raise ConfigError(f"cosmology.{key}: identically zero")
    metric = CosmologyMetric(
        tuple(Poly(values[k]) for k in ("s1", "s2", "s3", "s4")),
        Poly(values["n"]),
        values["vprime_minus_w"],
    )
    window = raw.get("window", ["0", "1"])
    if not (isinstance(window, list) and len(window) == 2):
        raise ConfigError("cosmology.window: expected [t0, t1]")
    try:
        t0, t1 = (parse_number(x) for x in window)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cosmology.window: {exc}") from exc
    if not t1 > t0:
        raise ConfigError("cosmology.window: needs t1 > t0")
    panels = _expect_int("cosmology.panels", raw.get("panels", 1000), 1, 10**6)
    return metric, (t0, t1), panels


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse failure at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


MIXED_WEIGHTINGS = 5  # random weightings checked per catalogue member and instance

# The check instances of ``--scope all``, one per dim: the first certifies the
# basis rank.  In dim 2 the 17 basis tensors have rank 15.
INSTANCE_DIMS = (3, 4)


def _relations_members(rng, a, L):
    relations = derivative_relations(L, a)
    failing = nonzero_sums((1, 2), [terms for _, terms in relations])
    return [(tag, {}) for tag, _ in relations], failing


def _catalogue_members(rng, a, L):
    members = identity_catalogue()
    return [(ic.tag, {}) for ic in members], IdentityWorkspace(a, L).nonzero_residuals(members)


def _mixed_members(rng, a, L):
    ws = IdentityWorkspace(a, L)
    # drawn member by member, in the order of the per-member checks
    slots = [
        (ic, k, MixWeights.random(rng))
        for ic in identity_catalogue() for k in range(MIXED_WEIGHTINGS)
    ]
    failing = nonzero_sums(
        (1, 3), [ws.mixed_residual_pieces(ic, w) for ic, _, w in slots], [w.den for *_, w in slots]
    )
    return [(ic.tag, {"weighting": k}) for ic, k, _ in slots], failing


def _solved_members(rng, a, L, members, certify):
    """The solved members' residuals; with ``certify``, first the basis
    rank, whose shortfall is an IdentityAmbiguityError."""
    ws = IdentityWorkspace(a, L)
    if certify:
        rank = ws.basis_rank()
        if rank < 17:
            raise IdentityAmbiguityError(f"basis rank {rank} < 17")
    return [(str(ic.pqrs), {}) for ic in members], ws.nonzero_residuals(members)


# sweep -> its members function, which maps an instance (rng, a, L), followed
# by the sweep's given items, to its slots, (tag, extra failure detail) each,
# and the nonzero_sums failures {slot: (entry, monomial)}.  The sweep name is
# the prefix of its instance labels.
_SWEEPS = {
    "deriv": _relations_members,
    "ricci": _catalogue_members,
    "mixed": _mixed_members,
    "check": _solved_members,
}


def _sweep(config: RunConfig, sweep: str, instances, *given):
    """(tag, ok, detail) per tag of a sweep over its (dim, index) instances,
    in first-seen tag order.  A tag keeps the detail of its first failing
    slot, in instance order (for mixed, the first failing weighting of the
    first failing instance); the detail names enough to rerun that instance."""
    verdicts = {}
    for dim, idx in instances:
        label = f"{sweep}:{dim}:{idx}"
        rng, a, L = sample_instance(config.seed, label, dim, config.degree)
        slots, failing = _SWEEPS[sweep](rng, a, L, *given)
        for k, (tag, extra) in enumerate(slots):
            if verdicts.setdefault(tag, (True, None))[0] and k in failing:
                entry, monomial = failing[k]
                verdicts[tag] = (False, {
                    "seed": config.seed, "label": label, "dim": dim, **extra,
                    "entry": list(entry), "monomial": repr(monomial),
                })
    return [(tag, ok, detail) for tag, (ok, detail) in verdicts.items()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_derivatives(config: RunConfig) -> Report:
    _need("connection", "sampling")
    report = Report("verify-derivatives", config.echo())
    t0 = time.perf_counter()
    merged = _sweep(config, "deriv", [(config.dimension, i) for i in range(config.instances)])
    elapsed = (time.perf_counter() - t0) * 1000 / max(1, len(merged))
    for tag, ok, detail in merged:
        report.add(residual_check(tag, ok, config.instances, elapsed_ms=elapsed, detail=detail))
    for label, kinds in INDEPENDENT_TRIPLES:
        report.add(rank_check(f"cor1:{label}", 3, derivative_kind_rank(kinds)))
    for label, kinds in DEPENDENT_TRIPLES:
        report.add(rank_check(f"cor1:{label}", 2, derivative_kind_rank(kinds)))
    return report


def cmd_verify_ricci(config: RunConfig, scope: str) -> Report:
    _need("ricci", "sampling")
    echo = config.echo()
    if scope == "all":  # the solve is sized by the degree alone
        echo = {key: echo[key] for key in ("seed", "degree")}
    report = Report(f"verify-ricci:{scope}", echo)
    if scope == "catalogue":
        instances = [(config.dimension, i) for i in range(config.instances)]
        for tag, ok, detail in _sweep(config, "ricci", instances):
            report.add(residual_check(f"eq:{tag}", ok, config.instances, detail=detail))
    elif scope == "all":
        try:
            solutions = solve_all_identities()
        except IdentityUnsolvableError as exc:
            report.add(value_check("thm2:solve", "solved", f"error: {exc}"))
            return report
        members = list(solutions.values())
        for t, dim in enumerate(INSTANCE_DIMS):
            try:
                rows = _sweep(config, "check", [(dim, t)], members, t == 0)
            except IdentityAmbiguityError as exc:
                detail = {"seed": config.seed, "label": f"check:{dim}:{t}", "dim": dim}
                report.add(value_check("thm2:solve", "solved", f"error: {exc}", detail=detail))
                return report
            for pqrs, ok, detail in rows:
                if not ok:
                    actual = f"error: {pqrs}: nonzero residual on a fresh instance"
                    report.add(value_check("thm2:solve", "solved", actual, detail=detail))
                    return report
        for pqrs, ic in sorted(solutions.items()):
            ok = pqrs not in CATALOGUE_BY_PQRS or ic.c == CATALOGUE_BY_PQRS[pqrs].c
            report.add(
                Check(
                    id=f"thm2:{''.join(map(str, pqrs))}",
                    kind="value",
                    passed=ok,
                    actual=list(ic.c),
                    status="solved",
                )
            )
        report.add(rank_check("cor2:span-rank", 17, matrix_rank(map(identity_row, members))))
    elif scope == "mixed":
        count = max(1, config.instances // 4)
        instances = [(config.dimension, i) for i in range(count)]
        for tag, ok, detail in _sweep(config, "mixed", instances):
            report.add(residual_check(f"eq:29:{tag}", ok, count * MIXED_WEIGHTINGS, detail=detail))
    else:
        raise ConfigError(f"unknown scope: {scope!r}")
    return report


def cmd_rank_rho(config: RunConfig) -> Report:
    _need("curvature")
    report = Report("rank-rho", config.echo())
    catalogue = rho_catalogue()
    report.add(rank_check("thm3:full-catalogue", 6, rho_family_rank(catalogue)))
    for label, indices in INDEPENDENT_SIX_SETS:
        report.add(
            rank_check(f"cor4:{label}", 6, rho_family_rank(six_set_members(indices)))
        )
    report.add(rank_check("thm3:R-alone", 1, rho_family_rank([CURVATURE_R_MEMBER])))
    return report


def cmd_cosmology(config: RunConfig) -> Report:
    _need("cosmology", "ratfunc")
    if config.cosmology is None:
        raise ConfigError("cosmology: block required for this command")
    m = config.cosmology
    report = Report("cosmology", config.echo())
    # each quantity below is computed once per run, through the per-metric
    # memo; start it empty, so a repeated run in one process costs the same
    clear_metric_memo()

    # lowered antisymmetric connection table vs the generic formula
    closed = antisym_christoffel_table(m)
    generic = antisym_christoffel_generic(m)
    entries = {}
    for a in range(4):
        for j in range(4):
            for k in range(4):
                e = closed.get(a, j, k)
                if not e.is_zero():
                    entries[f"({a+1},{j+1},{k+1})"] = repr(e)
    report.add(
        value_check(
            "eq:51",
            "closed-form-table",
            "closed-form-table" if closed == generic else "mismatch",
            detail=entries,
        )
    )

    # scalar-curvature family and the matter Lagrangian, both routes
    via, closed_form = matter_lagrangian_paths(m)
    report.add(value_check("eq:58-59", repr(closed_form), repr(via)))
    fam = scalar_curvature_family(m)
    R = scalar_curvature(m)
    report.add(
        value_check(
            "eq:56",
            repr(closed_form),
            repr(fam - R),
            detail={"scalar_curvature": repr(R), "family": repr(fam)},
        )
    )

    # energy-momentum family
    T = energy_momentum(m)
    lm = closed_form
    s = [RationalFunction.from_value(p) for p in m.s]
    expected = [(-s[0] * lm), (-s[1] * lm), (-s[2] * lm), (s[3] * lm)]
    diag_ok = all(T[i][i] == expected[i] for i in range(4))
    off_ok = all(T[i][j].is_zero() for i in range(4) for j in range(4) if i != j)
    report.add(
        value_check(
            "eq:66",
            "diagonal",
            "diagonal" if (diag_ok and off_ok) else "unexpected-structure",
            detail={f"T{i+1}{i+1}": repr(T[i][i]) for i in range(4)},
        )
    )

    # quadrature recovery of the off-diagonal function
    t0, t1 = config.window
    try:
        ts, n1, n2 = recover_n(m, t0, t1, config.panels)
        sign_gap = max(abs(x + y) for x, y in zip(n1, n2))
        detail = {
            "t": [f"{x:.17g}" for x in ts[:: max(1, len(ts) // 8)]],
            "n1": [f"{x:.17g}" for x in n1[:: max(1, len(n1) // 8)]],
        }
        report.add(
            quadrature_check("eq:60", sign_gap, 0.0, detail=detail)
        )
    except (ValueError, ArithmeticError) as exc:
        report.add(value_check("eq:60", "computed", f"error: {exc}"))
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsioncalc",
        description="Exact verification sweeps for connections with torsion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify-derivatives", "verify-ricci", "rank-rho", "cosmology"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument(
            "--json", action="store_true", help="print the JSON report to stdout"
        )
        p.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings (report no longer byte-reproducible)",
        )
        if name == "verify-ricci":
            p.add_argument(
                "--scope",
                choices=("catalogue", "all", "mixed"),
                default="catalogue",
            )
    return parser


def _output_error(path, reason) -> int:
    print(f"output error: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("seed: outside the unsigned 64-bit range")
            config.seed = args.seed
        if args.out:
            config.output = args.out
        if config.output:
            # refuse a path that cannot be written before the work, not after;
            # the file itself is created only when the report is written
            if os.path.isdir(config.output):
                return _output_error(config.output, os.strerror(errno.EISDIR))
            if not os.path.isdir(os.path.dirname(config.output) or "."):
                return _output_error(config.output, os.strerror(errno.ENOENT))

        if args.command == "verify-derivatives":
            report = cmd_verify_derivatives(config)
        elif args.command == "verify-ricci":
            report = cmd_verify_ricci(config, args.scope)
        elif args.command == "rank-rho":
            report = cmd_rank_rho(config)
        else:
            report = cmd_cosmology(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    rendered = report.render(with_timings=args.timings)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            return _output_error(config.output, exc.strerror or exc)
    try:
        if args.json:
            sys.stdout.write(rendered)
        else:
            for check in sorted(report.checks, key=lambda c: c.id):
                print(f"{'PASS' if check.passed else 'FAIL'} {check.id}")
            summary = report.to_json()["summary"]
            print(f"pass={summary['pass']} fail={summary['fail']}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
