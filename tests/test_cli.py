import importlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from torsioncalc import cli, connection, cosmology, ricci, sampling
from torsioncalc.algebra import LinearSystem, ScalarField
from torsioncalc.cli import main
from torsioncalc.connection import DerivKind, covariant_derivative
from torsioncalc.curvature import curvature_R
from torsioncalc.ricci import (
    IdentityCoefficients,
    IdentityUnsolvableError,
    IdentityWorkspace,
    MixWeights,
    identity_catalogue,
)
from torsioncalc.sampling import derive_rng, random_even_connection, random_tensor_field


def _config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def test_cosmology_degenerate_window_fails_eq60(tmp_path, capsys):
    # s1 = t - 1 vanishes at t = 1, inside the window [0, 2]
    config = tmp_path / "degenerate.json"
    config.write_text(
        json.dumps(
            {
                "cosmology": {
                    "s1": ["-1", "1"],
                    "s2": ["1"],
                    "s3": ["1"],
                    "s4": ["1"],
                    "n": ["0", "1"],
                    "vprime_minus_w": "1",
                    "window": ["0", "2"],
                }
            }
        )
    )
    code = main(["cosmology", "--config", str(config), "--json"])
    report = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in report["checks"]}
    assert code == 1
    assert sorted(checks) == ["eq:51", "eq:56", "eq:58-59", "eq:60", "eq:66"]
    assert not checks["eq:60"]["pass"]
    assert checks["eq:60"]["actual"].startswith(
        "error: s1 = -1 + t vanishes on the window [0, 2]"
    )
    assert all(checks[k]["pass"] for k in checks if k != "eq:60")


@pytest.mark.parametrize(
    "field, value",
    [("window", ["0", "1e400"]), ("n", ["0", "1e200"]), ("vprime_minus_w", "1e400")],
    ids=["window", "n", "vprime_minus_w"],
)
def test_a_float_overflow_in_eq60_fails_that_check(tmp_path, capsys, field, value):
    # the node list, the integrand or v' - w leaves the float range: eq:60
    # fails with the error, and the exact checks still report
    config = _config(tmp_path, cosmology={**SMALL_COSMOLOGY, field: value})
    code = main(["cosmology", "--config", config, "--json"])
    captured = capsys.readouterr()
    checks = {c["id"]: c for c in json.loads(captured.out)["checks"]}
    assert code == 1 and captured.err == ""
    assert sorted(checks) == ["eq:51", "eq:56", "eq:58-59", "eq:60", "eq:66"]
    assert not checks["eq:60"]["pass"]
    assert checks["eq:60"]["actual"].startswith("error: ")
    assert all(checks[k]["pass"] for k in checks if k != "eq:60")


def test_a_wrong_contraction_route_fails_its_checks_not_the_run(tmp_path, capsys, monkeypatch):
    # the torsion scalar doubled: the contraction routes of eq:58-59 and
    # eq:56 leave the closed form, which eq:60 and eq:66 go on to use
    real = cosmology.torsion_scalar
    monkeypatch.setattr(cosmology, "torsion_scalar", lambda m: real(m) * 2)
    config = _config(tmp_path, cosmology=SMALL_COSMOLOGY)
    code = main(["cosmology", "--config", config, "--json"])
    captured = capsys.readouterr()
    checks = {c["id"]: c["pass"] for c in json.loads(captured.out)["checks"]}
    assert code == 1 and captured.err == ""
    assert checks == {
        "eq:51": True, "eq:56": False, "eq:58-59": False, "eq:60": True, "eq:66": True,
    }


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", ["0", "abc"]), ("panels", True), ("panels", 10**6 + 1),
        ("s4", ["abc"]), ("s3", ["1", True]), ("s2", ["0", "0"]), ("n", ["1/0"]),
        ("vprime_minus_w", "abc"), ("s1", "1"),
    ],
)
def test_bad_cosmology_window_or_panels_exits_two(tmp_path, capsys, field, value):
    block = {
        "s1": ["1"], "s2": ["1"], "s3": ["1"], "s4": ["1"], "n": ["0", "1"],
        "vprime_minus_w": "1", field: value,
    }
    config = _config(tmp_path, cosmology=block)
    assert main(["cosmology", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cosmology.{field}:")
    assert captured.out == ""


def test_cosmology_numbers_are_read_through_their_text(tmp_path, capsys):
    # a JSON float is the decimal it spells, in coefficients, v'-w and the
    # window alike, and not the nearest binary double
    block = {
        "s1": [1], "s2": [0.1, 1], "s3": ["1"], "s4": ["1"], "n": [0, 0.5],
        "vprime_minus_w": 0.1, "window": [0.1, "2"], "panels": 10,
    }
    config = _config(tmp_path, cosmology=block)
    assert main(["cosmology", "--config", config, "--json"]) == 0
    echo = json.loads(capsys.readouterr().out)["config"]["cosmology"]
    assert echo["s2"] == ["1/10", "1"]
    assert echo["n"] == ["0", "1/2"]
    assert echo["vprime_minus_w"] == "1/10"
    assert echo["window"] == ["1/10", "2"]


@pytest.mark.parametrize("field", ["s1", "n", "vprime_minus_w"])
def test_bool_cosmology_numbers_exit_two(tmp_path, capsys, field):
    block = {
        "s1": ["1"], "s2": ["1"], "s3": ["1"], "s4": ["1"], "n": ["0", "1"],
        "vprime_minus_w": "1",
    }
    block[field] = True if field == "vprime_minus_w" else [True]
    config = _config(tmp_path, cosmology=block)
    assert main(["cosmology", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cosmology.{field}:")
    assert captured.out == ""


def test_verify_ricci_catalogue_small_instance_passes(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, degree=1, instances=1)
    code = main(["verify-ricci", "--scope", "catalogue", "--config", config, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["checks"]) == 17
    assert all(c["pass"] and c["status"] == "exact-zero" for c in report["checks"])


def test_run_config_defaults_and_field_order():
    config = cli.RunConfig()
    assert (config.dimension, config.seed, config.degree, config.instances) == (3, 20260809, 2, 20)
    assert config.cosmology is None and config.output is None
    assert config.window == (Fraction(0), Fraction(1)) and config.panels == 1000
    assert cli.RunConfig.from_dict({}).echo() == config.echo()
    positional = cli.RunConfig(4, 7, 1, 5, None, (Fraction(1), Fraction(2)), 10, "r.json")
    assert positional.echo() == {"dimension": 4, "seed": 7, "degree": 1, "instances": 5}
    assert (positional.window, positional.panels, positional.output) == (
        (Fraction(1), Fraction(2)), 10, "r.json"
    )
    assert cli.RunConfig(dimension=2).dimension == 2 and cli.RunConfig().dimension == 3


def test_unknown_config_field_exits_two(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, dimensions=3)
    code = main(["rank-rho", "--config", config])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "'dimensions'" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_exits_two_naming_the_path(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"output": "r\xe9port.json"}')  # Latin-1, not UTF-8
    code = main(["rank-rho", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert str(path) in err


@pytest.mark.parametrize("via", ["--out", "config"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_report_path_exits_two_naming_the_path(
    tmp_path, capsys, monkeypatch, via, target
):
    out = tmp_path / "reports"
    if target == "directory":
        out.mkdir()
    else:
        out = out / "report.json"
    fields = {"output": str(out)} if via == "config" else {}
    config = _config(tmp_path, dimension=2, degree=1, instances=1, **fields)
    argv = ["verify-ricci", "--scope", "all", "--config", config]
    if via == "--out":
        argv += ["--out", str(out)]
    # the path is refused before the solve, not after it
    calls = []
    monkeypatch.setattr(cli, "solve_all_identities", lambda *args, **kw: calls.append(args))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("output error:")
    assert str(out) in captured.err
    assert captured.out == ""
    assert calls == []
    if target == "missing-parent":
        assert not out.parent.exists()  # nothing was created on the way


def test_the_workers_variable_is_inert(tmp_path, monkeypatch):
    # sweeps run in one process: no value of the variable changes the report
    # or is refused, not even one that is not a number
    config = _config(tmp_path, dimension=2, degree=1, instances=8)
    rendered = {}
    for raw in (None, "2", "many"):
        if raw is None:
            monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.WORKERS_ENV, raw)
        out = tmp_path / f"mixed-{raw}.json"
        code = main(["verify-ricci", "--scope", "mixed", "--config", config, "--out", str(out)])
        assert code == 0
        rendered[raw] = out.read_bytes()
    assert rendered[None] == rendered["2"] == rendered["many"]
    assert len(json.loads(rendered[None])["checks"]) == 17


def test_elapsed_ms_only_with_timings(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, degree=1, instances=1)
    argv = ["verify-derivatives", "--config", config, "--json"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["elapsed_ms"] is None for c in checks)
    assert main(argv + ["--timings"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert any(c["elapsed_ms"] is not None for c in checks)


@pytest.mark.parametrize("error", [IdentityUnsolvableError])
def test_scope_all_reports_a_solver_error_as_failed_check(monkeypatch, capsys, error):
    def fail():
        raise error("no unique solution")

    monkeypatch.setattr(cli, "solve_all_identities", fail)
    assert main(["verify-ricci", "--scope", "all"]) == 1
    assert "FAIL thm2:solve" in capsys.readouterr().out


def test_scope_all_lets_other_errors_through(monkeypatch):
    def broken():
        raise TypeError("a bug, not a solver verdict")

    monkeypatch.setattr(cli, "solve_all_identities", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["verify-ricci", "--scope", "all"])


def test_scope_all_echoes_only_the_fields_it_reads(tmp_path, monkeypatch, capsys):
    calls = []

    def catalogue_only(*args, **kwargs):
        calls.append((args, kwargs))
        return {ic.pqrs: ic for ic in identity_catalogue()}

    monkeypatch.setattr(cli, "solve_all_identities", catalogue_only)
    monkeypatch.setattr(cli, "INSTANCE_DIMS", ())  # no check instance: the echo is the point
    config = _config(tmp_path, dimension=2, instances=5)
    main(["verify-ricci", "--scope", "all", "--config", config, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert calls == [((), {})]  # the tables alone, no instance
    assert report["config"] == {"seed": 20260809, "degree": 2}


def test_scope_all_runs_no_solve_and_takes_the_span_rank_from_the_identity_rows(
    tmp_path, monkeypatch, capsys
):
    solves, systems, ranked = [], [], []
    solve, init, rank = LinearSystem.solve, LinearSystem.__init__, cli.matrix_rank

    def counted(self):
        solves.append(self)
        return solve(self)

    def recorded(self, ncols, nrhs=1):
        systems.append((ncols, nrhs))
        init(self, ncols, nrhs)

    def recorded_rank(rows):
        rows = list(rows)
        ranked.append(rows)
        return rank(rows)

    monkeypatch.setattr(LinearSystem, "solve", counted)
    monkeypatch.setattr(LinearSystem, "__init__", recorded)
    monkeypatch.setattr(cli, "matrix_rank", recorded_rank)
    assert main(["verify-ricci", "--scope", "all", "--config", _config(tmp_path, degree=1)]) == 0
    # the basis rank on the first check instance, then the span rank of the
    # 81 members' identity rows; neither has a right side
    assert solves == []
    assert systems == [(17, 0), (36, 0)]
    solutions = ricci.solve_all_identities()
    assert ranked == [[ricci.identity_row(solutions[pqrs]) for pqrs in ricci.ALL_COMBINATIONS]]
    assert "PASS cor2:span-rank" in capsys.readouterr().out


def test_scope_all_checks_its_instances_through_the_sweep_task(monkeypatch):
    # one sweep of one instance per dim of INSTANCE_DIMS, each given all 81
    # solved members; the first also asks for the basis rank certificate
    calls, real = [], cli._sweep
    monkeypatch.setattr(cli, "_sweep", lambda *args: calls.append(args) or real(*args))
    config = cli.RunConfig(seed=7, degree=1)
    assert cli.cmd_verify_ricci(config, "all").exit_code() == 0
    assert [call[:3] for call in calls] == [
        (config, "check", [(3, 0)]), (config, "check", [(4, 1)]),
    ]
    assert all([ic.pqrs for ic in call[3]] == list(ricci.ALL_COMBINATIONS) for call in calls)
    assert [call[4] for call in calls] == [True, False]


def test_scope_all_samples_its_two_check_instances_and_nothing_else(monkeypatch):
    # the coefficients come from the tables; only the check instances draw, and
    # each builds one workspace.  Neither forms a whole basis column: the
    # rank is certified on their constant terms, and every residual merges
    # to a rest that reads no column
    labels, workspaces = [], []
    derive, init = sampling.derive_rng, IdentityWorkspace.__init__

    def drawn(seed, label):
        labels.append(label)
        return derive(seed, label)

    def built(self, a, L):
        workspaces.append(self)
        init(self, a, L)

    monkeypatch.setattr(sampling, "derive_rng", drawn)
    monkeypatch.setattr(IdentityWorkspace, "__init__", built)
    ricci.solve_all_identities()
    assert labels == workspaces == []
    assert cli.cmd_verify_ricci(cli.RunConfig(seed=7, degree=1), "all").exit_code() == 0
    assert labels == ["check:3:0", "check:4:1"]
    assert [ws.a.dim for ws in workspaces] == [3, 4]
    columns = {key for _, key in ricci._COLUMN_BY_READ}
    assert all(not columns & set(ws._cache) for ws in workspaces)
    assert "dtor" in workspaces[0]._cache and "q2" not in workspaces[0]._cache


def test_a_basis_rank_short_of_seventeen_fails_thm2_solve_on_the_first_instance(
    tmp_path, monkeypatch, capsys
):
    # in dim 2 the 17 basis tensors have rank 15, so a dim-2 first instance
    # cannot certify the coefficients
    monkeypatch.setattr(cli, "INSTANCE_DIMS", (2, 3))
    config = _config(tmp_path, degree=1)
    argv = ["verify-ricci", "--scope", "all", "--config", config, "--seed", "7", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (check,) = json.loads(captured.out)["checks"]
    assert check["id"] == "thm2:solve" and not check["pass"]
    assert check["actual"] == "error: basis rank 15 < 17"
    assert check["detail"] == {"seed": 7, "label": "check:2:0", "dim": 2}


def test_a_negated_curvature_fails_thm2_solve_naming_the_check_instance(
    tmp_path, monkeypatch, capsys
):
    # a sign slip in R leaves the basis rank and the table offsets as they
    # are; only the shared rest, SSa - SSa^(m<->n) - rcomm, stops vanishing
    monkeypatch.setattr(ricci, "curvature_R", lambda Lsym: -curvature_R(Lsym))
    labels, derive = [], sampling.derive_rng
    monkeypatch.setattr(
        sampling, "derive_rng", lambda seed, label: labels.append(label) or derive(seed, label)
    )
    config = _config(tmp_path, degree=1)
    argv = ["verify-ricci", "--scope", "all", "--config", config, "--seed", "7", "--json"]
    assert main(argv) == 1
    # the dim-3 instance fails, so the dim-4 one is never drawn
    assert labels == ["check:3:0"]
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["id"] == "thm2:solve" and not check["pass"]
    # every member fails alike and (1, 1, 1, 1) comes first
    assert check["actual"] == "error: (1, 1, 1, 1): nonzero residual on a fresh instance"
    _, ws = _sampled(7, "check:3:0", 3, 1)
    entry, monomial = _first_term(ws.residual(ricci.CATALOGUE_BY_PQRS[1, 1, 1, 1]))
    assert check["detail"] == {
        "seed": 7, "label": "check:3:0", "dim": 3, "entry": entry, "monomial": monomial,
    }


# ---------------------------------------------------------------------------
# failure details and import cost
# ---------------------------------------------------------------------------


def _broken_catalogue(n):
    """The catalogue with member n's sixth coefficient changed, tag kept."""
    catalogue = identity_catalogue()
    ic = catalogue[n]
    c = list(ic.c)
    c[5] = {1: 0, 0: -1, -1: 1}[c[5]]
    catalogue[n] = IdentityCoefficients(tuple(c), ic.pqrs, ic.tag)
    return catalogue


def _first_term(t):
    for idx, e in zip(itertools.product(range(t.dim), repeat=t.rank()), t.entries):
        if not e.is_zero():
            exps, coeff = next(iter(e.terms().items()))
            return list(idx), repr(ScalarField.from_terms({exps: coeff}, t.dim))
    return None


def _sampled(seed, label, dim, degree):
    rng = derive_rng(seed, label)
    L = random_even_connection(rng, dim, degree)
    a = random_tensor_field(rng, dim, (1, 1), degree)
    return rng, IdentityWorkspace(a, L)


def test_failing_catalogue_check_names_instance_entry_and_monomial(monkeypatch):
    broken = _broken_catalogue(3)
    monkeypatch.setattr(cli, "identity_catalogue", lambda: list(broken))
    config = cli.RunConfig(dimension=2, degree=1, instances=2, seed=5)
    checks = {c.id: c for c in cli.cmd_verify_ricci(config, "catalogue").checks}
    bad = checks.pop(f"eq:{broken[3].tag}")
    _, ws = _sampled(5, "ricci:2:0", 2, 1)
    entry, monomial = _first_term(ws.residual(broken[3]))
    assert not bad.passed and bad.status == "nonzero-residual"
    assert bad.detail == {
        "seed": 5, "label": "ricci:2:0", "dim": 2, "entry": entry, "monomial": monomial,
    }
    assert all(c.passed and c.detail is None for c in checks.values())


def test_failing_mixed_check_names_its_weighting(monkeypatch):
    broken = _broken_catalogue(16)
    monkeypatch.setattr(cli, "identity_catalogue", lambda: list(broken))
    config = cli.RunConfig(dimension=2, degree=1, instances=4, seed=6)
    checks = {c.id: c for c in cli.cmd_verify_ricci(config, "mixed").checks}
    bad = checks.pop(f"eq:29:{broken[16].tag}")
    rng, ws = _sampled(6, "mixed:2:0", 2, 1)
    weightings = [MixWeights.random(rng) for _ in range(17 * 5)][16 * 5 :]
    residuals = [ws.lhs(broken[16].pqrs) - ws.rhs_mixed(broken[16], w) for w in weightings]
    w = next(k for k, r in enumerate(residuals) if not r.is_zero())
    entry, monomial = _first_term(residuals[w])
    assert not bad.passed
    assert bad.detail == {
        "seed": 6, "label": "mixed:2:0", "dim": 2, "weighting": w,
        "entry": entry, "monomial": monomial,
    }
    assert all(c.passed and c.detail is None for c in checks.values())


def test_a_mixed_check_names_its_first_failing_weighting(monkeypatch):
    # the broken member's first weighting is made to pass: its second is named
    broken = _broken_catalogue(16)
    monkeypatch.setattr(cli, "identity_catalogue", lambda: list(broken))
    real = cli.nonzero_sums

    def first_weighting_passes(*args):
        failing = real(*args)
        failing.pop(16 * cli.MIXED_WEIGHTINGS, None)
        return failing

    monkeypatch.setattr(cli, "nonzero_sums", first_weighting_passes)
    config = cli.RunConfig(dimension=2, degree=1, instances=4, seed=6)
    checks = {c.id: c for c in cli.cmd_verify_ricci(config, "mixed").checks}
    detail = checks[f"eq:29:{broken[16].tag}"].detail
    assert (detail["label"], detail["weighting"]) == ("mixed:2:0", 1)


def test_failing_derivative_relation_names_instance_entry_and_monomial(monkeypatch):
    # eq:8 with its first weight doubled: D_sym - D_1 - D_2 / 2 is not zero
    relations = list(connection.DERIVATIVE_RELATIONS)
    tag, lhs, ((_, k1), second) = relations[0]
    assert tag == "eq:8"
    relations[0] = (tag, lhs, ((1, k1), second))
    monkeypatch.setattr(connection, "DERIVATIVE_RELATIONS", tuple(relations))
    config = cli.RunConfig(dimension=2, degree=1, instances=2, seed=8)
    checks = {c.id: c for c in cli.cmd_verify_derivatives(config).checks}
    bad = checks.pop("eq:8")
    rng = derive_rng(8, "deriv:2:0")
    L = random_even_connection(rng, 2, 1)
    a = random_tensor_field(rng, 2, (1, 1), 1)
    residual = covariant_derivative(DerivKind.SYM, a, L) - covariant_derivative(k1, a, L)
    residual = residual + covariant_derivative(second[1], a, L).scale(-second[0])
    entry, monomial = _first_term(residual)
    assert not bad.passed and bad.status == "nonzero-residual"
    assert bad.detail == {
        "seed": 8, "label": "deriv:2:0", "dim": 2, "entry": entry, "monomial": monomial,
    }
    assert all(c.passed and c.detail is None for c in checks.values())


def test_sweep_keeps_each_tags_first_failing_instance(monkeypatch):
    # over three instances, tag a fails on instances 1 and 2, b on 2 only
    failing = [{}, {0: ((0, 1), "x")}, {0: ((1, 0), "y"), 1: ((1, 1), "z")}]
    drawn = []

    def members(rng, a, L):
        drawn.append(a)
        return [("a", {}), ("b", {"weighting": 4}), ("c", {})], failing[len(drawn) - 1]

    monkeypatch.setitem(cli._SWEEPS, "x", members)
    cli._need("sampling")  # no subcommand has bound it
    verdicts = cli._sweep(cli.RunConfig(seed=3, degree=1), "x", [(2, i) for i in range(3)])
    assert len(drawn) == 3
    assert verdicts == [
        ("a", False, {"seed": 3, "label": "x:2:1", "dim": 2, "entry": [0, 1], "monomial": "'x'"}),
        ("b", False, {
            "seed": 3, "label": "x:2:2", "dim": 2, "weighting": 4,
            "entry": [1, 1], "monomial": "'z'",
        }),
        ("c", True, None),
    ]


def _in_a_fresh_interpreter(code: str) -> str:
    """The last line printed by ``code``, run in a fresh interpreter that has
    imported the CLI as ``cli``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, torsioncalc.cli as cli\n{code}"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["lines", "json"])
def test_a_closed_stdout_ends_a_passing_run_quietly_with_its_status(tmp_path, flags):
    # the reader is gone before the report is printed, as in
    # ``torsioncalc verify-ricci --scope all | head -n 1`` once head exits
    src = os.path.dirname(os.path.dirname(cli.__file__))
    config = _config(tmp_path, degree=1)
    argv = ["verify-ricci", "--scope", "all", "--config", config, *flags]
    with subprocess.Popen(
        [sys.executable, "-m", "torsioncalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    ) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def _loaded_by_importing_the_cli(argv=()) -> set:
    """The names in sys.modules of a fresh interpreter after it imports the
    CLI and, given ``argv``, runs it."""
    run = f"if cli.main({list(argv)!r}): sys.exit(3)\n" if argv else ""
    return set(_in_a_fresh_interpreter(f"{run}print(*sys.modules)").split())


def test_importing_the_cli_leaves_multiprocessing_out(tmp_path):
    # sweeps run in one process: nothing loads multiprocessing, not even a
    # sweep of two instances
    config = _config(tmp_path, dimension=2, degree=1, instances=8)
    argv = ["verify-ricci", "--scope", "mixed", "--config", config]
    assert "multiprocessing" not in _loaded_by_importing_the_cli(argv)


def test_importing_the_cli_compiles_algebra_before_argparse():
    # algebra's parser transient sets the peak RSS unless it comes first
    code = (
        "names = list(sys.modules)\n"
        "print(names.index('torsioncalc.algebra') < names.index('argparse'))"
    )
    assert _in_a_fresh_interpreter(code) == "True"


def test_importing_the_cli_leaves_numpy_out():
    # numpy's import alone costs more than the whole CLI setup
    assert "numpy" not in _loaded_by_importing_the_cli()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-derivatives"],
        ["verify-ricci", "--scope", "catalogue"],
        ["verify-ricci", "--scope", "all"],
        ["verify-ricci", "--scope", "mixed"],
        ["rank-rho"],
        ["cosmology"],
    ],
    ids=["derivatives", "catalogue", "all", "mixed", "rank-rho", "cosmology"],
)
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, argv):
    # importing dataclasses loads inspect, ast, dis and tokenize: about 10 ms
    # and 1 MiB of every spawn, which no check needs
    fields = {"cosmology": SMALL_COSMOLOGY} if argv == ["cosmology"] else {}
    config = _config(tmp_path, dimension=2, degree=1, instances=2, **fields)
    loaded = _loaded_by_importing_the_cli([*argv, "--config", config])
    assert not {"dataclasses", "inspect"} & loaded


SMALL_COSMOLOGY = {
    "s1": ["1", "1"], "s2": ["1"], "s3": ["2", "1"], "s4": ["1"], "n": ["0", "1"],
    "vprime_minus_w": "1/3", "panels": 10,
}


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (
            ["cosmology"],
            ("cosmology", "ratfunc"),
            ("ricci", "curvature", "sampling", "connection"),
        ),
        (["verify-ricci", "--scope", "catalogue"], ("ricci",), ("cosmology", "ratfunc")),
        (["rank-rho"], ("curvature",), ("cosmology", "ratfunc", "ricci")),
    ],
    ids=["cosmology", "catalogue", "rank-rho"],
)
def test_a_subcommand_loads_only_the_modules_it_calls(tmp_path, argv, used, unused):
    # with no bytecode cache every loaded module is compiled on every run
    fields = {"cosmology": SMALL_COSMOLOGY} if argv == ["cosmology"] else {}
    config = _config(tmp_path, dimension=2, degree=1, instances=2, **fields)
    loaded = _loaded_by_importing_the_cli([*argv, "--config", config])
    assert {f"torsioncalc.{m}" for m in used} <= loaded
    assert not {f"torsioncalc.{m}" for m in unused} & loaded


def test_every_package_module_is_loaded_by_some_subcommand(tmp_path):
    # a module that no subcommand loads is code that no check reads
    package = os.path.dirname(cli.__file__)
    modules = {
        f"torsioncalc.{name[:-3]}"
        for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    }
    loaded = set()
    for argv in (
        ["verify-derivatives"],
        ["verify-ricci", "--scope", "catalogue"],
        ["rank-rho"],
        ["cosmology"],
    ):
        fields = {"cosmology": SMALL_COSMOLOGY} if argv == ["cosmology"] else {}
        config = _config(tmp_path, dimension=2, degree=1, instances=2, **fields)
        loaded |= _loaded_by_importing_the_cli([*argv, "--config", config])
    assert {name for name in loaded if name.startswith("torsioncalc.")} == modules


def test_every_name_the_cli_binds_is_an_attribute_of_its_module():
    # a rename fails here, not only in the one subcommand that reads the name
    for module, names in cli._NAMES.items():
        source = importlib.import_module(f"torsioncalc.{module}")
        for name in names:
            assert hasattr(source, name), (module, name)
            assert getattr(cli, name) is getattr(source, name), (module, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_a_wrapper_set_on_the_cli_is_the_function_that_runs(tmp_path, monkeypatch):
    # the benchmark's tracer wraps cli.recover_n this way; the subcommand's
    # own binding must not replace the wrapper
    calls, real = [], cli.recover_n
    monkeypatch.setattr(cli, "recover_n", lambda *args: calls.append(args) or real(*args))
    config = cli.load_config(_config(tmp_path, cosmology=SMALL_COSMOLOGY))
    assert cli.cmd_cosmology(config).exit_code() == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# report bytes against committed golden reports
# ---------------------------------------------------------------------------

REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")

# golden file stem -> (CLI arguments, config)
RICCI = ["verify-ricci", "--scope"]
GOLDEN = {
    "catalogue-d2": ([*RICCI, "catalogue"], {"dimension": 2, "degree": 1, "instances": 2}),
    "catalogue-d3": ([*RICCI, "catalogue"], {"dimension": 3, "degree": 1, "instances": 1}),
    "catalogue-d4": ([*RICCI, "catalogue"], {"dimension": 4, "degree": 1, "instances": 1}),
    "all": ([*RICCI, "all"], {"degree": 1}),
    "mixed": ([*RICCI, "mixed"], {"dimension": 2, "degree": 1, "instances": 8}),
    # wider slots and other coefficients than the dim-2 mixed reports
    "mixed-d3": ([*RICCI, "mixed"], {"dimension": 3, "degree": 2, "instances": 4}),
    "derivatives": (["verify-derivatives"], {"dimension": 3, "degree": 1, "instances": 2}),
    # every check is an exact rank of fixed coefficient vectors
    "rank-rho": (["rank-rho"], {}),
    # scale factors as products of (t + a), the way the benchmark draws them
    "cosmology-d1": (["cosmology"], {"cosmology": {
        "s1": ["1", "1"], "s2": ["18", "9", "1"], "s3": ["6", "1"],
        "s4": ["35", "12", "1"], "n": ["-1", "-1", "-3"],
        "vprime_minus_w": "5/4", "window": ["0", "2"], "panels": 2000,
    }}),
    "cosmology-d2": (["cosmology"], {"cosmology": {
        "s1": ["28", "11", "1"], "s2": ["6", "11", "6", "1"], "s3": ["20", "9", "1"],
        "s4": ["105", "71", "15", "1"], "n": ["0", "3", "-3", "-1"],
        "vprime_minus_w": "1/3", "window": ["0", "2"], "panels": 2000,
    }}),
    # fractional coefficients, a non-integer endpoint and an odd panel count
    "cosmology-window": (["cosmology"], {"cosmology": {
        "s1": ["1/2", "3"], "s2": ["2", "1", "1"], "s3": ["5/3"],
        "s4": ["1", "0", "1"], "n": ["0", "1/2", "-2/3", "1"],
        "vprime_minus_w": "7/3", "window": ["1/3", "5/2"], "panels": 301,
    }}),
    # degree-3 scale factors, s1 and s3 with negative leading coefficients,
    # fractional leading coefficients and a fractional n
    "cosmology-negative": (["cosmology"], {"cosmology": {
        "s1": ["-6", "-11", "-6", "-1"], "s2": ["10", "29/2", "5", "1/2"],
        "s3": ["-2", "-2/3", "-2", "-2/3"], "s4": ["24", "36", "18", "3"],
        "n": ["1/3", "-2/5", "3/4", "-5/7"],
        "vprime_minus_w": "5/6", "window": ["0", "2"], "panels": 500,
    }}),
    # s1 = t - 1 vanishes inside the window: FAIL eq:60
    "cosmology-degenerate": (["cosmology"], {"cosmology": {
        "s1": ["-1", "1"], "s2": ["1"], "s3": ["1"], "s4": ["1"], "n": ["0", "1"],
        "vprime_minus_w": "1", "window": ["0", "2"],
    }}),
}
GOLDEN_EXIT = {"cosmology-degenerate": 1}


@pytest.mark.parametrize(
    "stem, seed",
    [
        # each id keeps its old "-1" suffix, so the test names stay stable
        pytest.param(stem, seed, id=f"{stem}-{seed}-1")
        for stem, seed in [
            *((stem, 7) for stem in GOLDEN),
            # the seed is only echoed by cosmology and rank-rho, so one seed
            # covers them; catalogue-d4 and mixed-d3 pin one size each at one seed
            *((stem, 99) for stem in GOLDEN
              if stem not in ("all", "rank-rho", "catalogue-d4", "mixed-d3")
              and not stem.startswith("cosmology")),
        ]
    ],
)
def test_report_bytes_match_golden(tmp_path, capsys, stem, seed):
    argv, fields = GOLDEN[stem]
    config = _config(tmp_path, **fields)
    code = main([*argv, "--config", config, "--seed", str(seed), "--json"])
    assert code == GOLDEN_EXIT.get(stem, 0)
    with open(os.path.join(REPORTS, f"{stem}-s{seed}.json"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode() == expected
