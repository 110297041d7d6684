import itertools
import json
import os
import subprocess
import sys

import pytest

from torsioncalc import cli, connection, ricci
from torsioncalc.algebra import LinearSystem, ScalarField
from torsioncalc.cli import ConfigError, main, worker_count
from torsioncalc.connection import DerivKind, covariant_derivative
from torsioncalc.ricci import (
    IdentityAmbiguityError,
    IdentityCoefficients,
    IdentityUnsolvableError,
    IdentityWorkspace,
    MixWeights,
    SolvedIdentities,
    identity_catalogue,
    span_basis,
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
    [("window", ["0", "abc"]), ("panels", True), ("panels", 10**6 + 1)],
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


def test_verify_ricci_catalogue_small_instance_passes(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, degree=1, instances=1)
    code = main(["verify-ricci", "--scope", "catalogue", "--config", config, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["checks"]) == 17
    assert all(c["pass"] and c["status"] == "exact-zero" for c in report["checks"])


def test_unknown_config_field_exits_two(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, dimensions=3)
    code = main(["rank-rho", "--config", config])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert "'dimensions'" in err


def test_mixed_report_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    # 8 instances make 2 tasks, so 2 workers start a pool of 2
    config = _config(tmp_path, dimension=2, degree=1, instances=8)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    rendered = {}
    for workers in (1, 2):
        monkeypatch.setenv(cli.WORKERS_ENV, str(workers))
        out = tmp_path / f"mixed-{workers}.json"
        code = main(["verify-ricci", "--scope", "mixed", "--config", config, "--out", str(out)])
        assert code == 0
        rendered[workers] = out.read_bytes()
    assert rendered[1] == rendered[2]
    assert len(json.loads(rendered[1])["checks"]) == 17


def test_elapsed_ms_only_with_timings(tmp_path, capsys):
    config = _config(tmp_path, dimension=2, degree=1, instances=1)
    argv = ["verify-derivatives", "--config", config, "--json"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks and all(c["elapsed_ms"] is None for c in checks)
    assert main(argv + ["--timings"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert any(c["elapsed_ms"] is not None for c in checks)


def test_worker_count_caps_at_cpu_count(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    assert worker_count() == 1
    for raw, expected in (("1", 1), ("2", 2), ("64", 2), ("1000000", 2)):
        monkeypatch.setenv(cli.WORKERS_ENV, raw)
        assert worker_count() == expected, raw
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("raw", ["0", "-3", "two", "1.5", ""])
def test_worker_count_rejects_invalid_values(monkeypatch, raw):
    monkeypatch.setenv(cli.WORKERS_ENV, raw)
    with pytest.raises(ConfigError, match=cli.WORKERS_ENV):
        worker_count()


def test_invalid_workers_exit_two(monkeypatch, capsys):
    monkeypatch.setenv(cli.WORKERS_ENV, "many")
    assert main(["rank-rho"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: TORSIONCALC_WORKERS")


@pytest.mark.parametrize("error", [IdentityAmbiguityError, IdentityUnsolvableError])
def test_scope_all_reports_a_solver_error_as_failed_check(monkeypatch, capsys, error):
    def fail(**kwargs):
        raise error("no unique solution")

    monkeypatch.setattr(cli, "solve_all_identities", fail)
    assert main(["verify-ricci", "--scope", "all"]) == 1
    assert "FAIL thm2:solve" in capsys.readouterr().out


def test_scope_all_lets_other_errors_through(monkeypatch):
    def broken(**kwargs):
        raise TypeError("a bug, not a solver verdict")

    monkeypatch.setattr(cli, "solve_all_identities", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["verify-ricci", "--scope", "all"])


def test_scope_all_echoes_only_the_fields_it_reads(tmp_path, monkeypatch, capsys):
    calls = []

    def catalogue_only(**kwargs):
        calls.append(kwargs)
        catalogue = identity_catalogue()
        return SolvedIdentities({ic.pqrs: ic for ic in catalogue}, span_basis(catalogue))

    monkeypatch.setattr(cli, "solve_all_identities", catalogue_only)
    config = _config(tmp_path, dimension=2, instances=5)
    main(["verify-ricci", "--scope", "all", "--config", config, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert calls == [{"seed": 20260809, "degree": 2}]
    assert report["config"] == {"seed": 20260809, "degree": 2}


def test_scope_all_solves_once_and_takes_the_span_rank_from_the_check(
    tmp_path, monkeypatch, capsys
):
    solves = []
    solve = LinearSystem.solve

    def counted(self, which=0):
        solves.append(which)
        return solve(self, which)

    def second_elimination(rows):
        raise AssertionError("the span rank must come from the verified span basis")

    monkeypatch.setattr(LinearSystem, "solve", counted)
    monkeypatch.setattr(ricci, "matrix_rank", second_elimination)
    assert main(["verify-ricci", "--scope", "all", "--config", _config(tmp_path, degree=1)]) == 0
    assert solves == [0]
    assert "PASS cor2:span-rank" in capsys.readouterr().out


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
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
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
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
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


def test_failing_derivative_relation_names_instance_entry_and_monomial(monkeypatch):
    # eq:8 with its first weight doubled: D_sym - D_1 - D_2 / 2 is not zero
    relations = list(connection.DERIVATIVE_RELATIONS)
    tag, lhs, ((_, k1), second) = relations[0]
    assert tag == "eq:8"
    relations[0] = (tag, lhs, ((1, k1), second))
    monkeypatch.setattr(connection, "DERIVATIVE_RELATIONS", tuple(relations))
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
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


def test_and_reduce_keeps_the_first_failing_instance():
    results = [
        [("a", True, None), ("b", True, None)],
        [("a", False, {"label": "x:1"}), ("b", True, None)],
        [("a", False, {"label": "x:2"}), ("b", False, {"label": "x:2"})],
    ]
    assert cli._and_reduce(results) == [
        ("a", False, {"label": "x:1"}),
        ("b", False, {"label": "x:2"}),
    ]


def test_importing_the_cli_leaves_numpy_out():
    # numpy's import alone costs more than the whole CLI setup
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, torsioncalc.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# report bytes against committed golden reports
# ---------------------------------------------------------------------------

REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")

# golden file stem -> (CLI arguments, config)
RICCI = ["verify-ricci", "--scope"]
GOLDEN = {
    "catalogue-d2": ([*RICCI, "catalogue"], {"dimension": 2, "degree": 1, "instances": 2}),
    "catalogue-d3": ([*RICCI, "catalogue"], {"dimension": 3, "degree": 1, "instances": 1}),
    "all": ([*RICCI, "all"], {"degree": 1}),
    "mixed": ([*RICCI, "mixed"], {"dimension": 2, "degree": 1, "instances": 8}),
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
    # s1 = t - 1 vanishes inside the window: FAIL eq:60
    "cosmology-degenerate": (["cosmology"], {"cosmology": {
        "s1": ["-1", "1"], "s2": ["1"], "s3": ["1"], "s4": ["1"], "n": ["0", "1"],
        "vprime_minus_w": "1", "window": ["0", "2"],
    }}),
}
GOLDEN_EXIT = {"cosmology-degenerate": 1}


@pytest.mark.parametrize(
    "stem, seed, workers",
    [
        *((stem, 7, 1) for stem in GOLDEN),
        ("mixed", 7, 2),
        # the seed is only echoed by cosmology and rank-rho, so one seed covers them
        *((stem, 99, 1) for stem in GOLDEN
          if stem not in ("all", "rank-rho") and not stem.startswith("cosmology")),
    ],
)
def test_report_bytes_match_golden(tmp_path, monkeypatch, capsys, stem, seed, workers):
    argv, fields = GOLDEN[stem]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv(cli.WORKERS_ENV, str(workers))
    config = _config(tmp_path, **fields)
    code = main([*argv, "--config", config, "--seed", str(seed), "--json"])
    assert code == GOLDEN_EXIT.get(stem, 0)
    with open(os.path.join(REPORTS, f"{stem}-s{seed}.json"), "rb") as fh:
        expected = fh.read()
    assert capsys.readouterr().out.encode() == expected
