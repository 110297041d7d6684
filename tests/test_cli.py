import json

import pytest

from torsioncalc import cli
from torsioncalc.cli import ConfigError, main, worker_count
from torsioncalc.ricci import (
    IdentityAmbiguityError,
    IdentityUnsolvableError,
    identity_catalogue,
)


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
        return {ic.pqrs: ic for ic in identity_catalogue()}

    monkeypatch.setattr(cli, "solve_all_identities", catalogue_only)
    config = _config(tmp_path, dimension=2, instances=5)
    main(["verify-ricci", "--scope", "all", "--config", config, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert calls == [{"seed": 20260809, "degree": 2}]
    assert report["config"] == {"seed": 20260809, "degree": 2}
