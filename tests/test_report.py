import json

from torsioncalc.report import (
    Check,
    Report,
    quadrature_check,
    rank_check,
    render_float,
    residual_check,
    value_check,
)


def test_render_float_keeps_17_significant_digits():
    assert render_float(0.1) == "0.10000000000000001"
    assert render_float(1 / 3) == "0.33333333333333331"
    assert float(render_float(2 / 7)) == 2 / 7
    assert render_float(0.0) == "0"


def test_elapsed_ms_is_null_unless_timings_requested():
    check = residual_check("eq:8", True, 4, elapsed_ms=1.23456)
    assert check.to_json(with_timings=False)["elapsed_ms"] is None
    assert check.to_json(with_timings=True)["elapsed_ms"] == 1.235
    untimed = rank_check("cor1:b1", 3, 3)
    assert untimed.to_json(with_timings=True)["elapsed_ms"] is None


def test_quadrature_check_renders_floats():
    rec = quadrature_check("eq:60", 0.1, 0.5).to_json(with_timings=False)
    assert rec["max_abs_float"] == "0.10000000000000001"
    assert rec["tolerance"] == "0.5"
    assert rec["pass"] is True
    assert quadrature_check("eq:60", 0.6, 0.5).passed is False


def test_checks_render_sorted_by_id_with_summary_counts():
    report = Report("demo", {"seed": 1})
    report.add(value_check("c", "x", "y"))
    report.add(rank_check("a", 2, 2))
    report.add(residual_check("b", True, 3))
    report.add(residual_check("d", False, 3))
    doc = json.loads(report.render())
    assert [c["id"] for c in doc["checks"]] == ["a", "b", "c", "d"]
    assert doc["summary"] == {"pass": 2, "fail": 2}
    assert doc["command"] == "demo" and doc["config"] == {"seed": 1}
    # insertion order does not reach the bytes
    shuffled = Report("demo", {"seed": 1}, list(reversed(report.checks)))
    assert shuffled.render() == report.render()


def test_exit_code_follows_failures():
    report = Report("demo", {})
    assert report.exit_code() == 0
    report.add(Check(id="a", kind="value", passed=True))
    assert report.exit_code() == 0
    report.add(Check(id="b", kind="value", passed=False))
    assert report.exit_code() == 1
    assert [c.id for c in report.failures] == ["b"]


def test_check_and_report_defaults():
    check = Check("a", "rank", False, 3, 1, 2)
    assert (check.id, check.kind, check.passed) == ("a", "rank", False)
    assert (check.instances, check.expected, check.actual) == (3, 1, 2)
    unset = (check.status, check.max_abs_float, check.tolerance, check.detail, check.elapsed_ms)
    assert unset == (None,) * 5
    assert Check(id="b", kind="value", passed=True).to_json(with_timings=True) == {
        "id": "b", "kind": "value", "pass": True, "elapsed_ms": None,
    }
    first, second = Report("demo", {}), Report("demo", {})
    assert first.checks == [] and first.checks is not second.checks
    first.add(check)
    assert second.checks == [] and first.checks == [check]
    assert Report("demo", {}, [check]).checks == [check]
