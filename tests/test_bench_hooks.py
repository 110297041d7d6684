"""The benchmark calls package attributes by name: the traced run wraps
them (``perfbench/layers.py``, ``Tracer.install``), and every run calls a
few without wrapping (the negative controls, the worker count variable).
Renaming or deleting one of them breaks ``perfbench/run.py``; these tests
make that a tier-1 failure instead."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in patched}
    for name in [
        ("torsioncalc.ricci", "matrix_rank"),
        ("LinearSystem", "add_row"),
        ("LinearSystem", "solve"),
        ("IdentityWorkspace", "dd"),
        ("IdentityWorkspace", "basis"),
        ("IdentityWorkspace", "r_commutator"),
        ("torsioncalc.cli", "recover_n"),
        ("torsioncalc.cli", "solve_all_identities"),
    ]:
        assert name in names
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
    assert not tracer._patches


def test_negative_controls_and_worker_variable_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    w = workloads.smoke_workload(layers.WORKLOADS["catalogue"])
    assert (w.dimension, w.degree) == (2, 1)
    # (attempted, failed): every flipped catalogue member leaves a residual
    assert layers.negative_controls(layers.control_workspace(w, 7), 7) == (3, 0)
    assert layers.cli.WORKERS_ENV == "TORSIONCALC_WORKERS"


def test_smoke_reports_carry_exactly_the_oracle_ids(tmp_path, monkeypatch, capsys):
    # judge counts an id outside ORACLE as a failed check, so a new check id
    # on a benchmarked command needs ORACLE extended first
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    monkeypatch.setenv(layers.cli.WORKERS_ENV, "1")
    capsys.readouterr()
    for name in ("catalogue", "mixed", "solve", "cosmology"):
        w = workloads.smoke_workload(workloads.WORKLOADS[name])
        cli_seed = w.cli_seed(1, 0)
        config = tmp_path / f"{name}.json"
        w.write_config(config, cli_seed)
        assert layers.cli.main(w.argv(config, cli_seed)) == 0, name
        report = capsys.readouterr().out.encode()
        assert workloads.judge(name, report) == (len(workloads.ORACLE[name]), 0), name
