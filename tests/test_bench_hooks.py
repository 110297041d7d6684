"""The benchmark's traced run wraps package attributes by name
(``perfbench/layers.py``, ``Tracer.install``).  Renaming or deleting one of
them breaks ``perfbench/run.py --trace 1``; this test makes that a tier-1
failure instead."""

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
    ]:
        assert name in names
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
    assert not tracer._patches
