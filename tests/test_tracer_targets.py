"""The benchmark's tracer rebinds idcalc functions by name; a renamed or
deleted target makes ``perfbench/run.py --trace 1`` raise.  These tests
read the target list from ``perfbench/spans.py`` and resolve every entry,
then run traced calls, so the break shows in the unit suite instead."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _spans():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_tracer_target_resolves():
    spans = _spans()
    assert spans.TARGETS
    for name, mod_name, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"idcalc.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, attr, None)), name


def test_traced_word_calls_run():
    """The tracer tags each normalize span with the length of its word
    argument, so this also needs ``len`` of a Word."""
    spans = _spans()
    for name, mod_name, _, _ in spans.TARGETS:
        importlib.import_module(f"idcalc.{mod_name}")
    from idcalc import words
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert str(words.normalize(words.parse_word("q1 I2"))) == "D2 I3 I1"
        verdict = words.word_eq(words.parse_word("q1"), words.parse_word("D2 I1"))
        assert isinstance(verdict, words.Equal)
    finally:
        tracer.active = False
        tracer.uninstall()
    normalize_id = tracer.names.index("words.normalize")
    assert sorted(tracer.tags[sid] for sid, nid in enumerate(tracer.name)
                  if nid == normalize_id) == [1, 2, 2]
    assert not hasattr(words.normalize, "__wrapped__")


def test_traced_comb_grid_runs():
    """A traced sweep records its own span and the core evaluations inside
    it, so `sphere.comb_core` keeps its meaning in the sphere workload."""
    spans = _spans()
    for name, mod_name, _, _ in spans.TARGETS:
        importlib.import_module(f"idcalc.{mod_name}")
    from idcalc import sphere
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        data = sphere.comb_grid(2, 25, 0.1)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert data["min_certificate"] > 1e-6
    counts = {name: sum(1 for nid in tracer.name if tracer.names[nid] == name)
              for name in ("sphere.comb_grid", "sphere.comb_core")}
    # one slope per certificate offset, two core evaluations per slope
    assert counts == {"sphere.comb_grid": 1, "sphere.comb_core": 2 * sphere.GRID_CERT_SAMPLES}
    assert all(tracer.end[sid] > tracer.start[sid] for sid in range(len(tracer.name)))
    core_id = tracer.names.index("sphere.comb_core")
    assert {tracer.parent[sid] for sid, nid in enumerate(tracer.name) if nid == core_id} == {0}
    assert not hasattr(sphere.comb_core, "__wrapped__")
