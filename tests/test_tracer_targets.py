"""The benchmark's tracer rebinds idcalc functions by name; a renamed or
deleted target makes ``perfbench/run.py --trace 1`` raise.  This test
reads the target list from ``perfbench/spans.py`` and resolves every
entry, so the break shows in the unit suite instead."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_tracer_target_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)
    assert spans.TARGETS
    for name, mod_name, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"idcalc.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            assert callable(getattr(mod, attr, None)), name
