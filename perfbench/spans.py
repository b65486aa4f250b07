"""Per-layer tracing from outside the program.

Each traced function is replaced by a wrapper that records a span (name,
parent span, start, end) and a few outcome counts.  Module functions are
rebound in every idcalc module namespace that holds them, methods are
replaced on their class, and the relation catalogue's trial builders are
replaced in its dict.  Spans stay in memory until the run ends; a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from typing import Any, Callable, Optional

# rule ids of the paper's relation catalogue
RULES = ["R5", "R4bis", "S0", "R1", "R1bis", "R2", "R3", "S3", "R7", "S7bis", "R7ter",
         "R7quater", "R7penta", "R9", "R9.1", "R9.2", "R9.3", "R9bis", "R9ter", "R10",
         "R10.1", "R10bis", "R11", "R12", "R12.1", "R13", "R14", "R15", "R16", "R16.1",
         "R16.2", "R16.3", "R16.4", "R16.5", "R17", "R17bis"]

# (span name, module, attribute or Class.method, outcome counted on success)
TARGETS: list[tuple[str, str, str, Optional[Callable[[Any], bool]]]] = [
    ("boxes.enclosure_mul", "boxes", "Enclosure.mul", None),
    ("polynomials.range_fits", "polynomials", "range_fits", bool),
    ("polynomials.compose", "polynomials", "compose", lambda r: r.is_partial),
    ("polynomials.subst", "polynomials", "Poly.subst", None),
    ("polynomials.poly_make", "polynomials", "Poly.make", None),
    ("polynomials.apply_word", "polynomials", "apply_word", None),
    ("words.word_eq", "words", "word_eq", lambda r: type(r).__name__ == "Unknown"),
    ("words.oracle_eval", "words", "_random_polyfun", None),
    ("words.normalize", "words", "normalize", None),
    ("words.relation_step", "words", "relation_step", lambda r: True),
    ("terms.substitute", "terms", "substitute", None),
    ("evaluation.eval_term", "evaluation", "eval_term", None),
    ("evaluation.instantiate", "evaluation", "instantiate", None),
    ("relations.check_relation", "relations", "check_relation", None),
    ("prederiv.compose_germ", "prederiv", "compose_germ", None),
    ("prederiv.shrink", "prederiv", "_shrink_around_zero", None),
    ("prederiv.vanishing_space", "prederiv", "vanishing_space", None),
    ("prederiv.kernel_basis", "prederiv", "kernel_basis", None),
    ("sphere.comb_grid", "sphere", "comb_grid", None),
    ("sphere.comb_core", "sphere", "comb_core", None),
    ("cli.main", "cli", "main", None),
]

BUILDERS = "relations.builders"
OP = "op"

# every per-layer metric, with its unit, in report order
PER_LAYER: list[tuple[str, str]] = [
    ("boxes.enclosure_mul.calls", "count"), ("boxes.enclosure_mul.self_ms", "ms"),
    ("polynomials.range_fits.calls", "count"), ("polynomials.range_fits.ms", "ms"),
    ("polynomials.range_fits.certified_ratio", "ratio"),
    ("polynomials.compose.calls", "count"), ("polynomials.compose.self_ms", "ms"),
    ("polynomials.compose.partial_ratio", "ratio"),
    ("polynomials.subst.calls", "count"), ("polynomials.subst.ms", "ms"),
    ("polynomials.poly_make.calls", "count"),
    ("polynomials.apply_word.calls", "count"), ("polynomials.apply_word.ms", "ms"),
    ("words.word_eq.calls", "count"), ("words.word_eq.ms", "ms"),
    ("words.word_eq.oracle_evals", "count"), ("words.word_eq.unknown", "count"),
    ("words.normalize.calls", "count"), ("words.normalize.ms", "ms"),
    ("words.normalize_len8.p50_ms", "ms"), ("words.normalize_len16.p50_ms", "ms"),
    ("words.normalize_len32.p50_ms", "ms"),
    ("words.relation_step.calls", "count"), ("words.relation_step.useful_ratio", "ratio"),
    ("terms.substitute.calls", "count"), ("terms.substitute.ms", "ms"),
    ("evaluation.eval_term.ms", "ms"), ("evaluation.eval_term.self_ms", "ms"),
    ("evaluation.instantiate.ms", "ms"), ("relations.builders.ms", "ms"),
] + [(f"relations.{rule}.ms", "ms") for rule in RULES] + [
    ("prederiv.compose_germ.calls", "count"), ("prederiv.compose_germ.ms", "ms"),
    ("prederiv.compose_germ.shrink_steps", "count"),
    ("prederiv.vanishing_space.ms", "ms"), ("prederiv.kernel_basis.ms", "ms"),
    ("sphere.comb_grid.ms", "ms"), ("cli.main.self_ms", "ms"),
    ("sphere.comb_core.calls", "count"), ("sphere.comb_core.self_ms", "ms"),
    ("setup.import_ms", "ms"),
    ("trace.ops_per_s", "ops/s"), ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Span recorder.  Wrappers pass straight through while inactive."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, Any] = {}
        self.hits: dict[str, int] = {}
        self.stack = [-1]
        self.active = False
        self._undo: list[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, tag: Any = None) -> int:
        sid = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        if tag is not None:
            self.tags[sid] = tag
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, outcome=None, tag_of=None) -> Callable:
        tr = self

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = tr.open(name, tag_of(args) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(sid)
            if outcome is not None and outcome(result):
                tr.hits[name] = tr.hits.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import idcalc
        mods = [m for k, m in sys.modules.items() if k == "idcalc" or k.startswith("idcalc.")]
        for name, mod_name, attr, outcome in TARGETS:
            mod = sys.modules[f"idcalc.{mod_name}"]
            tag_of = None
            if name == "words.normalize":
                tag_of = lambda args: len(args[0])  # noqa: E731
            elif name == "relations.check_relation":
                tag_of = lambda args: args[0]  # noqa: E731
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self.wrap(name, fn, outcome, tag_of)
                setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
                self._undo.append(lambda c=cls, m=meth, r=raw: setattr(c, m, r))
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn, outcome, tag_of)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
                        self._undo.append(lambda m=m, k=key, v=fn: setattr(m, k, v))
        catalogue = idcalc.relations.CATALOGUE
        for rule, builder in list(catalogue.items()):
            catalogue[rule] = self.wrap(BUILDERS, builder)
            self._undo.append(lambda r=rule, b=builder: catalogue.__setitem__(r, b))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics ----------------------------------------------------------------

    def metrics(self, import_ms: float, ops_per_s: float, overhead: float) -> dict:
        n = len(self.name)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        by = {name: [] for name in self.names}
        for k in range(n):
            by[self.names[self.name[k]]].append(k)

        def ids(name):
            return by.get(name, [])

        def calls(name):
            return len(ids(name))

        def ms(name):
            """Inclusive time of the outermost spans of this name."""
            nid = self._ids.get(name)
            total = 0.0
            for k in ids(name):
                p = self.parent[k]
                while p >= 0 and self.name[p] != nid:
                    p = self.parent[p]
                if p < 0:
                    total += dur[k]
            return 1000 * total

        def self_ms(name):
            return 1000 * sum((dur[k] - child[k] for k in ids(name)), 0.0)

        def ratio(name):
            c = calls(name)
            return self.hits.get(name, 0) / c if c else 0.0

        def p50_len(length):
            top = [dur[k] for k in ids("words.normalize")
                   if self.tags.get(k) == length and self.parent[k] >= 0
                   and self.names[self.name[self.parent[k]]] == OP]
            return 1000 * statistics.median(top) if top else 0.0

        per_rule = {rule: 0.0 for rule in RULES}
        for k in ids("relations.check_relation"):
            per_rule[self.tags[k]] = per_rule.get(self.tags[k], 0.0) + 1000 * dur[k]

        out = {
            "boxes.enclosure_mul.calls": calls("boxes.enclosure_mul"),
            "boxes.enclosure_mul.self_ms": self_ms("boxes.enclosure_mul"),
            "polynomials.range_fits.calls": calls("polynomials.range_fits"),
            "polynomials.range_fits.ms": ms("polynomials.range_fits"),
            "polynomials.range_fits.certified_ratio": ratio("polynomials.range_fits"),
            "polynomials.compose.calls": calls("polynomials.compose"),
            "polynomials.compose.self_ms": self_ms("polynomials.compose"),
            "polynomials.compose.partial_ratio": ratio("polynomials.compose"),
            "polynomials.subst.calls": calls("polynomials.subst"),
            "polynomials.subst.ms": ms("polynomials.subst"),
            "polynomials.poly_make.calls": calls("polynomials.poly_make"),
            "polynomials.apply_word.calls": calls("polynomials.apply_word"),
            "polynomials.apply_word.ms": ms("polynomials.apply_word"),
            "words.word_eq.calls": calls("words.word_eq"),
            "words.word_eq.ms": ms("words.word_eq"),
            "words.word_eq.oracle_evals": calls("words.oracle_eval"),
            "words.word_eq.unknown": self.hits.get("words.word_eq", 0),
            "words.normalize.calls": calls("words.normalize"),
            "words.normalize.ms": ms("words.normalize"),
            "words.normalize_len8.p50_ms": p50_len(8),
            "words.normalize_len16.p50_ms": p50_len(16),
            "words.normalize_len32.p50_ms": p50_len(32),
            "words.relation_step.calls": calls("words.relation_step"),
            "words.relation_step.useful_ratio": ratio("words.relation_step"),
            "terms.substitute.calls": calls("terms.substitute"),
            "terms.substitute.ms": ms("terms.substitute"),
            "evaluation.eval_term.ms": ms("evaluation.eval_term"),
            "evaluation.eval_term.self_ms": self_ms("evaluation.eval_term"),
            "evaluation.instantiate.ms": ms("evaluation.instantiate"),
            "relations.builders.ms": ms(BUILDERS),
            **{f"relations.{rule}.ms": per_rule[rule] for rule in RULES},
            "prederiv.compose_germ.calls": calls("prederiv.compose_germ"),
            "prederiv.compose_germ.ms": ms("prederiv.compose_germ"),
            "prederiv.compose_germ.shrink_steps": calls("prederiv.shrink"),
            "prederiv.vanishing_space.ms": ms("prederiv.vanishing_space"),
            "prederiv.kernel_basis.ms": ms("prederiv.kernel_basis"),
            "sphere.comb_grid.ms": ms("sphere.comb_grid"),
            "cli.main.self_ms": self_ms("cli.main"),
            "sphere.comb_core.calls": calls("sphere.comb_core"),
            "sphere.comb_core.self_ms": self_ms("sphere.comb_core"),
            "setup.import_ms": import_ms,
            "trace.ops_per_s": ops_per_s,
            "trace.overhead_ratio": overhead,
        }
        assert list(out) == [name for name, _ in PER_LAYER]
        return out

    def save(self, path: str) -> None:
        """Write every span: names, and per span its name id, parent,
        start and end (seconds)."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
