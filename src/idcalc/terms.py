"""The free expression-tree language over base functions.

A term is one of: a leaf, which is the base function itself (a
``PolyFun``, or an ``Opaque`` named scalar generator), an n-ary cartesian
tuple, a binary composition, or the action of an operator word.  The
module provides signature inference, occurrence addressing and
simultaneous substitution, the smooth/continuous fragment classification,
the unique fully right-associated normal form, and the derived
sum/product/scalar constructors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, TypeVar, Union

from .boxes import Box, Cursor, IdcalcError, product
from .polynomials import (PolyFun, RatLike, const_fun, diag, format_polyfun, rat, read_polyfun,
                          vecprod, vecsum)
from .words import Signature, Word, read_word, signature_effect


class TermError(IdcalcError):
    pass


# ---------------------------------------------------------------------------
# term nodes; a leaf is a PolyFun or an Opaque value


@dataclass(frozen=True)
class Opaque:
    """A named continuous scalar generator; evaluable only after
    instantiation by a concrete polynomial."""

    name: str
    domain: Box


class _Node:
    """Equality and hashing of the inner nodes, on explicit stacks: two
    terms are equal when their shapes, words and leaves are, at any depth."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            ka, kb = children(a), children(b)
            if (type(a) is not type(b) or len(ka) != len(kb) or (not ka and a != b)
                    or (isinstance(a, Act) and a.word != b.word)):
                return False
            stack.extend(zip(ka, kb))
        return True

    def __hash__(self) -> int:
        return _fold(self, lambda node, hs: hash((type(node), getattr(node, "word", None), *hs))
                     if hs else hash(node), children, {})


@dataclass(frozen=True, eq=False)
class TupleT(_Node):
    items: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise TermError("tuples need at least one item")


@dataclass(frozen=True, eq=False)
class Comp(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Act(_Node):
    word: Word
    body: "Term"


Term = Union[PolyFun, Opaque, TupleT, Comp, Act]
Occurrence = tuple[int, ...]
V = TypeVar("V")


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, TupleT):
        return t.items
    if isinstance(t, Comp):
        return (t.left, t.right)
    if isinstance(t, Act):
        return (t.body,)
    return ()


def _rebuild(t: Term, kids: Sequence[Term]) -> Term:
    if isinstance(t, TupleT):
        return TupleT(tuple(kids))
    if isinstance(t, Comp):
        return Comp(kids[0], kids[1])
    if isinstance(t, Act):
        return Act(t.word, kids[0])
    return t


def _fold(t: Term, visit: Callable[[Term, list[V]], V],
          expand: Callable[[Term], Sequence[Term]] = children,
          memo: Optional[dict[int, tuple[Term, V]]] = None) -> V:
    """``visit(node, values of its children)`` bottom-up, left to right over
    the children ``expand`` gives; an explicit stack allows any depth.

    Given a memo, the fold runs over the term's DAG: a node object held at
    several addresses is visited once, and its value is kept in ``memo`` by
    ``id``.  Each entry holds its node, so no id is reused while the memo
    lives (``max_augment``'s ``expand`` makes temporary nodes).  Terms are
    immutable, so folds with the same visit may share one memo."""
    root: list[V] = []
    stack: list[tuple[Term, list[V], Optional[list[V]]]] = [(t, root, None)]
    while stack:
        node, dest, vals = stack.pop()
        if vals is None:
            if memo is not None and id(node) in memo:
                dest.append(memo[id(node)][1])
                continue
            vals = []
            stack.append((node, dest, vals))
            stack.extend((kid, vals, None) for kid in reversed(expand(node)))
        else:
            value = visit(node, vals)
            if memo is not None:
                memo[id(node)] = node, value
            dest.append(value)
    return root[0]


# ---------------------------------------------------------------------------
# signatures


def signature(t: Term) -> Signature:
    def visit(node: Term, sigs: list[Signature]) -> Signature:
        if isinstance(node, PolyFun):
            return Signature(node.domain, node.cod_dim)
        if isinstance(node, Opaque):
            return Signature(node.domain, 1)
        if isinstance(node, TupleT):
            return Signature(product([s.dom for s in sigs]), sum(s.cod_dim for s in sigs))
        if isinstance(node, Comp):
            ls, rs = sigs
            if rs.cod_dim != ls.dom.dim:
                raise TermError(f"composition dimension mismatch: inner codomain "
                                f"{rs.cod_dim}, outer domain dimension {ls.dom.dim}")
            return Signature(rs.dom, ls.cod_dim)
        return signature_effect(node.word, sigs[0])
    return visit(t, []) if isinstance(t, (PolyFun, Opaque)) else _fold(t, visit, children, {})


# ---------------------------------------------------------------------------
# occurrences and substitution


_Chain = Optional[tuple[int, "_Chain"]]  # an address as (last step, parent chain)


def occurrences(t: Term, pattern: Term) -> list[Occurrence]:
    """The addresses of the subterms equal to ``pattern``, in preorder.  The
    walk carries each address as a chain that shares its parent's, so a step
    costs O(1) at any depth and only the addresses kept become tuples."""
    found = []
    stack: list[tuple[_Chain, Term]] = [(None, t)]
    while stack:
        chain, node = stack.pop()
        if node == pattern:
            steps, link = [], chain
            while link is not None:
                step, link = link
                steps.append(step)
            found.append(tuple(reversed(steps)))
        kids = children(node)
        for k in range(len(kids) - 1, -1, -1):
            stack.append(((k, chain), kids[k]))
    return found


def substitute(t: Term, assignment: Mapping[Occurrence, Term]) -> Term:
    """Simultaneous replacement at non-overlapping addresses; rebuilds only their spines."""
    paths = sorted(assignment)
    for a, b in zip(paths, paths[1:]):
        if b[: len(a)] == a:
            raise TermError(f"overlapping occurrences {a} and {b}")
    for path in paths:
        spine = [t]
        for step in path:
            kids = children(spine[-1])
            if not 0 <= step < len(kids):
                raise TermError(f"occurrence path {path} leaves the term")
            spine.append(kids[step])
        t = assignment[path]
        for node, step in zip(reversed(spine[:-1]), reversed(path)):
            t = _rebuild(node, children(node)[:step] + (t,) + children(node)[step + 1:])
    return t


# ---------------------------------------------------------------------------
# fragment classification


SMOOTH = "Smooth"
CONTINUOUS_OK = "ContinuousOK"
ILLEGAL = "Illegal"
_SEVERITY = (SMOOTH, CONTINUOUS_OK, ILLEGAL)


def classify(t: Term) -> str:
    """Smooth when opaque-free; Illegal when a word acting above an opaque
    leaf holds the derivative generator; ContinuousOK otherwise."""
    def visit(node: Term, kids: list[str]) -> str:
        worst = max(kids, key=_SEVERITY.index,
                    default=CONTINUOUS_OK if isinstance(node, Opaque) else SMOOTH)
        if worst == CONTINUOUS_OK and isinstance(node, Act) and not node.word.is_integral():
            return ILLEGAL
        return worst
    return _fold(t, visit, children, {})


# ---------------------------------------------------------------------------
# right-association normal form


def _right_children(t: Term) -> tuple[Term, ...]:
    """The children of ``t`` once ((a . b) . c) -> (a . (b . c)) leaves no left
    composition; a rotation moves one off a left spine for good: linear work."""
    while isinstance(t, Comp) and isinstance(t.left, Comp):
        t = Comp(t.left.left, Comp(t.left.right, t.right))
    return children(t)


def max_augment(t: Term) -> Term:
    """Fully right-associate every composition chain, recursively through
    tuples and actions; leaf order is preserved and the result is the
    unique fixed point."""
    return _fold(t, _rebuild, _right_children, {})


def has_left_nested_comp(t: Term) -> bool:
    return _fold(t, lambda node, kids: any(kids) or (
        isinstance(node, Comp) and isinstance(node.left, Comp)), children, {})


# ---------------------------------------------------------------------------
# derived pointwise constructors


def _pointwise(ts: Sequence[Term], op: Callable[[list[int]], PolyFun]) -> Term:
    """(op . <t1, ..., tk>) . diag, where op is built from the operands'
    codomain dimensions; the operands must share one domain."""
    sigs = [signature(t) for t in ts]
    dom = sigs[0].dom
    if any(s.dom != dom for s in sigs):
        raise TermError("operands live on different domains")
    return Comp(Comp(op([s.cod_dim for s in sigs]), TupleT(tuple(ts))),
                diag(dom, len(ts)))


def _vecsum_of(ns: list[int]) -> PolyFun:
    if any(n != ns[0] for n in ns):
        raise TermError("sum needs equal codomain dimensions")
    return vecsum(ns[0], len(ns))


def sum_t(*ts: Term) -> Term:
    """Pointwise sum of one or more terms."""
    if not ts:
        raise TermError("sum needs at least one term")
    return _pointwise(ts, _vecsum_of)


def mult_t(t1: Term, t2: Term) -> Term:
    """Pointwise outer product, flattened row-major."""
    return _pointwise((t1, t2), lambda ns: vecprod(*ns))


def scal_t(a: RatLike, t: Term) -> Term:
    """Scalar multiple via a constant first factor."""
    return mult_t(const_fun(signature(t).dom, [rat(a)]), t)


# ---------------------------------------------------------------------------
# text form
#
#   term := base | "(" term "." term ")" | "<" term { "," term } ">"
#         | "[" word "]" term
#   base := identifier (opaque, declared in the environment)
#         | "{" polyfun literal "}"

# Most constructors the parser lets enclose a subterm, which keeps the parser inside
# the recursion limit; every other term function, equality and hashing included,
# runs on an explicit stack.
MAX_TERM_DEPTH = 256


def format_term(t: Term) -> str:
    def visit(node: Term, texts: list[str]) -> str:
        if isinstance(node, Opaque):
            return node.name
        if isinstance(node, PolyFun):
            return "{" + format_polyfun(node) + "}"
        if isinstance(node, TupleT):
            return "<" + ", ".join(texts) + ">"
        if isinstance(node, Comp):
            return f"({texts[0]} . {texts[1]})"
        return f"[{node.word}] {texts[0]}"
    return _fold(t, visit)


_NAME = re.compile(r"\w+")


def _read_term(cur: Cursor, env: Mapping[str, Box], depth: int) -> Term:
    if depth > MAX_TERM_DEPTH:
        raise cur.fail(f"term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}", cur.pos)
    if cur.eat("("):
        left = _read_term(cur, env, depth + 1)
        cur.expect(".", "expected '.'")
        right = _read_term(cur, env, depth + 1)
        cur.expect(")", "expected ')'")
        return Comp(left, right)
    if cur.eat("<"):
        items = [_read_term(cur, env, depth + 1)]
        while cur.eat(","):
            items.append(_read_term(cur, env, depth + 1))
        cur.expect(">", "expected '>'")
        return TupleT(tuple(items))
    if cur.eat("["):
        word = read_word(cur)
        cur.expect("]", "unterminated word action")
        return Act(word, _read_term(cur, env, depth + 1))
    if cur.eat("{"):
        fn = read_polyfun(cur)
        cur.expect("}", "unterminated inline polynomial")
        return fn
    name = cur.take(_NAME)
    if name is None:
        raise cur.fail("expected a term", cur.pos)
    if name[0] not in env:
        raise cur.fail(f"opaque generator {name[0]!r} is not declared", name.start())
    return Opaque(name[0], env[name[0]])


def parse_term(text: str, env: Optional[Mapping[str, Box]] = None) -> Term:
    return Cursor(text, "term text", TermError).whole(
        lambda cur: _read_term(cur, env or {}, 0), "trailing input after term")
