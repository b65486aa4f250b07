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

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .boxes import Box, IdcalcError, product
from .polynomials import (PolyFun, RatLike, const_fun, diag, format_polyfun, parse_polyfun,
                          rat, vecprod, vecsum)
from .words import Signature, Word, parse_word, signature_effect


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


@dataclass(frozen=True)
class TupleT:
    items: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise TermError("tuples need at least one item")


@dataclass(frozen=True)
class Comp:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Act:
    word: Word
    body: "Term"


Term = Union[PolyFun, Opaque, TupleT, Comp, Act]
Occurrence = tuple[int, ...]


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


# ---------------------------------------------------------------------------
# signatures


def signature(t: Term, strict: bool = True) -> Signature:
    if isinstance(t, PolyFun):
        return Signature(t.domain, t.cod_dim)
    if isinstance(t, Opaque):
        return Signature(t.domain, 1)
    if isinstance(t, TupleT):
        sigs = [signature(x, strict) for x in t.items]
        return Signature(product([s.dom for s in sigs]), sum(s.cod_dim for s in sigs))
    if isinstance(t, Comp):
        ls = signature(t.left, strict)
        rs = signature(t.right, strict)
        if strict and rs.cod_dim != ls.dom.dim:
            raise TermError(
                f"composition dimension mismatch: inner codomain {rs.cod_dim}, "
                f"outer domain dimension {ls.dom.dim}")
        return Signature(rs.dom, ls.cod_dim)
    return signature_effect(t.word, signature(t.body, strict))


# ---------------------------------------------------------------------------
# occurrences and substitution


def subterm_at(t: Term, path: Occurrence) -> Term:
    cur = t
    for step in path:
        kids = children(cur)
        if not 0 <= step < len(kids):
            raise TermError(f"occurrence path {path} leaves the term")
        cur = kids[step]
    return cur


def _walk(t: Term) -> Iterator[tuple[Occurrence, Term]]:
    """Every subterm with its address, in preorder; an explicit stack keeps
    each step O(1) at any depth."""
    stack: list[tuple[Occurrence, Term]] = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for k in range(len(kids) - 1, -1, -1):
            stack.append((path + (k,), kids[k]))


def occurrences(t: Term, pattern: Term) -> list[Occurrence]:
    return [path for path, node in _walk(t) if node == pattern]


def substitute(t: Term, assignment: Mapping[Occurrence, Term]) -> Term:
    """Simultaneous replacement at pairwise non-overlapping addresses."""
    paths = sorted(assignment)
    for a, b in zip(paths, paths[1:]):
        if b[: len(a)] == a:
            raise TermError(f"overlapping occurrences {a} and {b}")
    for path in paths:
        subterm_at(t, path)  # validate early

    def walk(node: Term, path: Occurrence) -> Term:
        if path in assignment:
            return assignment[path]
        kids = children(node)
        if not kids:
            return node
        return _rebuild(node, [walk(kid, path + (k,)) for k, kid in enumerate(kids)])

    return walk(t, ())


def opaque_leaves(t: Term) -> list[tuple[Occurrence, Opaque]]:
    return [(path, node) for path, node in _walk(t) if isinstance(node, Opaque)]


def opaque_set(t: Term) -> set[str]:
    return {op.name for _, op in opaque_leaves(t)}


# ---------------------------------------------------------------------------
# fragment classification


SMOOTH = "Smooth"
CONTINUOUS_OK = "ContinuousOK"
ILLEGAL = "Illegal"


def classify(t: Term) -> str:
    """Smooth when opaque-free; Illegal when a word acting above an opaque
    leaf holds the derivative generator; ContinuousOK otherwise."""
    leaves = [path for path, _ in opaque_leaves(t)]
    if not leaves:
        return SMOOTH
    for path, node in _walk(t):
        if (isinstance(node, Act) and not node.word.is_integral()
                and any(leaf[:len(path)] == path for leaf in leaves)):
            return ILLEGAL
    return CONTINUOUS_OK


# ---------------------------------------------------------------------------
# right-association normal form


def _comp_chain(t: Term) -> list[Term]:
    if isinstance(t, Comp):
        return _comp_chain(t.left) + _comp_chain(t.right)
    return [t]


def max_augment(t: Term) -> Term:
    """Fully right-associate every composition chain, recursively through
    tuples and actions; leaf order is preserved and the result is the
    unique fixed point."""
    if isinstance(t, (PolyFun, Opaque)):
        return t
    if isinstance(t, TupleT):
        return TupleT(tuple(max_augment(x) for x in t.items))
    if isinstance(t, Act):
        return Act(t.word, max_augment(t.body))
    leaves = [max_augment(x) for x in _comp_chain(t)]
    out = leaves[-1]
    for x in reversed(leaves[:-1]):
        out = Comp(x, out)
    return out


def has_left_nested_comp(t: Term) -> bool:
    if isinstance(t, Comp) and isinstance(t.left, Comp):
        return True
    return any(has_left_nested_comp(kid) for kid in children(t))


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

# Most constructors the parser lets enclose a subterm: the term functions
# recurse per level, so this keeps them inside Python's recursion limit.
MAX_TERM_DEPTH = 256


def format_term(t: Term) -> str:
    if isinstance(t, Opaque):
        return t.name
    if isinstance(t, PolyFun):
        return "{" + format_polyfun(t) + "}"
    if isinstance(t, TupleT):
        return "<" + ", ".join(format_term(x) for x in t.items) + ">"
    if isinstance(t, Comp):
        return f"({format_term(t.left)} . {format_term(t.right)})"
    return f"[{t.word}] {format_term(t.body)}"


class _Parser:
    def __init__(self, text: str, env: Mapping[str, Box]):
        self.text = text
        self.pos = 0
        self.env = env

    def error(self, msg: str) -> TermError:
        return TermError(f"{msg} at offset {self.pos} in term text")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_term(self, depth: int = 0) -> Term:
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"term nests deeper than MAX_TERM_DEPTH = {MAX_TERM_DEPTH}")
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            left = self.parse_term(depth + 1)
            self.expect(".")
            right = self.parse_term(depth + 1)
            self.expect(")")
            return Comp(left, right)
        if ch == "<":
            self.pos += 1
            items = [self.parse_term(depth + 1)]
            while self.peek() == ",":
                self.pos += 1
                items.append(self.parse_term(depth + 1))
            self.expect(">")
            return TupleT(tuple(items))
        if ch == "[":
            self.pos += 1
            end = self.text.find("]", self.pos)
            if end < 0:
                raise self.error("unterminated word action")
            word = parse_word(self.text[self.pos:end])
            self.pos = end + 1
            return Act(word, self.parse_term(depth + 1))
        if ch == "{":
            self.pos += 1
            end = self.text.find("}", self.pos)
            if end < 0:
                raise self.error("unterminated inline polynomial")
            fn = parse_polyfun(self.text[self.pos:end])
            self.pos = end + 1
            return fn
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            raise self.error("expected a term")
        if name not in self.env:
            raise TermError(f"opaque generator {name!r} is not declared")
        return Opaque(name, self.env[name])


def parse_term(text: str, env: Optional[Mapping[str, Box]] = None) -> Term:
    parser = _Parser(text, env or {})
    t = parser.parse_term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after term")
    return t
