"""Evaluation of terms into exact polynomial functions.

Smooth terms evaluate directly; continuous terms evaluate once their
opaque generators have values: ``instantiate`` replaces each by a concrete
scalar polynomial and states the refusals, or a memo already holds the
leaf's value.  Evaluation is a fold over the term's DAG (``terms._fold``
with a memo): a subterm object held at several addresses is evaluated
once, and evaluations that share a memo share those values, which is how
the relation catalogue evaluates a trial's two sides.  Evaluations may
share a memo only when they pass the same ``permissive`` and
``orientation``.  The module also provides the linear-combination
embedding that turns a coefficient/base description of a function into a
term whose evaluation reproduces it exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .boxes import Box, IdcalcError
from .polynomials import (Orientation, Poly, PolyFun, RatLike, _linear_form, apply_word,
                          compose, diag, rat, tuple_)
from .terms import Comp, Opaque, Term, TupleT, _fold, _pointwise, _rebuild, children


class EvalError(IdcalcError):
    pass


Instantiation = Mapping[str, PolyFun]


def _is_diag(d: PolyFun, k: int) -> bool:
    """Whether d is exactly diag(d.domain, k); ``diag`` shares its
    components, so a diagonal leaf compares item by identity."""
    return d.components == diag(d.domain, k).components


def eval_term(t: Term, permissive: bool = False,
              orientation: Orientation = Orientation.UPPER,
              memo: Optional[dict] = None) -> PolyFun:
    """Evaluate a term.  An opaque leaf cannot be evaluated: instantiate the
    term first.

    A subterm object held at several addresses is evaluated once (``_fold``
    runs over the term's DAG).  Evaluations that pass one ``memo`` share
    those values too; they must pass the same ``permissive`` and
    ``orientation``, since the memo is keyed by the nodes of the terms as
    given.  The memo's layout is ``_fold``'s, ``id(node) -> (node, value)``,
    and it may hold an opaque leaf's value, which the fold then reads
    instead of visiting the leaf.

    A pointwise node (op . <t1, ..., tk>) . diag(U, k), with op and the
    diagonal leaves, evaluates in one substitution on its operands' shared
    domain: op after their components side by side on U.  The general fold
    (``tuple_`` on U^k, then two compositions) gives the same polynomial,
    partial flag and guard verdict, and it stays the path for every other
    node, a pointwise one whose operands do not all live on U included."""
    pointwise: dict[int, tuple[PolyFun, PolyFun]] = {}  # id of a pointwise node -> (op, diag)

    def expand(node: Term) -> tuple[Term, ...]:
        if (isinstance(node, Comp) and isinstance(node.left, Comp)
                and isinstance(node.left.left, PolyFun) and isinstance(node.left.right, TupleT)
                and isinstance(node.right, PolyFun)
                and _is_diag(node.right, len(node.left.right.items))):
            pointwise[id(node)] = node.left.left, node.right
            return node.left.right.items
        return children(node)

    def visit(node: Term, fns: list[PolyFun]) -> PolyFun:
        if isinstance(node, PolyFun):
            return node
        if isinstance(node, Opaque):
            raise EvalError(f"opaque generator {node.name!r} cannot be evaluated; "
                            "instantiate it first")
        if isinstance(node, TupleT):
            return tuple_(fns)
        if isinstance(node, Comp):
            shape = pointwise.get(id(node))
            if shape is None:
                return compose(fns[0], fns[1], permissive=permissive)
            op, d = shape
            if any(f.domain != d.domain for f in fns):
                return compose(compose(op, tuple_(fns), permissive=permissive), d,
                               permissive=permissive)
            pair = PolyFun(d.domain, tuple(p for f in fns for p in f.components),
                           d.is_partial or any(f.is_partial for f in fns))
            return compose(op, pair, permissive=permissive)
        return apply_word(node.word, fns[0], orientation)
    return _fold(t, visit, expand, {} if memo is None else memo)


def instantiate(t: Term, assignment: Instantiation) -> Term:
    """Replace every opaque leaf by the assigned scalar polynomial.  One
    fold over the term's DAG: a subterm object held at several addresses
    stays one object, and a subterm with no opaque leaf stays itself.  Names
    missing from the assignment are refused first, as one sorted list; then
    the first leaf, in preorder, whose assignment is not scalar-valued or
    lives on another domain."""
    missing: set[str] = set()
    refusals: list[str] = []

    def visit(node: Term, kids: list[Term]) -> Term:
        if isinstance(node, Opaque):
            fn = assignment.get(node.name)
            if fn is None:
                missing.add(node.name)
            elif fn.cod_dim != 1:
                refusals.append(f"instantiation of {node.name!r} must be scalar-valued")
            elif fn.domain != node.domain:
                refusals.append(f"instantiation of {node.name!r} has domain {fn.domain}, "
                                f"declared {node.domain}")
            else:
                return fn
            return node
        if all(new is old for new, old in zip(kids, children(node))):
            return node
        return _rebuild(node, kids)
    out = _fold(t, visit, children, {})
    if missing:
        raise EvalError(f"instantiation misses {sorted(missing)}")
    if refusals:
        raise EvalError(refusals[0])
    return out


# ---------------------------------------------------------------------------
# the linear-combination embedding


Combo = tuple[Sequence[RatLike], Sequence[PolyFun | Opaque]]  # (coefficients, bases)


def linincl(combos: Sequence[Combo]) -> Term:
    """Build the pointwise term (g . <bases>) . diag from per-component
    coefficient lists over base functions sharing one domain, g linear;
    evaluating the term reproduces the linear combinations exactly."""
    if not combos:
        raise EvalError("at least one output component is required")
    domain: Optional[Box] = None
    flat_bases: list[Term] = []
    coeff_maps: list[dict[int, Fraction]] = []
    for coeffs, bases in combos:
        if not coeffs or len(coeffs) != len(bases):
            raise EvalError("each component needs matching, nonempty "
                            "coefficient and base lists")
        cs = [rat(c) for c in coeffs]
        if any(c == 0 for c in cs):
            raise EvalError("zero coefficients are not allowed")
        for b in bases:
            if isinstance(b, PolyFun) and b.cod_dim != 1:
                raise EvalError("base functions must be scalar-valued")
            if domain is None:
                domain = b.domain
            elif domain != b.domain:
                raise EvalError("base functions must share one domain")
        coeff_maps.append(dict(enumerate(cs, len(flat_bases) + 1)))
        flat_bases.extend(bases)
    total = len(flat_bases)
    g = PolyFun.make(Box.full(total), [_linear_form(total, cm) for cm in coeff_maps])
    return _pointwise(flat_bases, lambda ns: g)


def linincl_of_polyfun(f: PolyFun) -> Term:
    """Embed a concrete polynomial function through its monomial bases."""
    if f.cod_dim == 0:
        raise EvalError("the 0-dimensional codomain has no scalar components")
    m = f.arity
    combos: list[Combo] = []
    for p in f.components:
        if p.is_zero:
            combos.append(([Fraction(1)],
                           [PolyFun.make(f.domain, [Poly.zero(m)])]))
            continue
        coeffs = [c for _, c in p.terms]
        bases = [PolyFun.make(f.domain, [Poly.make(m, {k: 1})])
                 for k, _ in p.terms]
        combos.append((coeffs, bases))
    return linincl(combos)
