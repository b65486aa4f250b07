import random
from fractions import Fraction

import pytest

from idcalc.boxes import Box, parse_box
from idcalc.evaluation import (EvalError, eval_term, instantiate, linincl,
                               linincl_of_polyfun)
from idcalc import evaluation, relations
from idcalc.polynomials import (CompositionGuardError, Orientation, Poly, PolyFun, compose, diag,
                                parse_polyfun, tuple_, vecprod, vecsum)
from idcalc.relations import rand_polyfun
from idcalc.terms import Act, Comp, Opaque, SMOOTH, TupleT, children, classify
from idcalc.words import parse_word

F = Fraction


def smooth(text):
    return parse_polyfun(text)


def test_eval_composition():
    t = Comp(smooth("poly 1->1 on R : 1 x1^2"),
             smooth("poly 1->1 on (-1/2,1/2) : 1 x1 + 1"))
    assert eval_term(t) == parse_polyfun("poly 1->1 on (-1/2,1/2) : 1 x1^2 + 2 x1 + 1")


def test_eval_tuple_is_pairing():
    f = parse_polyfun("poly 1->1 on R : 1 x1")
    g = parse_polyfun("poly 1->1 on R : 1 x1^3")
    assert eval_term(TupleT((f, g))) == tuple_([f, g])


def test_eval_action_matches_endpoint_orientation():
    t = Act(parse_word("q1"), smooth("poly 1->1 on (0,1) : 1 x1^2"))
    direct = eval_term(t)
    via_word = eval_term(Act(parse_word("D2 I1"), smooth("poly 1->1 on (0,1) : 1 x1^2")))
    assert direct == via_word == parse_polyfun("poly 2->1 on (0,1)x(0,1) : 1 x2^2")


def test_eval_opaque_raises():
    with pytest.raises(EvalError):
        eval_term(Opaque("c", parse_box("(0,1)")))


# ---------------------------------------------------------------------------
# instantiation


def test_instantiate_noop_without_opaques():
    t = smooth("poly 1->1 on R : 1 x1")
    assert instantiate(t, {}) == t


def test_instantiate_swaps_leaf():
    c = Opaque("c", parse_box("(0,1)"))
    t = Act(parse_word("I1"), c)
    fn = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    out = instantiate(t, {"c": fn})
    assert out == Act(parse_word("I1"), fn)
    assert classify(out) == SMOOTH


def test_instantiate_shared_leaf_single_assignment():
    c = Opaque("c", parse_box("(0,1)"))
    t = Comp(c, c)
    fn = parse_polyfun("poly 1->1 on (0,1) : 1/2 x1")
    out = instantiate(t, {"c": fn})
    assert out == Comp(fn, fn)


def test_instantiate_missing_or_mismatched():
    c = Opaque("c", parse_box("(0,1)"))
    with pytest.raises(EvalError):
        instantiate(c, {})
    with pytest.raises(EvalError):
        instantiate(c, {"c": parse_polyfun("poly 1->1 on R : 1 x1")})
    with pytest.raises(EvalError):
        instantiate(c, {"c": parse_polyfun("poly 1->2 on (0,1) : 1 x1; 1 x1")})


def test_instantiate_keeps_a_shared_subterm_one_object():
    """A slot held at two addresses is instantiated once, into one object;
    a subterm with no opaque leaf stays itself."""
    c = Opaque("c", parse_box("(0,1)"))
    fn = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    x = Act(parse_word("I1"), c)
    plain = Act(parse_word("I1"), fn)
    out = instantiate(TupleT((x, Comp(smooth("poly 2->1 on RxR : 1 x1 x2"), x), plain)),
                      {"c": fn})
    assert out.items[0] is out.items[1].right
    assert out.items[0] == Act(parse_word("I1"), fn)
    assert out.items[2] is plain


def test_instantiate_refuses_missing_names_first():
    """Missing names come first, as one sorted list, even after a leaf
    whose assignment is refused; then the first refused leaf in preorder."""
    u = parse_box("(0,1)")
    a, b, z = Opaque("a", u), Opaque("b", u), Opaque("z", u)
    vector = parse_polyfun("poly 1->2 on (0,1) : 1 x1; 1 x1")
    t = TupleT((a, z, Comp(smooth("poly 1->1 on R : 1 x1"), b), z))
    with pytest.raises(EvalError, match=r"^instantiation misses \['b', 'z'\]$"):
        instantiate(t, {"a": vector})
    with pytest.raises(EvalError, match="^instantiation of 'a' must be scalar-valued$"):
        instantiate(t, {"a": vector, "b": parse_polyfun("poly 1->1 on R : 1 x1"),
                        "z": parse_polyfun("poly 1->1 on (0,1) : 1 x1")})
    with pytest.raises(EvalError,
                       match="^instantiation of 'b' has domain R, declared \\(0,1\\)$"):
        instantiate(t, {"a": parse_polyfun("poly 1->1 on (0,1) : 1 x1"),
                        "b": parse_polyfun("poly 1->1 on R : 1 x1"),
                        "z": parse_polyfun("poly 1->1 on (0,1) : 1 x1")})


def test_eval_term_reads_opaque_leaves_from_the_instantiation():
    """A memo that holds the leaf's polynomial gives the value of the
    instantiated term; with no value there, the leaf is refused."""
    u = parse_box("(0,1)")
    c = Opaque("c", u)
    x = Act(parse_word("I1"), c)
    t = TupleT((x, Comp(smooth("poly 1->1 on R : 3 x1"), x)))
    fn = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    assert eval_term(t, memo={id(c): (c, fn)}) == eval_term(instantiate(t, {"c": fn}))
    for memo in ({}, {id(Opaque("c", u)): (c, fn)}):  # an equal leaf is another node
        with pytest.raises(EvalError, match="^opaque generator 'c' cannot be evaluated; "
                                            "instantiate it first$"):
            eval_term(t, memo=memo)


def _guard_then_leaf():
    """A tuple whose first item fails its strict guard, before the fold
    reaches the opaque leaf c of the second."""
    first = Comp(smooth("poly 1->1 on (0,1) : 1 x1"), smooth("poly 1->1 on R : 2 x1"))
    return TupleT((first, Opaque("c", parse_box("(0,1)"))))


REFUSED_AFTER_AN_ERROR = [
    ("d = poly 1->1 on (0,1) : 1 x1", "instantiation misses ['c']"),
    ("c = poly 1->2 on (0,1) : 1 x1; 1 x1", "instantiation of 'c' must be scalar-valued"),
    ("c = poly 1->1 on R : 1 x1", "instantiation of 'c' has domain R, declared (0,1)"),
]


@pytest.mark.parametrize("definition, message", REFUSED_AFTER_AN_ERROR,
                         ids=["missing", "vector", "domain"])
def test_an_instantiation_refusal_comes_before_an_evaluation_error(definition, message):
    """The refusal instantiate gives, though evaluating the term would
    stop at a guard failure before it reached the refused leaf; ``idcalc
    eval --inst`` instantiates first (tests/test_cli.py)."""
    t = _guard_then_leaf()
    name, text = definition.split(" = ")
    with pytest.raises(CompositionGuardError):
        eval_term(t.items[0])
    with pytest.raises(EvalError) as err:
        instantiate(t, {name: parse_polyfun(text)})
    assert str(err.value) == message


def test_an_evaluation_error_propagates_when_the_instantiation_holds():
    """The guard failure, whether the leaf was instantiated, has its value
    in the memo, or has none: the fold stops before it reaches the leaf."""
    t = _guard_then_leaf()
    c, fn = t.items[1], parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    for term, memo in ((instantiate(t, {"c": fn}), {}), (t, {id(c): (c, fn)}), (t, {})):
        with pytest.raises(CompositionGuardError,
                           match=r"^range of inner function is not certified inside \(0,1\)$"):
            eval_term(term, memo=memo)


def test_evaluations_sharing_a_memo_evaluate_a_shared_subterm_once(monkeypatch):
    """Two terms over one subterm object x: with one memo, x's composition
    runs once; each evaluation alone runs it once too."""
    calls = [0]

    def counting(f, g, permissive=False):
        calls[0] += 1
        return compose(f, g, permissive=permissive)
    monkeypatch.setattr(evaluation, "compose", counting)
    x = Comp(smooth("poly 1->1 on R : 1 x1^2"), smooth("poly 1->1 on (0,1) : 1 x1 + 1"))
    lhs, rhs = TupleT((x, x)), Comp(smooth("poly 1->1 on R : 3 x1"), x)
    assert eval_term(lhs) == tuple_([eval_term(x)] * 2) and calls[0] == 2
    calls[0] = 0
    memo = {}
    got = eval_term(lhs, False, Orientation.UPPER, memo), eval_term(rhs, False,
                                                                    Orientation.UPPER, memo)
    assert calls[0] == 2  # x once, then 3 x1 after it
    assert got == (eval_term(lhs), eval_term(rhs))


# ---------------------------------------------------------------------------
# the linear embedding


def test_linincl_single_base_identity():
    base = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    t = linincl([([F(1)], [base])])
    assert eval_term(t, permissive=True) == base


def test_linincl_combination():
    u = parse_box("(0,1)")
    x = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    x2 = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    t = linincl([([F(2), F(3)], [x, x2])])
    assert eval_term(t, permissive=True) == \
        parse_polyfun("poly 1->1 on (0,1) : 3 x1^2 + 2 x1")


def test_linincl_rejects_zero_coefficients():
    base = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    with pytest.raises(EvalError):
        linincl([([F(0)], [base])])


def test_linincl_of_polyfun_roundtrip_random():
    rng = random.Random(13)
    for _ in range(50):
        f = rand_polyfun(rng, Box.full(rng.randint(1, 3)), rng.randint(1, 2))
        assert eval_term(linincl_of_polyfun(f), permissive=True) == f


def test_linincl_handles_zero_component():
    f = PolyFun.make(Box.full(1), [Poly.zero(1), Poly.var(1, 1)])
    assert eval_term(linincl_of_polyfun(f), permissive=True) == f


def test_eval_instantiate_commutes_with_substitute_on_disjoint_addresses():
    a = Opaque("a", parse_box("(0,1)"))
    b = Opaque("b", parse_box("(0,1)"))
    t = TupleT((a, Act(parse_word("I1"), b)))
    fa = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    fb = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    # substitute one leaf by hand, instantiate the rest
    from idcalc.terms import substitute
    partial_sub = substitute(t, {(0,): fa})
    via_substitute = eval_term(instantiate(partial_sub, {"b": fb}),
                               permissive=True)
    via_instantiate = eval_term(instantiate(t, {"a": fa, "b": fb}),
                                permissive=True)
    assert via_substitute == via_instantiate


def test_linincl_rejects_mixed_domains():
    a = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    b = parse_polyfun("poly 1->1 on R : 1 x1")
    with pytest.raises(EvalError):
        linincl([([F(1), F(1)], [a, b])])
    with pytest.raises(EvalError):
        linincl([])


# ---------------------------------------------------------------------------
# pointwise nodes: one substitution on the operands' domain against the
# general fold (tuple_ on the product box, then two compositions)


def _general_fold(node, permissive, orientation=Orientation.UPPER):
    (op, tup), d = (node.left.left, node.left.right), node.right
    items = [eval_term(t, permissive, orientation) for t in tup.items]
    return compose(compose(op, tuple_(items), permissive), d, permissive)


def _pointwise_nodes(t):
    stack = [t]
    while stack:
        node = stack.pop()
        stack.extend(children(node))
        if (isinstance(node, Comp) and isinstance(node.left, Comp)
                and isinstance(node.left.left, PolyFun) and isinstance(node.left.right, TupleT)
                and isinstance(node.right, PolyFun)):
            yield node


def _same(a, b):
    return a == b and a.is_partial == b.is_partial


@pytest.mark.parametrize("orientation", list(Orientation))
def test_pointwise_nodes_of_the_catalogue_match_the_general_fold(monkeypatch, orientation):
    """Every pointwise node the catalogue evaluates, in Poly and partial
    flag; nearly all of them are diagonal over their operands' domain."""
    terms = []
    evaluate = relations.Ctx.evaluate

    def recording(ctx, t):
        terms.append(instantiate(t, ctx.inst))
        return evaluate(ctx, t)
    monkeypatch.setattr(relations.Ctx, "evaluate", recording)
    relations.check_all(10, 7, orientation)
    fused = total = 0
    for t in terms:
        for node in _pointwise_nodes(t):
            d, items = node.right, node.left.right.items
            total += 1
            fused += diag(d.domain, len(items)) == d and all(
                eval_term(i, True, orientation).domain == d.domain for i in items)
            assert _same(eval_term(node, True, orientation),
                         _general_fold(node, True, orientation))
    assert total > 500 and fused > 0.9 * total


def test_pointwise_node_off_its_operands_domain_takes_the_general_fold():
    """Operands on (0,1) under the diagonal of R: the guard of diag into
    (0,1)^2 fails, so the sum is partial, as the general fold says."""
    x = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
    x2 = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
    node = Comp(Comp(vecsum(1, 2), TupleT((x, x2))), diag(Box.full(1), 2))
    got = eval_term(node, permissive=True)
    assert _same(got, _general_fold(node, True))
    assert got.domain == Box.full(1) and got.is_partial
    with pytest.raises(CompositionGuardError):
        eval_term(node)


def test_pointwise_node_under_a_non_diagonal_takes_the_general_fold():
    """The shape of diag(U, 2) with the picks of its first block swapped."""
    u = parse_box("(0,1)x(0,2)")
    f = parse_polyfun("poly 2->1 on (0,1)x(0,2) : 1 x1 + 1 x2^2")
    g = parse_polyfun("poly 2->1 on (0,1)x(0,2) : 1 x1 x2")
    swapped = PolyFun.make(u, [Poly.var(2, 2), Poly.var(2, 1), Poly.var(2, 1), Poly.var(2, 2)])
    node = Comp(Comp(vecprod(1, 1), TupleT((f, g))), swapped)
    got = eval_term(node, permissive=True)
    assert _same(got, _general_fold(node, True))
    assert got.is_partial  # (0,2) does not map into (0,1)
    on_diag = eval_term(Comp(node.left, diag(u, 2)), permissive=True)
    assert got.components != on_diag.components


def test_pointwise_node_strict_guard_failure_reads_the_same():
    """In strict mode both paths refuse with the message naming op's domain."""
    f = parse_polyfun("poly 1->1 on (0,1) : 2 x1^2")
    op = parse_polyfun("poly 2->1 on (0,1)x(0,1) : 1 x1 + 1 x2")
    node = Comp(Comp(op, TupleT((f, f))), diag(parse_box("(0,1)"), 2))
    messages = []
    for evaluate in (eval_term, lambda t: _general_fold(t, False)):
        with pytest.raises(CompositionGuardError) as err:
            evaluate(node)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == \
        "range of inner function is not certified inside (0,1)x(0,1)"
