"""The argument checks of the public functions: each refuses a bad call
from library code with its own error class and message.  The CLI cannot
reach most of them, so only this table runs them."""

import operator
import re

import pytest

from idcalc.boxes import Box, BoxError, domint, parse_box
from idcalc.evaluation import EvalError, linincl, linincl_of_polyfun
from idcalc.polynomials import (CompositionGuardError, DomainMismatchError, Poly,
                                PolyError, PolyFun, compose, coord, diag, parse_polyfun, partial,
                                proj_block, proje, sectn, smint, switch, vecsum, vprod, vsum)
from idcalc.prederiv import (PreDeriv, PreDerivError, apply, canonical_direction,
                             chart_differential, compose_germ, identity_core,
                             nontriviality_witness, pre_diff)
from idcalc.terms import Act, TermError, TupleT, substitute
from idcalc.words import WordError, parse_word, relation_step
from oracles import relation_holds_on

X1 = Poly.var(1, 1)
Y1 = Poly.var(2, 1)
F1 = parse_polyfun("poly 1->1 on R : 1 x1")
F2 = parse_polyfun("poly 1->2 on R : 1 x1; 1 x1^2")
UNIT = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
CORE = identity_core(1)


@pytest.mark.parametrize("call, args, error, message", [
    # boxes
    (Box.full(1).intersect, (Box.full(2),), BoxError, "dimension mismatch in intersection"),
    (Box.full(1).translate, ((1, 2),), BoxError, "translation vector length mismatch"),
    (domint, (Box.full(1), 0), BoxError, "domint index must be >= 1"),
    (parse_box, ("(0,1,2)",), BoxError, "bad interval syntax: '(0,1,2)' at offset 0 in box text"),
    # polynomials
    (Poly.make, (1, {(1, 2): 1}), PolyError, "exponent tuple (1, 2) in arity-1 polynomial"),
    (Poly.make, (1, {(-1,): 1}), PolyError, "negative exponent in (-1,)"),
    (Poly.var, (1, 2), PolyError, "variable index 2 out of range for arity 1"),
    (X1.add, (Y1,), PolyError, "arity mismatch in +"),
    (X1.mul, (Y1,), PolyError, "arity mismatch in *"),
    (X1.eval, ((1, 2),), PolyError, "evaluation point length mismatch"),
    (X1.remap, (2, [1, 2]), PolyError, "remap length mismatch"),
    (X1.subst, ([],), PolyError, "substitution needs one polynomial per variable"),
    (Y1.subst, ([X1, Y1],), PolyError, "substitution arguments disagree on arity"),
    (PolyFun, (Box.full(1), (Y1,)), PolyError,
     "component arity differs from domain dimension"),
    (F1.restrict, (Box.full(2),), DomainMismatchError, "restriction changes dimension"),
    (compose, (F1, F2), PolyError, "composition dimension mismatch: 2 -> 1"),
    (vsum, (F1, UNIT), DomainMismatchError, "vsum needs equal domains"),
    (vsum, (F1, F2), DomainMismatchError, "vsum needs equal codomain dimensions"),
    (vprod, (F1, UNIT), DomainMismatchError, "vprod needs equal domains"),
    (diag, (Box.full(1), 0), PolyError, "diagonal needs k >= 1"),
    (proj_block, ([Box.full(1)], 2), PolyError, "block index out of range"),
    (coord, (2, 3), PolyError, "variable index 3 out of range for arity 2"),
    (proje, (2, 4), PolyError, "proje index out of range"),
    (sectn, (2, 3), PolyError, "sectn index out of range"),
    (switch, ([Box.full(1)] * 2, [1, 1]), PolyError, "not a permutation"),
    (vecsum, (2, 0), PolyError, "vecsum needs k >= 1"),
    (partial, (F1, 0), PolyError, "partial index must be >= 1"),
    (smint, (F1, 0), PolyError, "smint index must be >= 1"),
    # evaluation
    (linincl, ([([1, 2], [F1])],), EvalError,
     "each component needs matching, nonempty coefficient and base lists"),
    (linincl, ([([1], [F2])],), EvalError, "base functions must be scalar-valued"),
    (linincl_of_polyfun, (PolyFun.zero(Box.full(1), 0),), EvalError,
     "the 0-dimensional codomain has no scalar components"),
    # terms
    (TupleT, ((),), TermError, "tuples need at least one item"),
    (substitute, (Act(parse_word("D1"), F1), {(0, 0): F1}), TermError,
     "occurrence path (0, 0) leaves the term"),
    # words
    (relation_step, (parse_word("I1"), 0, "nosuch", "forward"), WordError,
     "unknown relation 'nosuch'"),
    (relation_holds_on, ("intint", 1, None, F1), WordError, "intint needs j"),
    (relation_holds_on, ("intint", 2, 1, F1), WordError,
     "side condition fails for intint with i=2, j=1"),
    # prederiv
    (PreDeriv, (2, ((CORE, (1,)),)), PreDerivError,
     "summands disagree on the target dimension"),
    (operator.add, (PreDeriv(1), PreDeriv(2)), PreDerivError,
     "target dimensions differ"),
    (compose_germ, (F1, F2), PreDerivError, "composition dimension mismatch: 2 -> 1"),
    # no box around 0 maps into (1,2), however small
    (compose_germ, (parse_polyfun("poly 1->1 on (1,2) : 1 x1"), CORE.fn),
     CompositionGuardError, "no neighbourhood of 0 certified the composition"),
    (pre_diff, (parse_polyfun("poly 2->1 on RxR : 1 x1"), PreDeriv.of(CORE, (1,))),
     PreDerivError, "function arity differs from the target dimension"),
    (canonical_direction, (CORE, (1, 2)), PreDerivError,
     "direction length differs from the core arity"),
    (nontriviality_witness, (2, 1, (1,)), PreDerivError, "direction length must be l"),
    (chart_differential, (F1, PreDeriv.of(CORE, (1,)), (0, 0)), PreDerivError,
     "base point dimension differs from the transition arity"),
    # a literal parsed on its own locates a bad factor in its own text
    (parse_polyfun, ("  poly 1->2 on R : 1 x1 ;\t2 x1 x ",), PolyError,
     "bad monomial factor 'x' at offset 31 in polynomial text"),
    # rows added later go last, so that the ids above keep their numbers
    (Poly.var(2, 2).partial, (0,), PolyError, "partial index must be >= 1"),
    (X1.antideriv, (0,), PolyError, "antideriv index 0 out of range for arity 1"),
    (Y1.antideriv, (3,), PolyError, "antideriv index 3 out of range for arity 2"),
    # the germ of z at 0 needs 0 in z's domain
    (compose_germ, (parse_polyfun("poly 1->1 on (0,1) : 1 x1"),
                    parse_polyfun("poly 1->1 on (1,2) : 1 x1")),
     PreDerivError, "inner domain must contain 0"),
    (apply, (PreDeriv.of(CORE, (1,)), parse_polyfun("poly 1->1 on (1,2) : 1 x1")),
     PreDerivError, "function domain must contain 0"),
    # an end exactly at 0, and a guard that fails on the core's own box
    (compose_germ, (parse_polyfun("poly 1->1 on (1,2) : 1 x1"), UNIT),
     PreDerivError, "inner domain must contain 0"),
])
def test_argument_check(call, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args)

