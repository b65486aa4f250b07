# The term language: composition trees, opaque generators, evaluation
# --------------------------------------------------------------------
# Terms are expression trees over base functions, closed under pairing,
# composition, and operator-word actions.  Opaque generators stand for
# continuous scalar functions with no known smooth structure; they are
# evaluable only after instantiation.

from fractions import Fraction as F

from idcalc import (Act, Comp, Opaque, TupleT, classify,
                    eval_term, format_polyfun, format_term, instantiate,
                    linincl, max_augment, parse_box, parse_polyfun, parse_term,
                    parse_word, signature)

env = {"c": parse_box("(0,1)")}
t = parse_term("[I1] c", env)
print("term:      ", format_term(t))
print("signature: ", signature(t).dom, "->", f"R^{signature(t).cod_dim}")
print("fragment:  ", classify(t))

# A derivative above an opaque leaf leaves the continuous fragment.
bad = parse_term("[D1] c", env)
print("derivative on an opaque leaf:", classify(bad))

# Instantiation turns the opaque generator into a concrete polynomial;
# afterwards the whole term is smooth and evaluates exactly.
fn = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
print("\nafter instantiation:",
      format_polyfun(eval_term(instantiate(t, {"c": fn}))))

# Right-association is the unique normal form of composition chains.
a = parse_polyfun("poly 1->1 on R : 1 x1")
b = parse_polyfun("poly 1->1 on R : 2 x1")
c = parse_polyfun("poly 1->1 on R : 3 x1")
chain = Comp(Comp(a, b), c)
print("\nleft-nested:      ", format_term(chain))
print("right-associated: ", format_term(max_augment(chain)))
print("same evaluation:  ",
      eval_term(chain, permissive=True) == eval_term(max_augment(chain),
                                                     permissive=True))

# The linear embedding turns coefficients-over-bases into a term whose
# evaluation reproduces the combination exactly.
base_x = parse_polyfun("poly 1->1 on (0,1) : 1 x1")
base_x2 = parse_polyfun("poly 1->1 on (0,1) : 1 x1^2")
combo = linincl([([F(2), F(3)], [base_x, base_x2])])
print("\n2x + 3x^2 via the embedding:",
      format_polyfun(eval_term(combo, permissive=True)))
