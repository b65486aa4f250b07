# Exact boxes and polynomial functions
# ------------------------------------
# Everything in the kernel lives on open boxes with rational endpoints
# and is computed exactly over Fractions.  This walk-through builds a few
# boxes, shows the domain-extension operator used by integration, and
# runs the basic polynomial calculus.

from fractions import Fraction as F

from idcalc import (Box, domint, parse_box, parse_polyfun, format_polyfun,
                    eval_at, partial, smint, compose, tuple_, vprod, range_bound, sectn)

unit = parse_box("(0,1)")
plane = parse_box("RxR")
print("a unit interval:", unit)
print("the plane:      ", plane)
print("the point space:", Box.point())

# domint duplicates the slot an integral will consume; beyond the
# dimension it pads with fresh unconstrained variables.
print("\ndomint sends", unit, "at slot 1 to", domint(unit, 1))
print("domint sends", unit, "at slot 3 to", domint(unit, 3))

# A polynomial function is a vector of exact polynomials on a box.
f = parse_polyfun("poly 1->1 on (0,2) : 1 x1^2")
print("\nf =", format_polyfun(f))
print("f(3/2) =", eval_at(f, [F(3, 2)]))

# The definite integral from x1 to x2 is computed by exact
# antiderivative; the domain picks up the new endpoint pair.
g = parse_polyfun("poly 1->1 on R : 1 x1^2")
print("\nintegral of x^2:", format_polyfun(smint(g, 1)))
print("derivative back:", format_polyfun(partial(smint(g, 1), 2)))

# Composition is exact substitution, guarded on its range: an affine
# inner component is checked exactly (an open interval fits in an equal
# one), and one of degree >= 2 by a closed enclosure (interval
# arithmetic, monomial by monomial), as range_bound shows.
inner = parse_polyfun("poly 1->1 on (-1/2,1/2) : 1 x1 + 1")
outer = parse_polyfun("poly 1->1 on (0,2) : 1 x1^2")
print("\nrange of x+1 on (-1/2,1/2):", str(range_bound(inner)[0]))
print("(x+1)^2 =", format_polyfun(compose(outer, inner)))

# Pairing reads each block from its own variables; the outer product
# flattens row-major.
a = parse_polyfun("poly 1->1 on R : 1 x1")
b = parse_polyfun("poly 1->1 on R : 1 x1^3")
print("\npairing:", format_polyfun(tuple_([a, b])))
pair = parse_polyfun("poly 1->2 on R : 1 x1; 2")
print("outer product:", format_polyfun(vprod(pair, pair)))

# A section undoes domint's duplication: sectn(m, i) zeroes slot i and
# drops the pair of slots i, i+1, here (x1, x2, x3) -> (0, x3).
print("\nsection of R^3 at slot 1:", format_polyfun(sectn(2, 1)))
