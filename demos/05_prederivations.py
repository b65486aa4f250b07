# Pre-derivations: tangent-vector representatives at a fibre
# -----------------------------------------------------------
# A pre-derivation D[z, u] pairs a pointed polynomial core z with a
# direction u, and acts on scalar functions by w -> sum_l u_l d_l(w o z).
# Smooth evaluation projects it to the classical tangent vector
# Jac(z, 0) u; the vanishing space of the core measures how far the
# representative is from being determined by that projection.

from fractions import Fraction as F

from idcalc import (GermCore, PreDeriv, apply, canonical_direction, chain_check,
                    eval_smooth, format_polyfun, nontriviality_witness,
                    parse_polyfun, smooth_kernel_test, vanishing_space)
from idcalc.prederiv import identity_core

# the curve t -> (t, t^2) with unit speed
z = GermCore(parse_polyfun("poly 1->2 on (-1,1) : 1 x1; 1 x1^2"))
dv = PreDeriv.of(z, [F(1)])
w = parse_polyfun("poly 2->1 on RxR : 1 x1 + 1 x2")
print("apply D[(t,t^2), 1] to x+y:",
      [format_polyfun(g) for g in apply(dv, w)])
print("classical projection:", eval_smooth(dv))
print("chain rule holds:", chain_check(w, dv))

# directions the core cannot see
flat = GermCore(parse_polyfun("poly 2->2 on (-1,1)x(-1,1) : 1 x1; 0"))
print("\nvanishing space of (x1, 0):", vanishing_space(flat))
print("canonical direction of (1,1):", canonical_direction(flat, [1, 1]))

# the identity core splits the smooth evaluation exactly
section = PreDeriv.of(identity_core(3), [F(2), F(-1), F(7, 2)])
print("\nsection round-trip:", eval_smooth(section))
difference = section + PreDeriv.of(identity_core(3), [-F(2), F(1), -F(7, 2)])
print("kernel membership of the difference:", smooth_kernel_test(difference))
# its two summands share the source R^3, so apply sums them into one germ
cubic = parse_polyfun("poly 3->1 on RxRxR : 1 x1 x2 + 2 x3^2 + 1 x1")
print("difference applied to x1 x2 + 2 x3^2 + x1:",
      [format_polyfun(g) for g in apply(difference, cubic)])

# the witness that the construction is not trivial: an iterated integral
# with an exact product closed form
print("\nnontriviality witness (l=2):",
      format_polyfun(nontriviality_witness(2, 1, [F(1), F(0)])))
