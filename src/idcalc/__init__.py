"""idcalc: an exact symbolic kernel for integro-differential operator
calculus on polynomial functions over boxes.

Layers, bottom up: boxes (exact interval domains), polynomials (the exact
CAS fragment with the operator-generator actions), words (the operator
monoid and its word problem), terms (the free expression language),
evaluation (terms to polynomial functions, instantiation, the linear
embedding), relations (the machine-checked relation catalogue), prederiv
(tangent-vector representatives at a fibre), sphere (the floating-point
sphere-combing demo), cli (the command line).
"""

from .boxes import Box, Enclosure, Ray1, domint, parse_box, product
from .polynomials import (Orientation, Poly, PolyFun, apply_gen, apply_word,
                          compose, const_fun, coord, diag, eval_at,
                          format_polyfun, incl, parse_polyfun, partial,
                          proj_block, proje, range_bound, sectn, smint, switch,
                          trasl, tuple_, vecminus, vecprod, vecsum, vneg,
                          vprod, vsum)
from .words import (D, Equal, Gen, GenKind, I, NotEqual, Q, Signature, Unknown,
                    Word, normalize, p, parse_word, q, relation_step,
                    signature_effect, word_eq)
from .terms import (Act, Comp, Opaque, Term, TupleT, classify,
                    format_term, max_augment, mult_t, occurrences, parse_term,
                    scal_t, signature, substitute, sum_t)
from .evaluation import eval_term, instantiate, linincl, linincl_of_polyfun
from .relations import RelationReport, check_all, check_relation
from .prederiv import (GermCore, PreDeriv, apply, canonical_direction,
                       chain_check, eval_smooth, format_prederiv,
                       nontriviality_witness, parse_prederiv, pre_diff,
                       smooth_kernel_test, vanishing_space)

__version__ = "0.1.0"
