"""The readers of the five text forms: boxes, polynomial functions, words,
terms and pre-derivations.

Each form has one reader over a shared ``boxes.Cursor``.  A value printed
in its text form reads back as itself, and any text either reads or is
refused with the error class of the form it was given as, the message
ending ``at offset N in <form> text`` with N an offset in that text.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from idcalc.boxes import MAX_INDEX, Box, BoxError, parse_box
from idcalc.polynomials import (Orientation, Poly, PolyError, PolyFun, format_polyfun,
                                parse_polyfun)
from idcalc.prederiv import (GermCore, PreDeriv, PreDerivError, format_prederiv,
                             parse_prederiv)
from idcalc.relations import (CATALOGUE, Ctx, rand_box, rand_box_around_zero, rand_coeff,
                              rand_polyfun, rand_subbox, rand_word)
from idcalc.terms import TermError, format_term, parse_term
from idcalc.words import WordError, parse_word
from oracles import opaque_domains, same_term

FORMS = {
    "box": (parse_box, BoxError),
    "polynomial": (parse_polyfun, PolyError),
    "word": (parse_word, WordError),
    "term": (lambda text: parse_term(text, {"c": Box.full(1), "d_2": Box.full(2)}), TermError),
    "pre-derivation": (parse_prederiv, PreDerivError),
}
RULES = sorted(CATALOGUE)


# ---------------------------------------------------------------------------
# round trips, over the catalogue's own random draws


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12))
def test_word_text_round_trip(rng, length):
    w = rand_word(rng, max_len=length, max_index=rng.choice((3, MAX_INDEX)))
    assert parse_word(str(w)) == w


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4))
def test_box_text_round_trip_over_catalogue_draws(rng, dim):
    box = rand_box(rng, dim)
    for b in (box, rand_box_around_zero(rng, dim), rand_subbox(rng, box)):
        assert parse_box(str(b)) == b


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3), st.integers(0, 3))
def test_polyfun_text_round_trip(rng, dim, cod_dim):
    f = rand_polyfun(rng, rand_box(rng, dim), cod_dim, max_deg=rng.randint(0, 6))
    assert parse_polyfun(format_polyfun(f)) == f


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(RULES), st.integers(0, 3))
def test_term_text_round_trip_over_catalogue_trials(rng, rule, k):
    for t in CATALOGUE[rule](Ctx(rng, Orientation.UPPER, k)):
        env = opaque_domains(t)
        assert same_term(parse_term(format_term(t), env), t)


def _core(rng: random.Random) -> GermCore:
    f = rand_polyfun(rng, rand_box_around_zero(rng, rng.randint(0, 3)), rng.randint(1, 2))
    return GermCore(PolyFun.make(f.domain, [p.sub(Poly.const(p.arity, p.at_zero()))
                                            for p in f.components]))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_prederiv_text_round_trip(rng, summands):
    cores = [_core(rng) for _ in range(summands)]
    target = cores[0].target_dim if cores else rng.randint(0, MAX_INDEX)
    dv = PreDeriv(target)
    for core in cores:
        if core.target_dim == target:
            dv = dv + PreDeriv.of(core, [rand_coeff(rng) for _ in range(core.source_dim)])
    assert parse_prederiv(format_prederiv(dv)) == dv


# ---------------------------------------------------------------------------
# refusals: any text reads, or is refused with its form's class and location

# per form, a text that reads and the characters a refused text is made of
SAMPLES = {
    "box": ("(-inf,1/2)xRx(0,inf)x(-3,0.25)", "[]e:0"),
    "polynomial": ("poly 2->2 on (0,1)xR : 3/4 x1^2 x2 + -1; x2", "}e\t0"),
    "word": ("I1 D2 p3 q10 Q1000", "1_+-][x\u0663\t"),
    "term": ("<[I1 D2] c, ({poly 2->1 on RxR : x1 + x2^2} . d_2)>", "1;x:"),
    "pre-derivation": ("D{ core=poly 1->2 on (-1,1) : x1; x1^2; u=(1/2); } + "
                       "D{ core=poly 0->2 on R0 : 0; 0; u=(); }", "0[m=2],)"),
}
LOCATION = re.compile(r" at offset (\d+) in (\S+) text$")


def _read_or_refuse(form: str, text: str) -> None:
    parse, error = FORMS[form]
    try:
        parse(text)
    except error as exc:
        at = LOCATION.search(str(exc))
        assert at and at[2] == form and 0 <= int(at[1]) <= len(text), str(exc)


@pytest.mark.parametrize("form", sorted(SAMPLES))
def test_the_samples_read(form):
    FORMS[form][0](SAMPLES[form][0])


@pytest.mark.parametrize("form", sorted(SAMPLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_text_reads_or_is_refused_where_it_fails(form, data):
    """Texts cut and spliced from a sample, over its characters and junk;
    no other exception may escape."""
    sample, junk = SAMPLES[form]
    chars = st.text(sorted(set(sample + junk)), max_size=6)
    text = sample
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + data.draw(chars) + text[j:]
    _read_or_refuse(form, text)


@pytest.mark.parametrize("form, text, message", [
    ("box", "(0,1) zz", "bad interval syntax: 'zz' at offset 6"),
    ("box", "R0x(0,1)", "bad interval syntax: 'R0' at offset 0"),
    ("box", "(0,1)x", "bad interval syntax: '' at offset 6"),
    ("box", " (,1)", "not a rational number: '' at offset 2"),
    ("box", "(0,1/0)", "zero denominator in '1/0' at offset 3"),
    ("box", "Rx(3,inf)x(2,1)", "empty interval (2,1) at offset 10"),
    ("polynomial", "poly1->1 on R : x1",
     "not a polynomial function literal: 'poly1->1 on R : x1' at offset 0"),
    ("polynomial", "poly 1 -> 1 on R : x1", "bad dimensions '1' at offset 5"),
    ("polynomial", "poly 1001->1 on R : x1",
     "dimension '1001' exceeds MAX_INDEX = 1000 at offset 5"),
    ("polynomial", "poly 1->1 R : x1", "expected 'on' at offset 10"),
    ("polynomial", "poly 1->1 on R 1 x1", "expected ':' at offset 15"),
    ("polynomial", "poly 1->1 on R : 2x1", "not a rational number: '2x1' at offset 17"),
    ("polynomial", "poly 1->1 on R : x0", "variable x0 out of range for arity 1 at offset 17"),
    ("polynomial", "poly 1->1 on R : 1 x1;",
     "trailing input after polynomial function at offset 21"),
    ("polynomial", "poly 1->2 on R : 1 x1; ; 2 x1", "empty monomial at offset 23"),
    ("word", "I1 (x", "bad generator token '(x' at offset 3"),
    ("word", "1 I1", "bad generator token '1' at offset 0"),
    ("word", "I0", "generator index must be >= 1 at offset 0"),
    ("term", "[I1 X2] c", "bad generator token 'X2' at offset 4"),
    ("term", "[D0] c", "generator index must be >= 1 at offset 1"),
    ("term", "<c, d_2", "expected '>' at offset 7"),
    ("term", "(c . c", "expected ')' at offset 6"),
    ("term", "(c d_2)", "expected '.' at offset 3"),
    ("term", "{poly 1->1 on R : 1 x1; 2 x1}", "unterminated inline polynomial at offset 22"),
    ("term", "e", "opaque generator 'e' is not declared at offset 0"),
    ("term", " c x", "trailing input after term at offset 3"),
    ("pre-derivation", "0[m=2] + 0[m=2]", "bad pre-derivation syntax at offset 7"),
    ("pre-derivation", "0[m=1001]", "dimension '1001' exceeds MAX_INDEX = 1000 at offset 4"),
    ("pre-derivation", "D{ core=poly 1->1 on (-1,1) : x1; v=(1); }",
     "bad pre-derivation syntax at offset 34"),
    ("pre-derivation", "D{ core=poly 1->1 on (-1,1) : x1; u=(1 2); }",
     "bad pre-derivation syntax at offset 39"),
    ("pre-derivation", "D{ core=poly 1->1 on (1,2) : x1; u=(1); }",
     "core domain must contain 0 at offset 8"),
    ("pre-derivation", "D{ core=poly 1->1 on (-1,1) : 1 + x1; u=(1); }",
     "core must vanish at 0 at offset 8"),
    ("pre-derivation", "D{ core=poly 1->1 on (-1,1) : x1; u=(1, 2); }",
     "direction length differs from the core arity at offset 0"),
    ("pre-derivation",
     "D{core=poly 1->1 on (-1,1) : x1; u=(1);} + D{ core=poly 1->2 on (-1,1) : x1; x1; u=(1); }",
     "summands disagree on the target dimension at offset 43"),
    ("box", "(1,1)", "empty interval (1,1) at offset 0"),
])
def test_a_refusal_names_where_it_fails(form, text, message):
    parse, error = FORMS[form]
    with pytest.raises(error) as exc:
        parse(text)
    assert str(exc.value) == f"{message} in {form} text"


@pytest.mark.parametrize("form, text, expected", [
    ("box", "(0 , 1 )x( -inf ,2)", "(0,1)x(-inf,2)"),
    ("polynomial", "poly 0->1 on R0 : 1/2 + 3", "poly 0->1 on R0 : 7/2"),
    ("polynomial", "poly 1->1 on R : x1 x1^0 + x01^2", "poly 1->1 on R : 1 x1^2 + 1 x1"),
    ("word", "  1 ", "1"),
    ("word", "", "1"),
    ("term", "[1] c", "[1] c"),
    ("pre-derivation", " 0[m=3] ", "0[m=3]"),
    ("pre-derivation", "D{ core=poly 0->1 on R0 : 0; u=( ); }",
     "D{ core=poly 0->1 on R0 : 0; u=(); }"),
])
def test_spacing_and_spelling_that_read(form, text, expected):
    value = FORMS[form][0](text)
    printed = {"polynomial": format_polyfun, "term": format_term,
               "pre-derivation": format_prederiv}.get(form, str)(value)
    assert printed == expected
