import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from idcalc.boxes import Box, BoxError, Enclosure, Ray1, domint, parse_box, product, rat


def test_contains_midpoint():
    assert Box((Ray1.bounded(0, 1),)).contains([Fraction(1, 2)])


def test_contains_point_space():
    assert Box.point().contains([])


def test_contains_outside_second_factor():
    b = Box((Ray1.bounded(0, 1), Ray1.bounded(2, 3)))
    assert not b.contains([Fraction(1, 2), 5])


def test_contains_dimension_mismatch():
    with pytest.raises(BoxError):
        Box((Ray1.bounded(0, 1),)).contains([1, 2])


def test_product_concatenates():
    b = product([Box((Ray1.bounded(0, 1),)), Box.full(1)])
    assert str(b) == "(0,1)xR"


def test_product_unit():
    assert product([Box.point(), Box((Ray1.bounded(0, 1),))]) == Box((Ray1.bounded(0, 1),))
    assert product([]) == Box.point()


def test_product_associative():
    a, b, c = Box.full(1), Box.cube(0, 1, 2), Box.point()
    assert product([product([a, b]), c]) == product([a, product([b, c])])


def test_domint_duplicates_factor():
    assert str(domint(parse_box("(0,1)"), 1)) == "(0,1)x(0,1)"


def test_domint_pads_beyond_dimension():
    # exponent is i - m + 1
    assert str(domint(parse_box("(0,1)"), 3)) == "(0,1)xRxRxR"
    assert str(domint(Box.point(), 1)) == "RxR"


def test_domint_dimensions():
    b = Box.cube(0, 1, 3)
    assert domint(b, 2).dim == 4
    assert domint(b, 5).dim == 6


_rats = st.integers(-20, 20).map(lambda n: Fraction(n, 3))


def _ray_from(a, w, kind):
    if kind == 0:
        return Ray1.full()
    if kind == 1:
        return Ray1.above(a)
    if kind == 2:
        return Ray1.below(a)
    return Ray1.bounded(a, a + w)


_rays = st.builds(_ray_from, _rats, st.integers(1, 5), st.integers(0, 3))
_boxes = st.lists(_rays, min_size=0, max_size=4).map(lambda rs: Box(tuple(rs)))


@settings(max_examples=200, deadline=None)
@given(_boxes, st.integers(1, 5), st.integers(1, 5))
def test_domint_exchange_identities(box, i, j):
    if i < j:
        assert domint(domint(box, i), j) == domint(domint(box, j - 1), i)
    else:
        assert domint(domint(box, i), j) == domint(domint(box, j), i + 1)


@settings(max_examples=100, deadline=None)
@given(_boxes)
def test_box_text_roundtrip(box):
    assert parse_box(str(box)) == box


def test_parse_ray_forms():
    assert parse_box("R") == Box((Ray1.full(),))
    assert parse_box("(-inf,3)") == Box((Ray1.below(3),))
    assert parse_box("(1/2,inf)") == Box((Ray1.above(Fraction(1, 2)),))
    assert parse_box("R0") == Box.point()


@pytest.mark.parametrize("text", ["(-oo,3)", "(0,oo)", "(0,+inf)", "(0,1e3)", "(0,1E-2)"])
def test_parse_ray_refuses_other_spellings(text):
    with pytest.raises(BoxError, match="not a rational number"):
        parse_box(text)


def test_rational_text_forms():
    assert [rat(t) for t in ["3", "-3", "1/3", "-1/3", "0.25", ".5"]] == \
        [3, -3, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 4), Fraction(1, 2)]
    for text in ["1e1000000", "1_000", "inf", "nan", "0x10", ""]:
        with pytest.raises(BoxError, match="not a rational number"):
            rat(text)


def test_intersection():
    a = Box((Ray1.bounded(0, 2),))
    b = Box((Ray1.bounded(1, 3),))
    assert a.intersect(b) == Box((Ray1.bounded(1, 2),))
    assert a.intersect(Box((Ray1.bounded(5, 6),))) is None


def test_intervals_that_only_share_an_end_do_not_meet():
    assert Ray1.bounded(0, 1).intersect(Ray1.bounded(1, 2)) is None
    assert Ray1.below(1).intersect(Ray1.above(1)) is None


def test_enclosure_arithmetic():
    e = Enclosure(Fraction(-1), Fraction(1))
    sq = e.mul(e)
    assert sq == Enclosure(Fraction(-1), Fraction(1))
    assert e.pow(0) == Enclosure.const(1)
    half_line = Enclosure(Fraction(0), None)
    assert half_line.mul(half_line) == Enclosure(Fraction(0), None)
    assert e.mul(half_line) == Enclosure(None, None)


# dyadic ends keep every float product below exact; None is an infinite end
DYADIC_ENDS = [None, Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
               Fraction(1, 4), Fraction(1), Fraction(3, 2)]
DYADIC_ENCLOSURES = [Enclosure(lo, hi) for lo in DYADIC_ENDS for hi in DYADIC_ENDS
                     if lo is None or hi is None or lo <= hi]


def _float_ends(e):
    return (-math.inf if e.lo is None else float(e.lo),
            math.inf if e.hi is None else float(e.hi))


def _float_mul(p, q):
    """Reference interval product over floats, reading 0 * inf as 0."""
    ps = [0.0 if x == 0 or y == 0 else x * y for x in p for y in q]
    return min(ps), max(ps)


def test_enclosure_mul_and_pow_match_float_reference():
    assert len(DYADIC_ENCLOSURES) == 43
    for a in DYADIC_ENCLOSURES:
        for b in DYADIC_ENCLOSURES:
            assert _float_ends(a.mul(b)) == _float_mul(_float_ends(a), _float_ends(b)), (a, b)
        want = (1.0, 1.0)
        for e in range(5):
            assert _float_ends(a.pow(e)) == want, (a, e)
            want = _float_mul(want, _float_ends(a))


def test_enclosure_containment_in_open_ray():
    assert Enclosure(Fraction(1, 2), Fraction(3, 2)).fits_within(Ray1.bounded(0, 2))
    assert not Enclosure(Fraction(0), Fraction(1)).fits_within(Ray1.bounded(0, 1))
    assert Enclosure(Fraction(0), None).fits_within(Ray1.full())
    assert not Enclosure(Fraction(0), None).fits_within(Ray1.below(10))
