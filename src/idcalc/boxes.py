"""Open axis-aligned boxes in R^m with exact rational endpoints.

A box is a finite product of one-dimensional open intervals (possibly
unbounded); the empty product is R^0 = {0}.  Boxes are the only domain
shape the kernel supports: they are closed under products and under the
``domint`` domain-extension operator, and membership is exactly decidable
over rationals.

The module also provides closed conservative enclosures (``Enclosure``)
with the interval arithmetic used by the polynomial range guard.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

RatLike = Union[Fraction, int, str]
V = TypeVar("V")


class IdcalcError(ValueError):
    """Root of every error the package raises on bad input; the command
    line reports it with exit code 1."""


class BoxError(IdcalcError):
    pass


# the text forms of a rational: an integer, a p/q fraction or a decimal;
# exponent notation would let a short literal expand to millions of digits
_RATIONAL = re.compile(r"\s*[-+]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")


def _echo(text: str) -> str:
    """The literal as an error message quotes it, cut short past 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:20]) + "..."


def rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise BoxError(f"not a rational number: {_echo(x)}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise BoxError(f"zero denominator in {_echo(x)}") from None
    except ValueError:  # a well-formed literal past sys.get_int_max_str_digits()
        raise BoxError(f"rational literal too long ({len(x)} characters, at most "
                       f"{sys.get_int_max_str_digits()} digits per integer): "
                       f"{_echo(x)}") from None


# ---------------------------------------------------------------------------
# reading the text forms

# The most a text may ask for: every index and dimension it states, the m of
# a zero pre-derivation `0[m=N]` included, and every exponent of a monomial.
MAX_INDEX = 1000
MAX_EXPONENT = 1000

_SPACE, _TOKEN = re.compile(r"\s*"), re.compile(r"\S*")


class Cursor:
    """One text being read: the text, the offset reached, always past any
    whitespace, the name errors cite (such as ``term text``) and the error
    class of the outermost parser.  The reader of a nested form shares its
    caller's cursor, so every error ends ``at offset N in <name>``, N an
    offset in the text the caller passed."""

    def __init__(self, text: str, name: str, error: type[IdcalcError]):
        self.text, self.name, self.error = text, name, error
        self.pos = _SPACE.match(text).end()

    def fail(self, message: str, at: int) -> IdcalcError:
        return self.error(f"{message} at offset {at} in {self.name}")

    def take(self, pattern: re.Pattern) -> Optional[re.Match]:
        """The match of pattern here, moved past with the whitespace after it."""
        m = pattern.match(self.text, self.pos)
        if m:
            self.pos = _SPACE.match(self.text, m.end()).end()
        return m

    def eat(self, literal: str) -> bool:
        """Move past literal and the whitespace after it, if it comes here."""
        found = self.text.startswith(literal, self.pos)
        if found:
            self.pos = _SPACE.match(self.text, self.pos + len(literal)).end()
        return found

    def expect(self, literal: str, message: str) -> None:
        if not self.eat(literal):
            raise self.fail(message, self.pos)

    def whole(self, read: Callable[["Cursor"], V], trailing: str) -> V:
        """read(self), refusing anything after it with trailing, whose ``{}``
        quotes the first token left."""
        value = read(self)
        if self.pos < len(self.text):
            left = _TOKEN.match(self.text, self.pos)[0]
            raise self.fail(trailing.format(repr(left)), self.pos)
        return value

    def build(self, at: int, make: Callable[..., V], *args: object) -> V:
        """make(*args), a refusal located where the construct starts."""
        try:
            return make(*args)
        except IdcalcError as exc:
            raise self.fail(str(exc), at) from None

    def index(self, digits: str, at: int, what: str) -> int:
        """The value of an index or dimension token, refused past MAX_INDEX."""
        return self._bounded(digits, at, what, "MAX_INDEX", MAX_INDEX)

    def exponent(self, digits: str, at: int) -> int:
        """The value of an exponent token, refused past MAX_EXPONENT."""
        return self._bounded(digits, at, "exponent", "MAX_EXPONENT", MAX_EXPONENT)

    def _bounded(self, digits: str, at: int, what: str, name: str, most: int) -> int:
        if len(digits.lstrip("0")) > len(str(most)) or int(digits) > most:
            raise self.fail(f"{what} {_echo(digits)} exceeds {name} = {most}", at)
        return int(digits)


# ---------------------------------------------------------------------------
# one-dimensional open intervals


@dataclass(frozen=True)
class Ray1:
    """Open interval in R; ``None`` endpoints mean -inf / +inf."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise BoxError(f"empty interval ({self.lo},{self.hi})")

    @staticmethod
    def full() -> "Ray1":
        return Ray1(None, None)

    @staticmethod
    def bounded(a: RatLike, b: RatLike) -> "Ray1":
        return Ray1(rat(a), rat(b))

    @staticmethod
    def below(b: RatLike) -> "Ray1":
        return Ray1(None, rat(b))

    @staticmethod
    def above(a: RatLike) -> "Ray1":
        return Ray1(rat(a), None)

    @property
    def is_full(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, x: RatLike) -> bool:
        x = rat(x)
        if self.lo is not None and not self.lo < x:
            return False
        if self.hi is not None and not x < self.hi:
            return False
        return True

    def intersect(self, other: "Ray1") -> Optional["Ray1"]:
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and not lo < hi:
            return None
        return Ray1(lo, hi)

    def translate(self, t: RatLike) -> "Ray1":
        t = rat(t)
        return Ray1(None if self.lo is None else self.lo + t,
                    None if self.hi is None else self.hi + t)

    def closure(self) -> "Enclosure":
        return Enclosure(self.lo, self.hi)

    def __str__(self) -> str:
        if self.is_full:
            return "R"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"({lo},{hi})"


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class Box:
    factors: tuple[Ray1, ...]

    @property
    def dim(self) -> int:
        return len(self.factors)

    @staticmethod
    def point() -> "Box":
        """R^0 = {0}, the unit of the product."""
        return Box(())

    @staticmethod
    def full(m: int) -> "Box":
        return Box((Ray1.full(),) * m)

    @staticmethod
    def of(*rays: Ray1) -> "Box":
        return Box(tuple(rays))

    @staticmethod
    def cube(a: RatLike, b: RatLike, m: int) -> "Box":
        return Box((Ray1.bounded(a, b),) * m)

    def contains(self, xs: Sequence[RatLike]) -> bool:
        if len(xs) != self.dim:
            raise BoxError(f"point of length {len(xs)} in a {self.dim}-dim box")
        return all(f.contains(x) for f, x in zip(self.factors, xs))

    def intersect(self, other: "Box") -> Optional["Box"]:
        if self.dim != other.dim:
            raise BoxError("dimension mismatch in intersection")
        out = []
        for a, b in zip(self.factors, other.factors):
            r = a.intersect(b)
            if r is None:
                return None
            out.append(r)
        return Box(tuple(out))

    def translate(self, t: Sequence[RatLike]) -> "Box":
        if len(t) != self.dim:
            raise BoxError("translation vector length mismatch")
        return Box(tuple(f.translate(c) for f, c in zip(self.factors, t)))

    def __str__(self) -> str:
        if not self.factors:
            return "R0"
        return "x".join(str(f) for f in self.factors)


def product(boxes: Iterable[Box]) -> Box:
    """Concatenate factor lists; R^0 factors vanish."""
    factors: list[Ray1] = []
    for b in boxes:
        factors.extend(b.factors)
    return Box(tuple(factors))


def domint(b: Box, i: int) -> Box:
    """Domain extension inserting the integration-variable pair at slot i.

    For i <= dim the i-th factor is duplicated into positions i and i+1
    (the segment condition of the set-level definition reduces, for a
    convex factor, to both endpoints lying in the factor); for i > dim
    the box is padded with R^(i-dim+1).
    """
    if i < 1:
        raise BoxError("domint index must be >= 1")
    m = b.dim
    if i <= m:
        f = b.factors[i - 1]
        return Box(b.factors[: i - 1] + (f, f) + b.factors[i:])
    return Box(b.factors + (Ray1.full(),) * (i - m + 1))


# ---------------------------------------------------------------------------
# box text form: `R0`, `R`, `(a,b)`, `(-inf,b)`, `(a,inf)` joined by `x`

_RAY = re.compile(r"R(?![^\s:x])|\(\s*([^\s,()]*)\s*,\s*([^\s,()]*)\s*\)")
_POINT, _RAY_TEXT = re.compile(r"R0(?![^\s:])"), re.compile(r"[^\s:x]*")


def _read_ray(cur: Cursor) -> Ray1:
    ray = cur.take(_RAY)
    if ray is None:
        text = _RAY_TEXT.match(cur.text, cur.pos)[0]
        raise cur.fail(f"bad interval syntax: {text!r}", cur.pos)
    if ray[0] == "R":
        return Ray1.full()
    lo = None if ray[1] == "-inf" else cur.build(ray.start(1), rat, ray[1])
    hi = None if ray[2] == "inf" else cur.build(ray.start(2), rat, ray[2])
    return cur.build(ray.start(), Ray1, lo, hi)


def read_box(cur: Cursor) -> Box:
    if cur.take(_POINT):
        return Box.point()
    rays = [_read_ray(cur)]
    while cur.eat("x"):
        rays.append(_read_ray(cur))
    return Box(tuple(rays))


def parse_box(text: str) -> Box:
    return Cursor(text, "box text", BoxError).whole(read_box, "bad interval syntax: {}")


# ---------------------------------------------------------------------------
# closed conservative enclosures (interval arithmetic for the range guard)

def _sign(end: Optional[Fraction], inf_sign: int) -> int:
    """Sign of a nonzero enclosure end; an infinite end has inf_sign."""
    return inf_sign if end is None else (1 if end > 0 else -1)


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with infinite ends; ``None`` = unbounded."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    @staticmethod
    def const(c: RatLike) -> "Enclosure":
        c = rat(c)
        return Enclosure(c, c)

    def add(self, other: "Enclosure") -> "Enclosure":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Enclosure(lo, hi)

    def mul(self, other: "Enclosure") -> "Enclosure":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if a is not None and b is not None and c is not None and d is not None:
            ps = (a * c, a * d, b * c, b * d)
            return Enclosure(min(ps), max(ps))
        # An infinite end enters through its sign alone, and 0 * inf = 0:
        # enclosures describe sets of reals, never actual infinities.
        finite: list[Fraction] = []
        inf_signs = set()
        for x, sx in ((a, -1), (b, 1)):
            for y, sy in ((c, -1), (d, 1)):
                if x is not None and y is not None:
                    finite.append(x * y)
                elif x == 0 or y == 0:
                    finite.append(Fraction(0))
                else:
                    inf_signs.add(_sign(x, sx) * _sign(y, sy))
        return Enclosure(None if -1 in inf_signs else min(finite),
                         None if 1 in inf_signs else max(finite))

    def pow(self, e: int) -> "Enclosure":
        out = Enclosure.const(1)
        for _ in range(e):
            out = out.mul(self)
        return out

    def fits_within(self, ray: Ray1) -> bool:
        """[lo, hi] subset of the open interval, as sets."""
        if ray.lo is not None and (self.lo is None or not ray.lo < self.lo):
            return False
        if ray.hi is not None and (self.hi is None or not self.hi < ray.hi):
            return False
        return True

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"
