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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


def rat(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise BoxError(f"zero denominator in {x!r}") from None


class BoxError(ValueError):
    pass


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


def parse_ray(text: str) -> Ray1:
    t = text.strip()
    if t == "R":
        return Ray1.full()
    if not (t.startswith("(") and t.endswith(")")):
        raise BoxError(f"bad interval syntax: {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise BoxError(f"bad interval syntax: {text!r}")
    lo_s, hi_s = parts[0].strip(), parts[1].strip()
    lo = None if lo_s in ("-inf", "-oo") else rat(lo_s)
    hi = None if hi_s in ("inf", "+inf", "oo") else rat(hi_s)
    return Ray1(lo, hi)


def parse_box(text: str) -> Box:
    t = text.strip()
    if t == "R0":
        return Box.point()
    return Box(tuple(parse_ray(p) for p in t.split("x")))


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

    def scale(self, c: RatLike) -> "Enclosure":
        return self.mul(Enclosure.const(c))

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
