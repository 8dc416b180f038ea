"""Exact arithmetic in Q and real quadratic fields Q(sqrt(d)).

Every coordinate in this package is a ``QuadScalar``: an element r + s*sqrt(d)
with r, s rational and d a fixed squarefree integer > 1.  Pure rationals are
the degenerate case s = 0 and carry no d.  The field is totally ordered and
all comparisons are exact.

Values are checked where they enter: the ``QuadScalar`` constructor, ``Q``,
``sqrt``, ``coerce``, ``parse_scalar`` and ``scalar_from_json`` coerce both
parts to ``Fraction``, test d (squarefree, in 2..MAX_D) and reject an
irrational part without d.  Arithmetic does not check again: its operands
were checked when they were built, so ``+ - * / inv`` build their
results with the trusted ``QuadScalar._new``, which fills the three
``__slots__`` of a new instance, and only mixing two contexts raises
(``_join_d``).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction


class ScalarDomainError(ZeroDivisionError):
    """Inversion of zero."""


class ScalarContextError(ValueError):
    """Operands living in different quadratic fields Q(sqrt(d))."""


def is_squarefree(n: int) -> bool:
    """Exact.  Trial division only up to n^(1/3), dividing each factor found
    out once: what is left then has no prime factor below its own cube root,
    so it is p, p*q or p^2, and squarefree unless it is a perfect square."""
    if n < 2:
        return False
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1
    return math.isqrt(n) ** 2 != n


# Largest accepted d: the one squarefree test per distinct d is trial
# division up to d^(1/3), about 1 ms at this size.
MAX_D = 10**12


@functools.lru_cache(maxsize=64)
def _squarefree(d: int) -> bool:
    return is_squarefree(d)


def _check_d(d):
    if d is not None and not (isinstance(d, int) and 1 < d <= MAX_D and _squarefree(d)):
        raise ScalarContextError(f"d must be a squarefree integer in 2..{MAX_D}, got {d!r}")
    return d


class QuadScalar:
    """An exact element r + s*sqrt(d); canonical form has d=None when s=0.

    Immutable: the three parts live in ``__slots__`` and assigning or
    deleting one raises AttributeError.  ``__init__`` checks its arguments;
    arithmetic fills the slots of results through ``_new``."""

    __slots__ = ("r", "s", "d")

    def __init__(self, r, s=Fraction(0), d=None):
        r, s = Fraction(r), Fraction(s)
        if _check_d(d) is None and s:
            raise ScalarContextError("irrational part given without a d context")
        _set_r(self, r)
        _set_s(self, s)
        _set_d(self, d if s else None)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadScalar is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadScalar is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return QuadScalar, (self.r, self.s, self.d)

    @staticmethod
    def _new(r: Fraction, s: Fraction, d: int | None) -> "QuadScalar":
        """The trusted constructor, for parts that are already valid: r and s
        Fractions, d checked (or None) when s != 0.  It only drops d when
        s == 0, and fills the slots directly, past ``__setattr__``."""
        x = _new_object(QuadScalar)
        _set_r(x, r)
        _set_s(x, s)
        _set_d(x, d if s else None)
        return x

    # -- context handling ----------------------------------------------------

    @staticmethod
    def _join_d(x: "QuadScalar", y: "QuadScalar") -> int | None:
        if x.d is None:
            return y.d
        if y.d is None or x.d == y.d:
            return x.d
        raise ScalarContextError(f"mixed contexts sqrt({x.d}) and sqrt({y.d})")

    @staticmethod
    def coerce(value) -> "QuadScalar":
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadScalar(Fraction(value))
        if isinstance(value, str):
            return parse_scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a QuadScalar")

    # -- ring/field operations -----------------------------------------------

    def __add__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar._new(self.r + o.r, self.s + o.s, QuadScalar._join_d(self, o))

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar._new(-self.r, -self.s, self.d)

    def __sub__(self, other):
        o = QuadScalar.coerce(other)
        return QuadScalar._new(self.r - o.r, self.s - o.s, QuadScalar._join_d(self, o))

    def __rsub__(self, other):
        return QuadScalar.coerce(other) - self

    def __mul__(self, other):
        o = QuadScalar.coerce(other)
        d = QuadScalar._join_d(self, o)
        dv = d if d is not None else 0
        return QuadScalar._new(self.r * o.r + self.s * o.s * dv, self.r * o.s + self.s * o.r, d)

    __rmul__ = __mul__

    def inv(self) -> "QuadScalar":
        if self.is_zero():
            raise ScalarDomainError("inverse of zero")
        if self.s == 0:
            return QuadScalar._new(1 / self.r, self.s, None)
        # rationalize: 1/(r+s*sqrt(d)) = (r-s*sqrt(d))/(r^2-s^2 d)
        norm = self.r * self.r - self.s * self.s * self.d
        return QuadScalar._new(self.r / norm, -self.s / norm, self.d)

    def __truediv__(self, other):
        return self * QuadScalar.coerce(other).inv()

    def __rtruediv__(self, other):
        return QuadScalar.coerce(other) * self.inv()


    # -- order ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.r == 0 and self.s == 0

    def sign(self) -> int:
        """Exact sign of r + s*sqrt(d), by comparing r^2 against s^2*d."""
        if self.s == 0:
            return (self.r > 0) - (self.r < 0)
        if self.r == 0:
            return 1 if self.s > 0 else -1
        if self.r > 0 and self.s > 0:
            return 1
        if self.r < 0 and self.s < 0:
            return -1
        # opposite signs: the larger of r^2, s^2*d decides
        rr = self.r * self.r
        ss = self.s * self.s * self.d
        if rr == ss:
            # would mean sqrt(d) rational; impossible for squarefree d > 1
            raise AssertionError("sqrt(d) cannot be rational")
        return (1 if self.r > 0 else -1) if rr > ss else (1 if self.s > 0 else -1)

    def __lt__(self, other):
        return (self - QuadScalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - QuadScalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - QuadScalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - QuadScalar.coerce(other)).sign() >= 0

    def __eq__(self, other):
        # no str is ever equal: values that compare equal must hash equal
        if isinstance(other, QuadScalar):
            return self.r == other.r and self.s == other.s and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.s == 0 and self.r == other
        return NotImplemented

    def __hash__(self):
        if self.s == 0:
            return hash(self.r)
        return hash((self.r, self.s, self.d))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not self.is_zero()

    # -- queries and conversions ----------------------------------------------

    def to_float(self) -> float:
        x = self.r.numerator / self.r.denominator
        if self.s:
            x += (self.s.numerator / self.s.denominator) * math.sqrt(self.d)
        return x

    __float__ = to_float

    def __repr__(self):
        return f"QuadScalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


# the slots' own setters, which ``__setattr__`` refuses to be
_set_r, _set_s, _set_d = (QuadScalar.__dict__[k].__set__ for k in QuadScalar.__slots__)
_new_object = object.__new__


def Q(value, den=None) -> QuadScalar:
    """Shorthand constructor from int, Fraction, 'p/q' string, or QuadScalar;
    Q(p, q) builds the fraction p/q."""
    if den is not None:
        return QuadScalar(Fraction(value, den))
    return QuadScalar.coerce(value)


def sqrt(d: int) -> QuadScalar:
    return QuadScalar(Fraction(0), Fraction(1), d)


# -- text form ------------------------------------------------------------

_TERM = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
          (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*sqrt\(\s*(?P<d1>\d+)\s*\))?
          |
          sqrt\(\s*(?P<d2>\d+)\s*\)
        )\s*""",
    re.VERBOSE,
)


_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def _rational(text: str) -> Fraction:
    """An exact 'p' or 'p/q'.  Fraction alone would also take '1e999999999'
    and build 10**999999999 from a dozen characters."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not an exact rational 'p' or 'p/q': {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str) -> QuadScalar:
    """Parse 'p/q', 'r+s*sqrt(d)', 'sqrt(d)' and signed combinations thereof."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty scalar expression: {text!r}")
    pos = 0
    total = QuadScalar(0)
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at position {pos}")
        if not first and m.group("sign") == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        sgn = -1 if m.group("sign") == "-" else 1
        if m.group("d2") is not None:
            term = sqrt(int(m.group("d2")))
        else:
            coef = _rational(m.group("coef"))
            if m.group("d1") is not None:
                term = QuadScalar(Fraction(0), coef, int(m.group("d1")))
            else:
                term = QuadScalar(coef)
        total = total + sgn * term
        pos = m.end()
        first = False
    return total


def format_scalar(x: QuadScalar) -> str:
    if x.s == 0:
        return str(x.r)
    parts = []
    if x.r != 0:
        parts.append(str(x.r))
    if x.s == 1:
        st = f"sqrt({x.d})"
    elif x.s == -1:
        st = f"-sqrt({x.d})"
    else:
        st = f"{x.s}*sqrt({x.d})"
    if parts and not st.startswith("-"):
        return f"{parts[0]}+{st}"
    return "".join(parts) + st


def scalar_to_json(x: QuadScalar) -> dict:
    return {
        "r": str(x.r),
        "s": str(x.s),
        "d": x.d,
        "float": x.to_float(),
    }


def scalar_from_json(obj) -> QuadScalar:
    if isinstance(obj, str):
        return parse_scalar(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return QuadScalar(Fraction(obj))
    if isinstance(obj, dict):
        return QuadScalar(_rational(str(obj["r"])), _rational(str(obj.get("s", "0"))), obj.get("d"))
    raise ValueError(f"not a scalar JSON form: {obj!r}")


@dataclass(frozen=True)
class ParamSpec:
    """A positive family parameter a.  Whether a is rational, and its
    denominator q for a = p/q, are read off Gamma_a = Q_a / Z^2 (trivial,
    Z/qZ or dense), which ``Quasilattice.quotient`` computes, not off a."""

    value: QuadScalar

    def __post_init__(self):
        object.__setattr__(self, "value", QuadScalar.coerce(self.value))
        if self.value.sign() <= 0:
            raise ValueError(f"parameter must be positive, got {self.value}")

    def __str__(self):
        return format_scalar(self.value)
