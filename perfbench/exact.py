"""Exact arithmetic in Q(sqrt(d)) for the benchmark's generators and checks.

This is deliberately separate from ``quasitoric.scalar``: a check must not
share code with the layer it checks.  An element is a tuple ``(r, s, d)``
meaning r + s*sqrt(d), with r and s Fractions and d a squarefree int > 1, or
None exactly when s == 0.
"""

from __future__ import annotations

from fractions import Fraction


def num(r, s=0, d=None):
    r, s = Fraction(r), Fraction(s)
    return (r, s, d if s else None)


ZERO = num(0)
ONE = num(1)


def _field(x, y):
    if x[2] is None:
        return y[2]
    if y[2] is None or y[2] == x[2]:
        return x[2]
    raise ValueError(f"mixed fields sqrt({x[2]}) and sqrt({y[2]})")


def add(x, y):
    return num(x[0] + y[0], x[1] + y[1], _field(x, y))


def neg(x):
    return (-x[0], -x[1], x[2])


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    d = _field(x, y)
    return num(x[0] * y[0] + x[1] * y[1] * (d or 0), x[0] * y[1] + x[1] * y[0], d)


def sign(x) -> int:
    r, s, d = x
    sr = (r > 0) - (r < 0)
    ss = (s > 0) - (s < 0)
    if ss == 0 or sr == ss:
        return sr or ss
    if sr == 0:
        return ss
    # opposite signs: the larger of r^2 and s^2*d wins (never equal, as d
    # is squarefree)
    return sr if r * r > s * s * d else ss


def cmp(x, y) -> int:
    return sign(sub(x, y))


def dot(u, v):
    return add(mul(u[0], v[0]), mul(u[1], v[1]))


def vsub(u, v):
    return (sub(u[0], v[0]), sub(u[1], v[1]))


def vadd(u, v):
    return (add(u[0], v[0]), add(u[1], v[1]))


def rot90(u):
    return (neg(u[1]), u[0])


def is_integer(x) -> bool:
    return x[2] is None and x[0].denominator == 1


def to_text(x) -> str:
    """The command-line form, e.g. '3/4', '-1/2+2*sqrt(5)', '2*sqrt(7)'."""
    r, s, d = x
    if not s:
        return str(r)
    irr = f"{s}*sqrt({d})"
    if not r:
        return irr
    return f"{r}{irr}" if s < 0 else f"{r}+{irr}"


def to_json(x) -> dict:
    return {"r": str(x[0]), "s": str(x[1]), "d": x[2]}


def from_json(obj):
    """Read the package's scalar JSON form; the advisory float is ignored."""
    return num(Fraction(obj["r"]), Fraction(obj["s"]), obj["d"])


def vec_from_json(obj):
    return (from_json(obj[0]), from_json(obj[1]))


def vec_to_json(v):
    return [to_json(v[0]), to_json(v[1])]
