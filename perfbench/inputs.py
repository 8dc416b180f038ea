"""Seeded input generators for the three workloads.

Every generator is a pure function of its ``random.Random``; the program
under test only ever sees the generated command lines and stdin.  Each op
carries what its check needs to know (``expect``), derived from how the
input was built, never from the program's output.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import exact as X


@dataclass(frozen=True)
class Op:
    kind: str  # the CLI subcommand
    argv: tuple[str, ...]
    stdin: str | None = None
    expect: dict = field(default_factory=dict, compare=False)
    tags: tuple[str, ...] = ()  # input properties recorded in the mix


def _squarefree(n: int) -> bool:
    return n > 1 and all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


SQUAREFREE_D = tuple(d for d in range(2, 100) if _squarefree(d))


def convergents() -> list[Fraction]:
    """Non-integer continued-fraction convergents with q <= 1000 of sqrt(2)
    and of the golden ratio."""
    out = []
    p, q = 1, 1
    while q <= 1000:
        out.append(Fraction(p, q))
        p, q = p + 2 * q, p + q
    a, b = 1, 1
    while a <= 1000:
        out.append(Fraction(b, a))
        a, b = b, a + b
    return sorted({c for c in out if c.denominator > 1 and c.denominator <= 1000})


# -- parameters a ---------------------------------------------------------------

PARAM_ROUND = ("integer", "rational", "irrational", "irrational")


class ParamStream:
    """Distinct positive parameters: 1/4 integers, 1/4 p/q (q <= 1000,
    convergents of sqrt(2) and the golden ratio among them), 1/2
    r + s*sqrt(d) with squarefree d < 100 and small-height r, s.

    Classes come in shuffled rounds of four, so any prefix of the stream
    keeps the stated shares."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()
        self.convergents = convergents()
        rng.shuffle(self.convergents)
        self.pending: list[str] = []

    def next_class(self) -> str:
        if not self.pending:
            self.pending = list(PARAM_ROUND)
            self.rng.shuffle(self.pending)
        return self.pending.pop()

    def draw(self, cls: str):
        """A fresh parameter of the class, as (exact value, tags)."""
        rng = self.rng
        while True:
            tags = (cls,)
            if cls == "integer":
                a = X.num(rng.randint(1, 1000))
            elif cls == "rational":
                if self.convergents and rng.random() < 0.25:
                    a = X.num(self.convergents.pop())
                    tags = (cls, "convergent")
                else:
                    q = rng.randint(2, 1000)
                    p = rng.randint(1, 3 * q)
                    if math.gcd(p, q) != 1:
                        continue
                    a = X.num(Fraction(p, q))
            else:
                d = rng.choice(SQUAREFREE_D)
                r = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                s = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                a = X.num(r, s, d)
                if X.sign(a) <= 0:
                    continue
            if a not in self.seen:
                self.seen.add(a)
                return a, tags


def param_text(a) -> str:
    """a > 0 as typed on a command line: the positive term first, so the
    argument never starts with '-'."""
    r, s, d = a
    if s > 0 and r < 0:
        return f"{s}*sqrt({d}){r}"
    return X.to_text(a)


def report_sweep(rng: random.Random):
    """Endless stream of `report a` ops over distinct parameters."""
    params = ParamStream(rng)
    while True:
        a, tags = params.draw(params.next_class())
        yield Op("report", ("report", param_text(a)), expect={"a": a}, tags=tags)


# -- polygons -------------------------------------------------------------------


@dataclass
class Polygon:
    """A polyhedron known by construction: constraints <x, normal> >= offset,
    its vertices in ccw order, the indices of the facet constraints, the
    facets tight at each vertex, and its recession rays."""

    hrep: list  # [(normal, offset)]
    vertices: list
    facets: list  # indices into hrep
    vertex_facets: list  # per vertex, the two hrep indices tight there
    rays: list

    def to_json(self) -> str:
        return json.dumps(
            {"hrep": [{"normal": X.vec_to_json(n), "offset": X.to_json(c)} for n, c in self.hrep]},
            sort_keys=True,
        )


SHAPES = ("bounded", "cup", "wedge")


def _edge_halfplane(v, w):
    """The line through v and w, with the region to its left (ccw inside)."""
    n = X.rot90(X.vsub(w, v))
    return (n, X.dot(v, n))


def _parameters_t(rng: random.Random, k: int, d):
    """k distinct positive abscissae, in increasing order."""
    ts = set()
    while len(ts) < k:
        if d is None:
            t = X.num(Fraction(rng.randint(2, 6 * k), rng.choice((1, 2, 3))))
        else:
            t = X.num(rng.randint(0, 2 * k), rng.choice((-1, 1, 2)), d)
            if X.sign(t) <= 0:
                continue
        ts.add(t)
    return sorted(ts, key=functools.cmp_to_key(X.cmp))


def make_polygon(rng: random.Random, n: int, shape: str, d, redundant: int) -> Polygon:
    """A polygon with n constraints in all, `redundant` of them implied.

    The vertices lie on the parabola y = x^2 at distinct positive
    abscissae, so they are in strictly convex position.
    - bounded: k = n - redundant vertices, k facets, no ray;
    - cup: k = n - redundant - 1 chain vertices between two vertical
      facets, k + 1 facets, one ray (0, 1);
    - wedge: k = n - redundant chain points and a vertical facet at the
      first; k - 1 vertices, k facets, two rays.
    """
    f = n - redundant
    k = {"bounded": f, "cup": f - 1, "wedge": f}[shape]
    ts = _parameters_t(rng, k, d)
    pts = [(t, X.mul(t, t)) for t in ts]
    hrep = []
    if shape == "bounded":
        for i in range(k):
            hrep.append(_edge_halfplane(pts[i], pts[(i + 1) % k]))
        vertices = pts
        vertex_facets = [((i - 1) % k, i) for i in range(k)]
        rays = []
    else:
        for i in range(k - 1):
            hrep.append(_edge_halfplane(pts[i], pts[i + 1]))
        left = ((X.ONE, X.ZERO), pts[0][0])  # x >= x_1
        hrep.append(left)
        if shape == "cup":
            hrep.append(((X.num(-1), X.ZERO), X.neg(pts[-1][0])))  # x <= x_k
            vertices = pts
            vertex_facets = [(k - 1, 0)] + [(i - 1, i) for i in range(1, k - 1)] + [(k - 2, k)]
            rays = [(X.ZERO, X.ONE)]
        else:
            vertices = pts[:-1]
            vertex_facets = [(k - 1, 0)] + [(i - 1, i) for i in range(1, k - 1)]
            rays = [(X.ZERO, X.ONE), X.vsub(pts[-1], pts[-2])]
    facets = list(range(len(hrep)))
    for _ in range(redundant):
        # a strictly loose copy of a constraint that is valid on the whole
        # region: either a facet shifted outwards, or the sum of the two
        # facet normals at a vertex, shifted off that vertex
        i = rng.randrange(len(vertices))
        a, b = vertex_facets[i]
        if rng.random() < 0.5:
            normal = hrep[a][0]
            offset = hrep[a][1]
        else:
            normal = X.vadd(hrep[a][0], hrep[b][0])
            offset = X.dot(vertices[i], normal)
        hrep.append((normal, X.sub(offset, X.num(rng.randint(1, 3)))))
    order = list(range(len(hrep)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return Polygon(
        hrep=[hrep[i] for i in order],
        vertices=vertices,
        facets=sorted(where[i] for i in facets),
        vertex_facets=[(where[a], where[b]) for a, b in vertex_facets],
        rays=rays,
    )


def _cut_op(rng, poly: Polygon, d):
    if d is None:
        nu = (X.num(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
              X.num(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))))
    else:
        nu = (X.num(rng.choice((-2, -1, 1, 2))), X.num(rng.randint(-2, 2), rng.choice((-1, 1)), d))
    values = sorted({X.dot(v, nu) for v in poly.vertices}, key=functools.cmp_to_key(X.cmp))
    j = rng.randrange(len(values) - 1)
    level = X.mul(X.add(values[j], values[j + 1]), X.num(Fraction(1, 2)))
    argv = ("cut", "--", X.to_text(nu[0]), X.to_text(nu[1]), X.to_text(level))
    return argv, {"nu": nu, "level": level}


def _blowup_op(rng, poly: Polygon):
    i = rng.randrange(len(poly.vertices))
    v = poly.vertices[i]
    a, b = poly.vertex_facets[i]
    nu = X.vadd(poly.hrep[a][0], poly.hrep[b][0])
    gaps = [X.dot(X.vsub(w, v), nu) for w in poly.vertices if w != v]
    smallest = min(gaps, key=functools.cmp_to_key(X.cmp)) if gaps else X.ONE
    amount = X.mul(smallest, X.num(Fraction(1, rng.choice((2, 3, 4)))))
    argv = ("blowup", "--", X.to_text(v[0]), X.to_text(v[1]),
            X.to_text(nu[0]), X.to_text(nu[1]), X.to_text(amount))
    return argv, {"vertex": v, "nu": nu, "amount": amount}


# One polygon-scale round: the half-plane counts n per command.  Small n
# dominate the count and large n the time, so p90 lands on the large ones.
POLYGON_ROUND = (
    ("normal-fan", (4, 4, 4, 5, 5, 6, 6, 7, 8, 10, 12)),
    ("blowup", (4, 4, 5, 5, 6, 7, 8, 10)),
    ("cut", (4, 4, 5, 6, 8, 10)),
)


def polygon_op(rng: random.Random, cmd: str, n: int, shape: str, d, redundant: int) -> Op:
    poly = make_polygon(rng, n, shape, d, redundant)
    expect = {"polygon": poly}
    if cmd == "normal-fan":
        argv = ("normal-fan",)
    elif cmd == "cut":
        argv, extra = _cut_op(rng, poly, d)
        expect.update(extra)
    else:
        argv, extra = _blowup_op(rng, poly)
        expect.update(extra)
    tags = (
        f"n={n}",
        "field=Q" if d is None else "field=Q(sqrt(d))",
        f"shape={shape}",
        "redundant" if redundant else "irredundant",
    )
    return Op(cmd, argv, stdin=poly.to_json(), expect=expect, tags=tags)


def polygon_scale(rng: random.Random):
    """Endless stream of normal-fan / cut / blowup ops on JSON polyhedra.

    Each round runs the POLYGON_ROUND slots in shuffled order.  Field,
    redundancy and shape rotate over the slots, the same way in every
    round, so that a run's mix does not depend on how many rounds fit in
    it: 12 of the 25 inputs are over Q(sqrt(d)), 12 carry n // 4
    redundant constraints among their n, and 7 of the 19 normal-fan and
    blowup inputs are unbounded (cup or wedge, in turn).  Cut inputs are
    bounded, so the expected pieces are known from the construction."""
    while True:
        slots = []
        for j, (cmd, n) in enumerate((c, n) for c, ns in POLYGON_ROUND for n in ns):
            d = rng.choice(SQUAREFREE_D) if j % 2 else None
            redundant = n // 4 if j // 2 % 2 else 0
            if cmd == "cut" or j % 3:
                shape = "bounded"
            else:
                shape = ("cup", "wedge")[j // 3 % 2]
            slots.append((cmd, n, shape, d, redundant))
        rng.shuffle(slots)
        for slot in slots:
            yield polygon_op(rng, *slot)


def take(stream, count: int) -> list[Op]:
    return [next(stream) for _ in range(count)]


def mix(ops) -> dict:
    """The input mix of a run: count and share of ops per command and per
    input property."""
    total = len(ops)
    out = {"ops": total}
    for name, key in (("command", lambda op: [op.kind]), ("property", lambda op: op.tags)):
        c = Counter(t for op in ops for t in key(op))
        out[name] = {t: {"count": c[t], "share": round(c[t] / total, 4)} for t in sorted(c)} if total else {}
    return out
