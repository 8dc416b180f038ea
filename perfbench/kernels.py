"""Kernel timings: single layer calls on fixed inputs, untraced, per call.

These are the layer rows of the benchmark that do not depend on the
workload: QuadScalar arithmetic on Q(sqrt(5)) operands, a 4x6 rref,
quasilattice membership, vertex enumeration at n = 4, 8 and 16, and the
host-speed kernel (``host``) against which the end-to-end times are scaled.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from . import exact as X
from . import host
from .inputs import make_polygon


def per_call(fn, number: int, repeat: int) -> float:
    """Median over `repeat` batches of the wall time of one call, in s."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def _rref_matrix(parse_scalar):
    rng = random.Random(4)
    rows = []
    for _ in range(4):
        row = []
        for _ in range(6):
            r = X.num(rng.randint(-5, 5), rng.choice((0, 0, 1, -1)), 5)
            row.append(parse_scalar(X.to_text(r)))
        rows.append(row)
    return rows


def _halfplanes(q, n: int):
    poly = make_polygon(random.Random(n), n, "bounded", None, 0)
    return [
        q.HalfPlane((q.parse_scalar(X.to_text(nx)), q.parse_scalar(X.to_text(ny))),
                    q.parse_scalar(X.to_text(c)))
        for (nx, ny), c in poly.hrep
    ]


def measure() -> dict:
    import quasitoric as q
    from quasitoric.linalg import rref

    x = q.parse_scalar("3/7+2/5*sqrt(5)")
    y = q.parse_scalar("-5/3+1/4*sqrt(5)")
    z = q.parse_scalar("-7/3+sqrt(5)")  # opposite signs: the costly sign path
    rows = _rref_matrix(q.parse_scalar)
    a = q.ParamSpec(q.parse_scalar("1/2+1/2*sqrt(5)"))
    lattice = q.hirzebruch_quasilattice(a)
    member = (q.Q(1), q.Q(3) + a.value)  # 2*(1,0) + 3*(0,1) + (-1,a)
    out = {
        "scalar.mul_us": per_call(lambda: x * y, 500, 5) * 1e6,
        "scalar.add_us": per_call(lambda: x + y, 500, 5) * 1e6,
        "scalar.sign_us": per_call(z.sign, 2000, 5) * 1e6,
        "scalar.inv_us": per_call(x.inv, 500, 5) * 1e6,
        "linalg.rref_us": per_call(lambda: rref(rows), 20, 5) * 1e6,
        "quasilattice.member_us": per_call(lambda: lattice.member(member), 50, 5) * 1e6,
        "host.ref_ms": per_call(host.kernel, 1, 25) * 1e3,
    }
    for n, number, repeat in ((4, 5, 3), (8, 1, 5), (16, 1, 3)):
        hp = _halfplanes(q, n)
        out[f"polyhedron.vrep_n{n}_ms"] = per_call(lambda: q.vrep_from_hrep(hp), number, repeat) * 1e3
    return out
