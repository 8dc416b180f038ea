"""Small exact linear algebra: 2D vectors over QuadScalar, row reduction
over the field (rref), and the Hermite normal form of integer row spans."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalar import Q, QuadScalar

Vec2 = tuple[QuadScalar, QuadScalar]


def vadd(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] + v[0], u[1] + v[1])


def vsub(u: Vec2, v: Vec2) -> Vec2:
    return (u[0] - v[0], u[1] - v[1])


def vneg(u: Vec2) -> Vec2:
    return (-u[0], -u[1])


def smul(c, u: Vec2) -> Vec2:
    c = Q(c)
    return (c * u[0], c * u[1])


def dot(u: Vec2, v: Vec2) -> QuadScalar:
    return u[0] * v[0] + u[1] * v[1]


def cross(u: Vec2, v: Vec2) -> QuadScalar:
    return u[0] * v[1] - u[1] * v[0]


def rot90(u: Vec2) -> Vec2:
    """Counterclockwise quarter turn."""
    return (-u[1], u[0])


def is_zero_vec(u: Vec2) -> bool:
    return u[0].is_zero() and u[1].is_zero()


def solve2x2(a: Vec2, b: Vec2, rhs: Vec2) -> Vec2 | None:
    """Solve [a; b] x = rhs for rows a, b; None if the rows are dependent."""
    det = cross(a, b)
    if det.is_zero():
        return None
    x = (rhs[0] * b[1] - rhs[1] * a[1]) / det
    y = (rhs[1] * a[0] - rhs[0] * b[0]) / det
    return (x, y)


# -- generic exact row reduction ------------------------------------------


def rref(rows: list[list[QuadScalar]]) -> tuple[list[list[QuadScalar]], list[int], list[int]]:
    """Reduced row echelon form over the scalar field; returns (rows,
    pivots, sources): the reduced rows, nonzero ones first by pivot column,
    the pivot columns, and for each row the index of the input row it was
    reduced from.  Each column's pivot row is the first nonzero one there
    among the rows not yet pivots, in input order: a pivot row moves up to
    its place and the others keep their order."""
    rows = [list(r) for r in rows]
    sources = list(range(len(rows)))
    pivots: list[int] = []
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows.insert(rank, rows.pop(piv))
        sources.insert(rank, sources.pop(piv))
        inv = rows[rank][col].inv()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots, sources


def kernel_basis(rows: list[list[QuadScalar]]) -> list[list[QuadScalar]]:
    """Standard kernel basis: one vector per free column, a 1 in that column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots, _ = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


# -- integer lattices -------------------------------------------------------


def hnf_rows(mat: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form basis of the row span (nonzero rows)."""
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: list[list[int]] = []
    work = rows
    col = 0
    while work and col < ncols:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            reduced = [base]
            for r in nz[1:]:
                k = r[col] // base[col]
                nr = [x - k * y for x, y in zip(r, base)]
                if nr[col] != 0:
                    reduced.append(nr)
                elif any(nr):
                    rest.append(nr)
            if len(reduced) == 1:
                break
            nz = reduced
        pivot = nz[0] if nz[0][col] > 0 else [-x for x in nz[0]]
        out.append(pivot)
        work = rest
        col += 1
    # reduce entries above pivots for a canonical form
    for i in reversed(range(len(out))):
        pcol = next(c for c in range(ncols) if out[i][c] != 0)
        for j in range(i):
            k = out[j][pcol] // out[i][pcol]
            if k:
                out[j] = [x - k * y for x, y in zip(out[j], out[i])]
    return out


def primitive_int_vector(v: list[Fraction]) -> list[int]:
    """Scale a nonzero rational vector to its primitive integer form,
    preserving direction."""
    from math import lcm

    den = 1
    for x in v:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return [x // g for x in ints]
