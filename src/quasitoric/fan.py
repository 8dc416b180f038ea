"""Fans in the plane: normal fans of pointed polyhedra and the
simplicial / rational / smooth / complete predicate suite."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec2, cross, dot, is_zero_vec, primitive_int_vector
from .polyhedron import Polyhedron2
from .quasilattice import Quasilattice
from .scalar import Q


class NonSimpleError(ValueError):
    """A vertex lies on more than two facets, as every vertex of a flat
    region (one without interior) does."""


class NotALatticeError(ValueError):
    """Smoothness asked relative to a dense quasilattice."""


@dataclass(frozen=True)
class Fan2:
    """Rays (as explicit generator vectors, never rescaled) and maximal
    cones given as pairs of ray indices."""

    ray_generators: tuple[Vec2, ...]
    maximal_cones: tuple[tuple[int, int], ...]

    def __post_init__(self):
        gens = tuple(tuple(Q(x) for x in g) for g in self.ray_generators)
        object.__setattr__(self, "ray_generators", gens)
        for g in gens:
            if is_zero_vec(g):
                raise ValueError("zero ray generator")
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if cross(gens[i], gens[j]).is_zero() and dot(gens[i], gens[j]).sign() > 0:
                    raise ValueError(f"rays {i} and {j} are positive multiples")
        for i, j in self.maximal_cones:
            if cross(gens[i], gens[j]).is_zero():
                raise ValueError(f"cone ({i},{j}) is degenerate")


def normal_fan(p: Polyhedron2) -> Fan2:
    """Rays are the inward facet normals as stored in the hrep; maximal
    cones pair the two facets meeting at each vertex, read off
    ``p.incidence``.  NonSimpleError when P is flat, with an empty
    ``p.cycle``, or a vertex lies on more than two constraints."""
    if not p.cycle:
        raise NonSimpleError("the region is flat (it has no interior), so it has no normal fan")
    for v, tight in zip(p.vertices, p.incidence):
        if len(tight) != 2:
            raise NonSimpleError(f"vertex ({v[0]}, {v[1]}) lies on {len(tight)} facets")
    return Fan2(tuple(h.normal for h in p.hrep), p.incidence)


def is_complete(fan: Fan2) -> bool:
    """Do the maximal cones tile the plane?  Each cone, oriented ccw by one
    cross sign, is a step of less than a half turn.  If their starts and
    their ends each list every ray once, the steps form cycles, and those
    that pass ray 0's direction, from side > 0 to side <= 0 (side[r] the
    sign of cross(g_r, g_0)), count their turns: complete iff k >= 3 and
    one passes, for one cycle once around, in angular order."""
    gens = fan.ray_generators
    k = len(gens)
    every = list(range(k))
    steps = [(i, j) if cross(gens[i], gens[j]).sign() > 0 else (j, i) for i, j in fan.maximal_cones]
    if k < 3 or sorted(i for i, _ in steps) != every or sorted(j for _, j in steps) != every:
        return False
    side = [cross(g, gens[0]).sign() for g in gens]
    return sum(side[i] > 0 >= side[j] for i, j in steps) == 1


def is_rational(fan: Fan2, q: Quasilattice) -> bool:
    """Every ray contains a nonzero point of q."""
    return all(q.ray_meets(g) for g in fan.ray_generators)


def is_smooth(fan: Fan2, lattice: Quasilattice) -> bool:
    """Rational with respect to the lattice, and the primitive generators of
    each maximal cone form a lattice basis (determinant +-1).  A ray's
    coordinates on the lattice's HNF basis come from the integer reduction
    of ``Quasilattice.coordinates``: none (off the basis' rational span)
    means the ray misses the lattice, and otherwise ``primitive_int_vector``
    of them is its primitive generator, in the coordinates of that basis."""
    if not lattice.is_lattice():
        raise NotALatticeError("primitivity is undefined for dense quasilattices")
    prims = []
    for g in fan.ray_generators:
        c = lattice.coordinates(g)
        if c is None:
            return False  # ray not rational in this lattice
        prims.append(primitive_int_vector(c))
    for i, j in fan.maximal_cones:
        det = prims[i][0] * prims[j][1] - prims[i][1] * prims[j][0]
        if abs(det) != 1:
            return False
    return True
