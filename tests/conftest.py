import functools
import math
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from quasitoric.gale import (
    PointConfig,
    VectorConfig,
    VirtualChamber,
    _input_order,
    augment_ghosts,
    gale_points,
    is_balanced,
    relation_basis,
)
from quasitoric.linalg import (
    cross,
    dot,
    is_zero_vec,
    kernel_basis,
    primitive_int_vector,
    rot90,
    rref,
    smul,
    solve2x2,
    vadd,
    vneg,
    vsub,
)
from quasitoric.polyhedron import (
    HalfPlane,
    Ideal,
    InfeasibleRegionError,
    NotPointedError,
    Polyhedron2,
    hrep_from_vrep,
    vrep_from_hrep,
)
from quasitoric.scalar import ParamSpec, Q, QuadScalar, parse_scalar, sqrt

SQUAREFREE_DS = [2, 3, 5, 7]


def polygon(points):
    """The bounded polyhedron with the given points as vertices, in any order
    (points inside the hull drop out)."""
    return vrep_from_hrep(hrep_from_vrep(points))


def contains(p, point) -> bool:
    """The point satisfies every constraint of P."""
    return all(h.holds(point) for h in p.hrep)


def area(p):
    """The area of a bounded P, by the shoelace formula."""
    if not p.bounded:
        raise ValueError("area of an unbounded polyhedron")
    vs = p.vertices
    return abs(sum((cross(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))), Q(0))) / 2


def conjugate(x):
    """r - s*sqrt(d) for x = r + s*sqrt(d)."""
    return QuadScalar(x.r, -x.s, x.d)


# a rendered sqrt term (``format_scalar``'s form), with the sign before it
_SQRT_TERM = re.compile(r"([+-]?)((?:\d+(?:/\d+)?\*)?sqrt\(\d+\))")


def conjugate_text(text: str) -> str:
    """``text`` with each rendered scalar r + s*sqrt(d) written as
    r - s*sqrt(d): the sign between a rational part and its sqrt term flips,
    and a leading sqrt term gains a minus or loses it."""
    def flip(m):
        after_rational = m.start() > 0 and text[m.start() - 1].isdigit()
        sign = {"+": "-", "-": "+" if after_rational else "", "": "-"}[m.group(1)]
        return sign + m.group(2)
    return _SQRT_TERM.sub(flip, text)


def conjugate_report(obj):
    """The JSON ``obj`` with every scalar {r, s, d, float} taken to its
    Galois conjugate r - s*sqrt(d), the advisory float by ``to_float``'s own
    formula, null beyond float range, and every string by
    ``conjugate_text``.  ``Fraction`` is the only arithmetic: nothing of
    ``quasitoric`` is used."""
    if isinstance(obj, dict):
        if obj.keys() == {"r", "s", "d", "float"}:
            r, s = Fraction(obj["r"]), -Fraction(obj["s"])
            try:
                value = r.numerator / r.denominator
                if s:
                    value += (s.numerator / s.denominator) * math.sqrt(obj["d"])
            except OverflowError:
                value = math.inf
            value = value if math.isfinite(value) else None
            return {"r": obj["r"], "s": str(s), "d": obj["d"], "float": value}
        return {k: conjugate_report(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [conjugate_report(x) for x in obj]
    return conjugate_text(obj) if isinstance(obj, str) else obj


def in_q(x) -> bool:
    """x = r + s*sqrt(d) lies in Q: s = 0."""
    return x.s == 0


def is_integer(x) -> bool:
    """x is a rational integer."""
    return in_q(x) and x.r.denominator == 1


def denominator(a):
    """q for a = p/q in lowest terms, None for an irrational a; read off
    a's parts, never off Gamma_a."""
    return a.value.r.denominator if in_q(a.value) else None


def solve_linear(rows, rhs):
    """One exact solution of rows * x = rhs, or None if inconsistent."""
    red, pivots, _ = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    n = len(rows[0]) if rows else 0
    if n in pivots:
        return None
    x = [Q(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return x


def matrix_rank(rows):
    """The rank over the scalar field, by ``rref``: the oracle for
    ``VectorConfig.span_dim``, which reads it off cross products."""
    return len(rref(rows)[1])


def echelonize(rows):
    """Scale each row's leading entry to 1 and clear it from the other rows,
    one row at a time in input order: the row reduction that defined the
    order of a relation basis (and so Lambda) before it was ``rref``'s rows
    in the input rows' order."""
    rows = [list(r) for r in rows]
    for i, row in enumerate(rows):
        lead = next(c for c, x in enumerate(row) if not x.is_zero())
        inv = row[lead].inv()
        rows[i] = [x * inv for x in row]
        for j in range(len(rows)):
            if j != i and not rows[j][lead].is_zero():
                f = rows[j][lead]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[i])]
    return rows


def lattice_basis(q):
    """A Z-basis of a discrete quasilattice: its HNF rows, scaled back into
    the plane.  ValueError for a dense one."""
    basis, den, d = q._hnf
    if len(basis) != 2:
        raise ValueError("dense quasilattice has no lattice basis")
    return tuple((QuadScalar(Fraction(h[0], den), Fraction(h[1], den), d),
                  QuadScalar(Fraction(h[2], den), Fraction(h[3], den), d)) for h in basis)


def primitive_in_lattice(g, basis):
    """Primitive coordinates on the basis of the ray through g, by solving
    for g's coordinates over the field with ``solve2x2``; None if they are
    irrational, i.e. the ray misses the lattice."""
    c = solve2x2((basis[0][0], basis[1][0]), (basis[0][1], basis[1][1]), g)
    if c is None or not (in_q(c[0]) and in_q(c[1])):
        return None
    return primitive_int_vector([c[0].r, c[1].r])


def smooth_by_solving(fan, lattice):
    """``fan.is_smooth`` as it was before it read coordinates off the HNF
    reduction: each ray solved on ``lattice_basis`` by
    ``primitive_in_lattice``, and every maximal cone of determinant +-1."""
    basis = lattice_basis(lattice)
    prims = [primitive_in_lattice(g, basis) for g in fan.ray_generators]
    return None not in prims and all(
        abs(prims[i][0] * prims[j][1] - prims[i][1] * prims[j][0]) == 1
        for i, j in fan.maximal_cones)


def pairwise_vertices(hrep):
    """The points where two boundary lines meet and every constraint holds,
    each once, in the order of the first pair that meets there: the
    vertices of the region, by brute force."""
    pts = []
    for g, h in combinations(hrep, 2):
        p = solve2x2(g.normal, h.normal, (g.offset, h.offset))
        if p is not None and p not in pts and all(f.holds(p) for f in hrep):
            pts.append(p)
    return pts


def fm_feasible(hrep):
    """Exact Fourier-Motzkin feasibility of the constraints <mu, n_i> >= c_i."""
    # constraints as a*x + b*y >= c
    cons = [(h.normal[0], h.normal[1], h.offset) for h in hrep]
    lower, upper, rest = [], [], []  # bounds on x given y
    for a, b, c in cons:
        sa = a.sign()
        if sa > 0:
            lower.append((b, c, a))  # x >= (c - b*y)/a
        elif sa < 0:
            upper.append((b, c, a))  # x <= (c - b*y)/a
        else:
            rest.append((b, c))  # b*y >= c
    # eliminate x: for each (lower, upper) pair require compatibility
    for bl, cl, al in lower:
        for bu, cu, au in upper:
            # (cl - bl*y)/al <= (cu - bu*y)/au with al>0, au<0
            # multiply out: au*(cl - bl*y) >= al*(cu - bu*y)   (au<0 flips)
            b = al * bu - au * bl
            c = al * cu - au * cl
            rest.append((b, c))
    lo, hi = None, None
    for b, c in rest:
        sb = b.sign()
        if sb > 0:
            v = c / b
            if lo is None or v > lo:
                lo = v
        elif sb < 0:
            v = c / b
            if hi is None or v < hi:
                hi = v
        elif c.sign() > 0:
            return False
    return lo is None or hi is None or lo <= hi


def region_vertices(hrep):
    """The vertices of a half-plane intersection, in no particular order,
    by ``pairwise_vertices``, as ``is_polytopal`` found them before it
    clipped.  Without one, InfeasibleRegionError or NotPointedError as
    ``fm_feasible`` tells, where ``vrep_from_hrep`` reads its sign table."""
    verts = pairwise_vertices(hrep)
    if not verts:
        if fm_feasible(hrep):
            raise NotPointedError("region has no vertex")
        raise InfeasibleRegionError("constraints have empty intersection")
    return verts


def recession_rays(hrep):
    """The directions +-rot90(n) of the constraints' normals n that make
    <r, n_g> >= 0 with every constraint g, by exact dot products: the oracle
    for the rays that ``vrep_from_hrep`` reads off its table of cross signs."""
    return [r for h in hrep for r in (rot90(h.normal), vneg(rot90(h.normal)))
            if all(dot(r, g.normal).sign() >= 0 for g in hrep)]


def scan_incidence(p):
    """Per vertex of P, the indices of the constraints of slack 0 there, by
    a scan of every vertex against every constraint: the oracle for the
    incidence that ``vrep_from_hrep``, ``split`` and ``cap`` build."""
    return tuple(tuple(i for i, h in enumerate(p.hrep) if h.slack(v).is_zero())
                 for v in p.vertices)


def boundary(p):
    """The labelled boundary cycle of P with an interior, from its vertices,
    rays and incidence: its vertices ccw from the one on the incoming
    unbounded edge, the furthest along rot90 of its direction, then its rays
    ccw (that one last) as ideal points, each with the label of its outgoing
    edge, the index of its constraint, None on the arc at infinity.  In an
    irredundant hrep a vertex is tight at its two edges' constraints only
    (``p.incidence``): neighbours share exactly one, and of an unbounded
    edge it is the one parallel to the ray.  The oracle for the cycle that
    ``vrep_from_hrep`` walks off its sign table."""
    vs, inc, rays = p.vertices, p.incidence, p.rays
    if rays:
        rays = rays[::-1] if cross(rays[0], rays[-1]).sign() < 0 else rays
        n = rot90(rays[-1])
        i = max(range(len(vs)), key=lambda k: dot(vs[k], n))
        vs, inc = vs[i:] + vs[:i], inc[i:] + inc[:i]
    labels = [(set(a) & set(b)).pop() for a, b in zip(inc, inc[1:] + (() if rays else inc[:1]))]
    if rays:
        def along(tight, r):
            return tight[0] if dot(r, p.hrep[tight[0]].normal).is_zero() else tight[1]
        labels += [along(inc[-1], rays[0]), *[None] * (len(rays) - 1), along(inc[0], rays[-1])]
    return tuple(zip([*vs, *map(Ideal, rays)], labels))


def same_cycle(c, d) -> bool:
    """c and d list the same entries with the same labels in the same
    cyclic order."""
    return len(c) == len(d) and (not c or any(c[i:] + c[:i] == d for i in range(len(c))))


def _angle_class(v):
    """0 for the upper half turn (includes +x axis), 1 for the lower."""
    s1 = v[1].sign()
    if s1 > 0 or (s1 == 0 and v[0].sign() > 0):
        return 0
    return 1


def _angle_cmp(u, v) -> int:
    cu, cv = _angle_class(u), _angle_class(v)
    if cu != cv:
        return -1 if cu < cv else 1
    return -cross(u, v).sign()


def sort_by_angle(vectors):
    """Counterclockwise angular order starting from the +x axis."""
    return sorted(vectors, key=functools.cmp_to_key(_angle_cmp))


def complete_by_sorting(fan) -> bool:
    """The rays, sorted by angle, are consecutively paired by the maximal
    cones, each pair salient: the oracle for ``is_complete``, which walks
    the cones instead."""
    gens = fan.ray_generators
    k = len(gens)
    if k < 3 or len(fan.maximal_cones) != k:
        return False
    ring = [gens.index(g) for g in sort_by_angle(list(gens))]
    pairs = [(ring[t], ring[(t + 1) % k]) for t in range(k)]
    return all(cross(gens[i], gens[j]).sign() > 0 for i, j in pairs) and (
        {frozenset(c) for c in pairs} == {frozenset(c) for c in fan.maximal_cones})


def is_flat(p) -> bool:
    """Every vertex difference and ray of P lies on one line."""
    dirs = [vsub(u, p.vertices[0]) for u in p.vertices[1:]] + list(p.rays)
    return all(cross(d, e).is_zero() for d in dirs for e in dirs)


def hand_built(hrep, vertices, rays=()):
    """The Polyhedron2 with the given hrep, vertices and rays, as given, the
    incidence of ``scan_incidence`` and the cycle of ``boundary``: a
    polyhedron built without an enumeration, as a test needs one that
    ``vrep_from_hrep`` would not make or would make too slowly."""
    p = Polyhedron2(tuple(hrep), tuple(vertices), tuple(rays), (), ())
    p = replace(p, incidence=scan_incidence(p))
    return replace(p, cycle=boundary(p))


def hirzebruch_vector_config(a):
    """V_a = ((1,0),(0,1),(0,-1),(-1,a),(0,-a)), fifth vector ghost, typed
    out: the oracle for ``gale_side``'s V_a, read off the normal fan."""
    base = VectorConfig(((Q(1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)), (Q(-1), a.value)))
    return augment_ghosts(base)


def kernel_rows(vectors):
    """The standard kernel basis of the configuration matrix, whose columns
    are the vectors."""
    return kernel_basis([[v[0] for v in vectors], [v[1] for v in vectors]])


def kernel_rows_for(normals):
    """Relation rows for the normals, reduced from their own kernel: the
    balanced path goes through ``relation_basis`` (all-ones first row);
    otherwise the echelonized kernel.  The oracle for the presentation's
    rows, which a report reads off V_a's relation basis."""
    config = VectorConfig(tuple(normals))
    if is_balanced(config):
        return relation_basis(config)
    return _input_order(rref(kernel_rows(normals)))


def facet_relation_rows(doc):
    """P_a's relation rows in a report, as its presentation takes them: the
    rows of V_a's relation matrix, their one owner, below the all-ones row,
    with the ghost column dropped."""
    ghosts = doc.gale.vector_config.ghost_indices
    return tuple(tuple(b for j, b in enumerate(r, start=1) if j not in ghosts)
                 for r in doc.gale.relation_matrix[1:])


def fractions(max_num=30, max_den=12):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def rational_scalars(max_num=30, max_den=12):
    return st.builds(QuadScalar, fractions(max_num, max_den))


def quad_scalars(d, max_num=20, max_den=8):
    """Elements of Q(sqrt(d)), irrational part allowed to vanish."""
    return st.builds(
        lambda r, s: QuadScalar(r, s, d if s != 0 else None),
        fractions(max_num, max_den),
        fractions(max_num, max_den),
    )


def any_scalars():
    return st.one_of(
        rational_scalars(),
        *[quad_scalars(d) for d in SQUAREFREE_DS],
    )


def params():
    """Positive parameters: rationals and rational + sqrt(d) combinations."""
    return st.one_of(
        st.builds(lambda p, q: ParamSpec(QuadScalar(Fraction(p, q))),
                  st.integers(1, 12), st.integers(1, 12)),
        st.sampled_from([
            ParamSpec(parse_scalar("sqrt(2)")),
            ParamSpec(parse_scalar("sqrt(3)")),
            ParamSpec(parse_scalar("1+sqrt(2)")),
            ParamSpec(parse_scalar("1/2+1/2*sqrt(5)")),
        ]),
    )


HIRZEBRUCH_CHAMBER = ({3, 4, 5}, {1, 3, 5}, {1, 2, 5}, {2, 4, 5})


@st.composite
def chambers(draw):
    """Lambda_a of F_a for a random a, with the chamber of P_a or random
    triangles, and some points perturbed: moved, two put on a third, or one
    put on the line through two others, so that chamber triangles also
    degenerate to segments and single points."""
    a = draw(params())
    pts = list(gale_points(relation_basis(hirzebruch_vector_config(a))).points)
    for _ in range(draw(st.integers(0, 3))):
        k, i, j = (draw(st.integers(0, 4)) for _ in range(3))
        kind = draw(st.sampled_from(["move", "coincide", "collinear"]))
        if kind == "move":
            pts[k] = (pts[k][0] + draw(fractions(4, 4)), pts[k][1] + draw(fractions(4, 4)))
        elif kind == "coincide":
            pts[k] = pts[j] = pts[i]
        else:
            t = QuadScalar(draw(fractions(3, 3)))
            pts[k] = tuple(p + t * (q - p) for p, q in zip(pts[i], pts[j]))
    triples = [set(c) for c in combinations(range(1, 6), 3)]
    subsets = draw(st.one_of(
        st.just(HIRZEBRUCH_CHAMBER),
        st.lists(st.sampled_from(triples), min_size=1, max_size=4),
    ))
    return PointConfig(tuple(pts)), VirtualChamber(frozenset(frozenset(s) for s in subsets))


def triangle_constraints(pts):
    """The (half-plane, strict) constraints of the relative interior of the
    hull of three points, case by case: a proper triangle's three edges,
    strict, each normal pointing at the third point; a segment's line both
    ways, weak, and its two end caps, strict; a point's four axis
    constraints, weak."""
    p1, p2, p3 = pts
    if not cross(vsub(p2, p1), vsub(p3, p1)).is_zero():
        out = []
        for u, v, w in ((p1, p2, p3), (p2, p3, p1), (p3, p1, p2)):
            n = rot90(vsub(v, u))
            n = n if dot(vsub(w, u), n).sign() > 0 else vneg(n)
            out.append((HalfPlane(n, dot(u, n)), True))
        return out
    direction = next(
        (vsub(b, a) for a, b in ((p1, p2), (p1, p3), (p2, p3)) if not is_zero_vec(vsub(b, a))),
        None,
    )
    if direction is None:
        return [
            (HalfPlane((Q(1), Q(0)), p1[0]), False),
            (HalfPlane((Q(-1), Q(0)), -p1[0]), False),
            (HalfPlane((Q(0), Q(1)), p1[1]), False),
            (HalfPlane((Q(0), Q(-1)), -p1[1]), False),
        ]
    params = [dot(p, direction) for p in pts]
    n = rot90(direction)
    return [
        (HalfPlane(n, dot(p1, n)), False),
        (HalfPlane(vneg(n), -dot(p1, n)), False),
        (HalfPlane(direction, min(params)), True),
        (HalfPlane(vneg(direction), -max(params)), True),
    ]


def line_key(h, strict):
    """A constraint up to positive scaling, with its strictness: the normal
    and offset divided by the normal's largest absolute coordinate."""
    scale = max(abs(h.normal[0]), abs(h.normal[1])).inv()
    return (h.normal[0] * scale, h.normal[1] * scale, h.offset * scale, strict)


def chamber_halfplanes(lam, chamber):
    """The (half-plane, strict) constraints of the chamber's open triangles."""
    return [c for sigma in chamber.subsets
            for c in triangle_constraints([lam.points[i - 1] for i in sorted(sigma)])]


@st.composite
def halfplane_systems(draw):
    """Small systems over Q or Q(sqrt(2)), with redundancy mixed in: strictly
    loose copies, lines through a vertex of the region (some supporting it),
    flipped copies that flatten the region to a segment, and, when ``upper``,
    normals in the closed upper half-plane so the region is unbounded."""
    irrational = draw(st.booleans())
    upper = draw(st.booleans())

    def scalar(bound):
        r = draw(st.integers(-bound, bound))
        s = draw(st.integers(-1, 1)) if irrational else 0
        return Q(r) + s * sqrt(2) if s else Q(r)

    def normal():
        n = (scalar(3), scalar(3))
        if upper:
            n = (n[0], abs(n[1])) if n[1] else (abs(n[0]), n[1])
        return n if not is_zero_vec(n) else (Q(0), Q(1))

    hs = [HalfPlane(normal(), scalar(6)) for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["loose", "through", "support", "flip"]))
        g = hs[draw(st.integers(0, len(hs) - 1))]
        verts = pairwise_vertices(hs)
        v = verts[draw(st.integers(0, len(verts) - 1))] if verts else None
        tight = [f.normal for f in hs if v is not None and f.tight(v)]
        if kind == "loose":
            k = draw(st.integers(1, 2))
            new = HalfPlane(smul(k, g.normal), k * g.offset - draw(st.integers(1, 3)))
        elif kind == "through" and v is not None:
            n = normal()
            new = HalfPlane(n, dot(v, n))
        elif kind == "support" and len(tight) >= 2 and not is_zero_vec(vadd(*tight[:2])):
            n = vadd(*tight[:2])
            new = HalfPlane(n, dot(v, n))
        else:
            new = g.flipped()
        hs.insert(draw(st.integers(0, len(hs))), new)
    return hs


def wrap_in_package(monkeypatch, wrappers):
    """Replace each function f of ``wrappers`` by ``wrappers[f](f)`` under
    every name a package module binds it to, as the benchmark's tracer
    wraps them."""
    for name, mod in list(sys.modules.items()):
        if name == "quasitoric" or name.startswith("quasitoric."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[val](val))
