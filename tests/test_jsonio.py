"""Round trips through the JSON forms."""

import json

from quasitoric import jsonio
from quasitoric.pipeline import build_report, trapezoid
from quasitoric.polyhedron import HalfPlane
from quasitoric.scalar import ParamSpec, Q, parse_scalar, sqrt

from test_golden import CASES


def test_vec_roundtrip():
    v = (Q(1) + sqrt(2), Q(-3, 4))
    assert jsonio.vec_from_json(jsonio.vec_to_json(v)) == v


def test_halfplane_roundtrip():
    h = HalfPlane((Q(-1), sqrt(2)), Q(-1))
    out = jsonio.halfplane_from_json(jsonio.halfplane_to_json(h))
    assert out.normal == h.normal and out.offset == h.offset


def test_polyhedron_roundtrip():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    p = trapezoid(a)
    obj = jsonio.polyhedron_to_json(p)
    q = jsonio.polyhedron_from_json(obj)
    assert q.same_region(p)
    # reconstruction from the V-rep alone also works
    q2 = jsonio.polyhedron_from_json({"vertices": obj["vertices"], "rays": []})
    assert q2.same_region(p)


def test_report_document_is_json_serializable():
    for text in ("2", "3/2", "sqrt(2)"):
        doc = build_report(ParamSpec(parse_scalar(text)))
        blob = json.dumps(doc.to_json(), sort_keys=True)
        assert json.loads(blob)["polytopal"] is True


def test_report_json_deterministic():
    a = ParamSpec(parse_scalar("1+sqrt(2)"))
    one = json.dumps(build_report(a).to_json(), sort_keys=True)
    two = json.dumps(build_report(a).to_json(), sort_keys=True)
    assert one == two


def _scalar_rows(obj, path="$"):
    """(path, compact JSON) of each list of three or more scalar objects in obj."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _scalar_rows(v, f"{path}.{k}")
    elif isinstance(obj, list):
        if len(obj) >= 3 and all(isinstance(x, dict) and set(x) == {"r", "s", "d", "float"}
                                 for x in obj):
            yield path, json.dumps(obj, sort_keys=True)
        for i, v in enumerate(obj):
            yield from _scalar_rows(v, f"{path}[{i}]")


def test_report_writes_no_scalar_row_twice():
    """A report of each golden parameter writes every row of three or more
    scalars, V_a's relation rows among them, at one JSON path only: a moment
    component's coefficients are its row of ``relation_matrix``, and the
    presentation keeps no copy of them."""
    for text in [argv[1] for _, argv, _ in CASES if argv[0] == "report"]:
        paths = {}
        for path, row in _scalar_rows(build_report(ParamSpec(parse_scalar(text))).to_json()):
            paths.setdefault(row, []).append(path)
        assert [p for p in paths.values() if len(p) > 1] == [], text
