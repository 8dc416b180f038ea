"""Round trips through the JSON forms."""

import json

from quasitoric import jsonio
from quasitoric.pipeline import build_report, trapezoid
from quasitoric.polyhedron import HalfPlane
from quasitoric.scalar import ParamSpec, Q, parse_scalar, sqrt


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
