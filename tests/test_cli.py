"""CLI behavior: exit codes, deterministic bytes, SVG output."""

import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasitoric.cli import main
from quasitoric.jsonio import polyhedron_from_json

from conftest import same_cycle


def run_cli(argv, stdin_text=""):
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


def assert_input_error(code, err):
    """Bad input: exit 2 and a single 'error:' line on stderr."""
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


SQUARE = json.dumps({"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"]]})


def test_report_success_and_determinism():
    code1, out1, _ = run_cli(["report", "3/2"])
    code2, out2, _ = run_cli(["report", "3/2"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["polytopal"] is True
    assert doc["gamma"]["kind"] == "finite_cyclic"
    assert doc["gamma"]["order"] == 2


def test_report_irrational():
    code, out, _ = run_cli(["report", "sqrt(2)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"]["kind"] == "dense_cyclic"
    assert doc["fan_predicates"]["rational_in_qa"] is True
    assert doc["fan_predicates"]["rational_in_z2"] is False
    assert doc["warnings"]


def test_parse_error_exit_code():
    for argv in (
        ["report", "bananas"],
        ["report", "1/0"],
        ["cut", "1", "1", "1/2", "--a", "1/0"],
        ["report", "sqrt(1000000000039)"],  # d above scalar.MAX_D
        ["--tol", "1", "report", "2"],  # usage errors: unknown flag,
        ["report"],  # missing argument,
        ["no-such-command"],  # unknown command
    ):
        assert_input_error(*run_cli(argv, stdin_text=SQUARE)[::2])


EMPTY = json.dumps({"hrep": [{"normal": ["1", "0"], "offset": "0"},
                             {"normal": ["-1", "0"], "offset": "1"}]})


ERRORS = [
    (["report", "bananas"], "", 2, "cannot parse scalar 'bananas' at position 0"),
    (["normal-fan"], EMPTY, 3, "stdin polyhedron: constraints have empty intersection"),
    (["gale-dual"], '{"vectors": [[1, 0]]}', 2, "need at least two vectors"),
    (["cut", "1", "0", "5"], SQUARE, 3, "cut line <mu, (1, 0)> = 5 does not meet the interior"),
    (["blowup", "5", "5", "1", "0", "1/2"], SQUARE, 3,
     "blow-up point (5, 5) is not a vertex of the polyhedron"),
    (["classify-leaves", "0"], "", 2, "parameter must be positive, got 0"),
]


@pytest.mark.parametrize("argv, stdin_text, code, message", ERRORS, ids=[e[0][0] for e in ERRORS])
def test_error_names_its_command(argv, stdin_text, code, message):
    """An input or geometry error of a subcommand is one line, 'error:
    <command>: <message>', with the command's exit code."""
    assert run_cli(argv, stdin_text) == (code, "", f"error: {argv[0]}: {message}\n")


SLAB = json.dumps({"hrep": [{"normal": ["0", "1"], "offset": "0"},
                            {"normal": ["0", "-1"], "offset": "-1"}]})
STDIN_COMMANDS = [["normal-fan"], ["cut", "1", "0", "1/2"], ["blowup", "0", "0", "1", "1", "1/2"]]


@pytest.mark.parametrize("argv", STDIN_COMMANDS, ids=[c[0] for c in STDIN_COMMANDS])
@pytest.mark.parametrize("stdin_text, message", [
    (EMPTY, "constraints have empty intersection"),
    (SLAB, "region has no vertex"),
], ids=["empty", "unpointed"])
def test_stdin_errors_name_their_stage(argv, stdin_text, message):
    """An empty or unpointed region on stdin fails in the enumeration of the
    stdin polyhedron, before the command's own geometry: the line says so."""
    assert run_cli(argv, stdin_text) == (3, "", f"error: {argv[0]}: stdin polyhedron: {message}\n")


USAGE_ERRORS = [
    (["report"], "report: the following arguments are required: a"),
    (["normal-fan", "--a"], "normal-fan: argument --a: expected one argument"),
    (["gale-dual", "--a"], "gale-dual: argument --a: expected one argument"),
    (["cut", "1"], "cut: the following arguments are required: nu_y, level"),
    (["blowup", "1", "2"], "blowup: the following arguments are required: nu_x, nu_y, amount"),
    (["classify-leaves"], "classify-leaves: the following arguments are required: a"),
    ([], "quasitoric: the following arguments are required: command"),
    # an unknown flag before the command, whose value is no command
    (["--tol", "1", "report", "2"], "quasitoric: unrecognized arguments: --tol"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[e[0][0] if e[0] else "none" for e in USAGE_ERRORS])
def test_usage_error_names_its_command(argv, message):
    """A usage error names its subcommand as a run error does, not as
    'quasitoric <command>'; one with no subcommand names 'quasitoric'."""
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_separator_before_the_command():
    """'--' before the command only ends the options: the report is the
    same bytes, and a word after it that looks like an option is no
    command."""
    separated = run_cli(["--", "report", "2"])
    assert separated == run_cli(["report", "2"]) and separated[0] == 0
    assert run_cli(["--", "-h"]) == (2, "", "error: quasitoric: argument command: invalid choice: '-h'\n")


def test_help_exits_zero():
    for argv in (["-h"], ["report", "-h"]):
        code, out, err = run_cli(argv)
        assert code == 0 and out.startswith("usage: ") and err == ""


def test_one_parser_serves_every_call():
    """The parser is built once per process; a usage error, help and a
    stdin command in between leave a report's exit code and bytes as they
    were."""
    first = run_cli(["report", "2"])
    assert_input_error(*run_cli(["report"])[::2])
    code, out, _ = run_cli(["-h"])
    assert code == 0 and out.startswith("usage: quasitoric ")
    code, out, _ = run_cli(["normal-fan"], stdin_text=SQUARE)
    assert code == 0 and len(json.loads(out)["ray_generators"]) == 4
    second = run_cli(["report", "2"])
    assert first[0] == second[0] == 0 and first[1] == second[1]


def test_report_large_d_is_fast():
    # the squarefree test of d runs once, not once per scalar built
    start = time.perf_counter()
    code, out, _ = run_cli(["report", "sqrt(999999999989)"])
    assert code == 0 and json.loads(out)["a"]["d"] == 999999999989
    assert time.perf_counter() - start < 10


def test_negative_parameter_rejected():
    code, _, _ = run_cli(["report", "--", "-1"])
    assert code == 2


def test_normal_fan_from_parameter():
    code, out, _ = run_cli(["normal-fan", "--a", "2"])
    assert code == 0
    fan = json.loads(out)
    assert len(fan["ray_generators"]) == 4
    assert len(fan["maximal_cones"]) == 4


def test_normal_fan_from_stdin():
    payload = json.dumps(
        {
            "vertices": [
                [{"r": "0", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "1", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "0", "s": "0", "d": None}, {"r": "1", "s": "0", "d": None}],
            ],
            "rays": [],
        }
    )
    code, out, _ = run_cli(["normal-fan"], stdin_text=payload)
    assert code == 0
    assert len(json.loads(out)["ray_generators"]) == 3


def test_bad_stdin_schema():
    code, _, err = run_cli(["normal-fan"], stdin_text='{"bad": 1}')
    assert code == 2
    for cmd in (["normal-fan"], ["gale-dual"], ["cut", "1", "0", "1"]):
        for payload in (
            "not json",
            "[1,2]",
            "3",
            '{"vertices": [["1/0", 0], [1, 0], [0, 1]]}',
            '{"vertices": [[{"r": "1e400", "s": "0", "d": null}, 0], [1, 0], [0, 1]]}',
            '{"vertices": 3}',
            '{"vertices": [1]}',
            '{"hrep": [1]}',
            '{"vectors": [[1, 0], [0, 1]], "ghost_indices": [[1]]}',
            "[" * 100000,  # deeper than json.load can recurse
        ):
            assert_input_error(*run_cli(cmd, stdin_text=payload)[::2])
    # a syntax error names the stage that read it
    assert run_cli(["cut", "1", "0", "1"], stdin_text="") == (
        2, "", "error: cut: stdin JSON: Expecting value: line 1 column 1 (char 0)\n")


def test_stdin_bool_is_not_a_number():
    """JSON true is not the offset 1: exit 2, not a region without vertex."""
    payload = json.dumps({"hrep": [{"normal": [1, 0], "offset": True}]})
    code, out, err = run_cli(["normal-fan"], stdin_text=payload)
    assert_input_error(code, err)
    assert out == "" and err.startswith("error: normal-fan: ")


def _regular_gon(n):
    """The vertices of a regular n-gon on the unit circle, rounded to 3
    decimals, as JSON number strings."""
    return [[str(Fraction(round(1000 * f(2 * math.pi * k / n)), 1000)) for f in (math.cos, math.sin)]
            for k in range(n)]


@pytest.mark.parametrize("payload, what", [
    ({"hrep": [{"normal": v, "offset": "-1"} for v in _regular_gon(33)]}, "half-planes"),
    ({"vertices": _regular_gon(30), "rays": [["0", "1"], ["1", "1"], ["1", "0"]]},
     "vertices and rays"),
], ids=["hrep", "vertices-and-rays"])
def test_stdin_polyhedron_is_capped(payload, what):
    """33 half-planes, or vertices plus rays, are refused with exit 2 and
    one line before any enumeration: a regular 32-gon, the largest input
    taken, enumerates in seconds, but the refusal takes well under one."""
    for argv in STDIN_COMMANDS:
        start = time.perf_counter()
        result = run_cli(argv, json.dumps(payload))
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", f"error: {argv[0]}: stdin polyhedron: more than 32 {what}\n")


def test_stdin_cap_counts_entries_as_given():
    """32 entries are taken, repeats included: the square's four half-planes,
    or its four vertices, eight times each give the square's fan."""
    square = json.loads(SQUARE)
    hrep = polyhedron_from_json(square).hrep
    halfplanes = [{"normal": [str(x) for x in h.normal], "offset": str(h.offset)} for h in hrep]
    expected = run_cli(["normal-fan"], SQUARE)
    assert expected[0] == 0
    assert run_cli(["normal-fan"], json.dumps({"hrep": halfplanes * 8})) == expected
    assert run_cli(["normal-fan"], json.dumps({"vertices": square["vertices"] * 8})) == expected


def test_cli_import_leaves_svg_unloaded():
    """``quasitoric.svg`` is imported only to draw a figure, under
    ``--svg-dir``, so a process that only imports the CLI does not load it."""
    code = "import sys, quasitoric.cli; print('quasitoric.svg' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_ghost_index_must_name_a_vector():
    """Ghost indices are ints in 1..len(vectors): 9 of 4 vectors, 0 and true
    are refused with exit 2 and one line."""
    for ghosts in ([9], [0], [True], [5]):
        payload = json.dumps({"vectors": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                              "ghost_indices": ghosts})
        code, out, err = run_cli(["gale-dual"], stdin_text=payload)
        assert_input_error(code, err)
        assert out == "" and err.startswith("error: gale-dual: ")
    payload = json.dumps({"vectors": [[1, 0], [0, 1], [-1, 0], [0, -1]], "ghost_indices": [4]})
    code, out, _ = run_cli(["gale-dual"], stdin_text=payload)
    assert code == 0 and json.loads(out)["vector_config"]["ghost_indices"] == [4, 5]


def test_stdin_vector_configuration_is_capped():
    """33 vectors are refused with exit 2 and one line before any relation
    basis, whose work grows as about n^3; 32 are taken, and balanced by a
    ghost."""
    vectors = [[str(k), "1"] for k in range(33)]
    start = time.perf_counter()
    result = run_cli(["gale-dual"], json.dumps({"vectors": vectors}))
    assert time.perf_counter() - start < 1.0
    assert result == (2, "", "error: gale-dual: stdin vector configuration: more than 32 vectors\n")
    code, out, _ = run_cli(["gale-dual"], json.dumps({"vectors": vectors[:32]}))
    assert code == 0 and json.loads(out)["vector_config"]["ghost_indices"] == [33]


def test_gale_dual_command():
    code, out, _ = run_cli(["gale-dual", "--a", "sqrt(2)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["balanced"] is True and doc["odd"] is True
    assert doc["polytopal"] is True
    assert len(doc["gale_points"]["points"]) == 5


def test_cut_command():
    square = json.dumps(
        {
            "vertices": [
                [{"r": "0", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "2", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "2", "s": "0", "d": None}, {"r": "2", "s": "0", "d": None}],
                [{"r": "0", "s": "0", "d": None}, {"r": "2", "s": "0", "d": None}],
            ],
            "rays": [],
        }
    )
    code, out, _ = run_cli(["cut", "1", "0", "1"], stdin_text=square)
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"]["kind"] == "trivial"
    # a cut missing the interior is input the geometry rejects: exit 3, and
    # the message names the cut's normal and level
    code, _, err = run_cli(["cut", "1", "0", "5"], stdin_text=square)
    assert code == 3 and err.count("\n") == 1
    assert "<mu, (1, 0)> = 5" in err and "does not meet the interior" in err
    code, _, err = run_cli(["cut", "--", "-1", "1/2", "-3"], stdin_text=square)
    assert code == 3 and "<mu, (-1, 1/2)> = -3" in err
    # a zero normal is bad input, not a cut that misses
    assert_input_error(*run_cli(["cut", "0", "0", "1"], stdin_text=square)[::2])


def test_cut_command_keeps_the_kept_piece_and_gamma_that_a_report_writes_once():
    """The ``cut`` command writes the kept piece, Gamma, the augmented
    quasilattice and the cut half-plane next to the cut's two pieces.  A
    report writes them once, as ``polytope``, ``gamma``, ``quasilattice``
    and P_a's last half-plane, so its ``cut`` section is the command's output
    without them."""
    strip = (Path(__file__).parent / "golden" / "inputs" / "strip.json").read_text()
    code, out, _ = run_cli(["cut", "--", "-1", "3/2", "-1"], strip)
    assert code == 0
    cut = json.loads(out)
    code, out, _ = run_cli(["report", "3/2"])
    assert code == 0
    doc = json.loads(out)
    assert (cut.pop("kept_piece"), cut.pop("gamma")) == (doc["polytope"], doc["gamma"])
    assert cut.pop("augmented_quasilattice") == doc["quasilattice"]
    assert cut.pop("cut_halfplane") == doc["polytope"]["hrep"][3]
    assert cut == doc["cut"]
    assert sorted(cut) == ["other_piece", "reduced_face"]


def test_cut_of_a_flat_region_exits_3():
    """A segment from stdin has no interior, so no cut line meets it."""
    segment = json.dumps({"hrep": [{"normal": n, "offset": o} for n, o in (
        (["1", "0"], "0"), (["-1", "0"], "0"), (["0", "1"], "0"), (["0", "-1"], "-1"))]})
    code, out, err = run_cli(["cut", "--", "0", "1", "1/2"], stdin_text=segment)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cut_by_a_fraction_of_a_lattice_vector():
    """Over Q_sqrt2, nu = (1/2, 0) has 2*nu = (1, 0) in the lattice: the
    quotient is Z/2, rotating by 1/2, though Q_sqrt2 itself is dense."""
    strip = (Path(__file__).parent / "golden" / "inputs" / "strip.json").read_text()
    code, out, _ = run_cli(["cut", "--a", "sqrt(2)", "--", "1/2", "0", "1/2"], strip)
    assert code == 0
    gamma = json.loads(out)["gamma"]
    assert (gamma["kind"], gamma["order"], gamma["rotation_coefficient"]["r"]) == (
        "finite_cyclic", 2, "1/2")


def test_flat_vertex_form_reads_as_its_hrep():
    """A segment or a ray given by vertices and rays is the same polyhedron
    as its H-form, and like it has no interior to cut."""
    def hform(*rows):
        return json.dumps({"hrep": [{"normal": n, "offset": o} for n, o in rows]})

    cases = (
        (json.dumps({"vertices": [["0", "0"], ["1", "0"]]}),
         hform((["1", "0"], "0"), (["-1", "0"], "-1"), (["0", "1"], "0"), (["0", "-1"], "0"))),
        (json.dumps({"vertices": [["0", "0"]], "rays": [["1", "0"]]}),
         hform((["1", "0"], "0"), (["0", "1"], "0"), (["0", "-1"], "0"))),
    )
    for vform, hrep in cases:
        code_v, out_v, _ = run_cli(["normal-fan"], vform)
        code_h, out_h, _ = run_cli(["normal-fan"], hrep)
        assert (code_v, out_v) == (code_h, out_h)
        v = polyhedron_from_json(json.loads(vform))
        h = polyhedron_from_json(json.loads(hrep))
        assert (v.vertices, v.rays) == (h.vertices, h.rays)
        code, out, err = run_cli(["cut", "--", "1", "0", "1/2"], vform)
        assert code == 3 and out == "" and "no interior" in err


def test_normal_fan_of_a_flat_region_exits_3():
    """A segment, in its H-form or its V-form, has no interior and so no
    normal fan: the geometry rejects it with one line naming it flat."""
    for segment in (
        json.dumps({"hrep": [{"normal": n, "offset": o} for n, o in (
            (["1", "0"], "0"), (["-1", "0"], "0"), (["0", "1"], "0"), (["0", "-1"], "-1"))]}),
        json.dumps({"vertices": [["0", "0"], ["0", "1"]]}),
    ):
        code, out, err = run_cli(["normal-fan"], segment)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "flat" in err


def test_blowup_command():
    square = json.dumps(
        {
            "vertices": [
                [{"r": "0", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "2", "s": "0", "d": None}, {"r": "0", "s": "0", "d": None}],
                [{"r": "2", "s": "0", "d": None}, {"r": "2", "s": "0", "d": None}],
                [{"r": "0", "s": "0", "d": None}, {"r": "2", "s": "0", "d": None}],
            ],
            "rays": [],
        }
    )
    code, out, _ = run_cli(["blowup", "0", "0", "1", "1", "1"], stdin_text=square)
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 5
    code, _, err = run_cli(["blowup", "0", "0", "1", "1", "10"], stdin_text=square)
    assert code == 3 and "vertex (2, 0)" in err
    code, _, err = run_cli(["blowup", "5", "5", "1", "1", "1"], stdin_text=square)
    assert code == 3 and "(5, 5)" in err
    assert_input_error(*run_cli(["blowup", "0", "0", "0", "0", "1/2"], stdin_text=square)[::2])


def test_blowup_of_an_unbounded_end_exits_3():
    """Chopping the strip's corner (0, 0) along -x + y >= 1/2 would cut off
    its whole unbounded end along the ray (1, 0), and along y >= 1/2 its
    whole unbounded edge y = 0: neither is a corner chop."""
    strip = json.dumps({"hrep": [{"normal": ["1", "0"], "offset": "0"},
                                 {"normal": ["0", "1"], "offset": "0"},
                                 {"normal": ["0", "-1"], "offset": "-1"}]})
    for nu, named in ((["-1", "1"], "ray (1, 0)"), (["0", "1"], "edge <mu, (0, 1)> = 0")):
        code, out, err = run_cli(["blowup", "--", "0", "0", *nu, "1/2"], strip)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


def test_blowup_of_a_flat_region_exits_3():
    """A segment from stdin has no interior, so it has no corner to chop."""
    segment = json.dumps({"hrep": [{"normal": n, "offset": o} for n, o in (
        (["1", "0"], "0"), (["-1", "0"], "0"), (["0", "1"], "0"), (["0", "-1"], "-1"))]})
    code, out, err = run_cli(["blowup", "--", "0", "0", "0", "1", "1/2"], segment)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_leaves_command():
    code, out, _ = run_cli(["classify-leaves", "5/3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["covering_degree"] == 3


def test_svg_output(tmp_path):
    d = str(tmp_path / "figs")
    code, _, _ = run_cli(["report", "sqrt(2)", "--svg-dir", d])
    assert code == 0
    poly = (tmp_path / "figs" / "polytope.svg").read_text()
    chamber = (tmp_path / "figs" / "chamber.svg").read_text()
    assert poly.startswith("<svg") and poly.rstrip().endswith("</svg>")
    assert "<polygon" in poly and "<line" in poly
    assert "<circle" in chamber
    # byte determinism of the figures
    code, _, _ = run_cli(["report", "sqrt(2)", "--svg-dir", d])
    assert (tmp_path / "figs" / "polytope.svg").read_text() == poly


@pytest.mark.parametrize("argv, under", [(["report", "2"], ""), (["normal-fan", "--a", "2"], "sub")])
def test_unusable_svg_dir_is_one_error_line(tmp_path, argv, under):
    """An --svg-dir that is a regular file, or lies under one, cannot be
    made: one 'error:' line naming the option and exit 2, no traceback."""
    f = tmp_path / "F"
    f.write_text("")
    code, _, err = run_cli([*argv, "--svg-dir", str(f / under)])
    assert_input_error(code, err)
    assert err.startswith(f"error: {argv[0]}: --svg-dir: ")


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _scalars(obj):
    """Every scalar object {r, s, d, float} in a JSON document."""
    if isinstance(obj, dict) and "float" in obj:
        yield obj
    for x in obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ():
        yield from _scalars(x)


HUGE = "0" * 307  # 17e307 is a float, 2*(17e307 + 1) and 13e307*sqrt(2) are beyond float range


@pytest.mark.parametrize("argv, nulls", [
    (["report", "17" + HUGE], 1),
    (["normal-fan", "--a", "1" + "0" * 400], 1),
    (["normal-fan", "--a", f"13{HUGE}*sqrt(2)"], 1),
    (["gale-dual", "--a", f"13{HUGE}*sqrt(2)"], 4),
], ids=["report", "normal-fan", "normal-fan-sqrt", "gale-dual"])
def test_advisory_float_beyond_float_range_is_null(argv, nulls):
    """A scalar beyond float range, its sqrt term alone included, writes
    ``"float": null`` and keeps its exact r, s and d: strict JSON, with no
    Infinity, and exit 0."""
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    big = [x for x in _scalars(json.loads(out, parse_constant=_not_json)) if x["float"] is None]
    assert len(big) == nulls == out.count('"float":null')
    assert all(max(abs(Fraction(x["r"])), abs(Fraction(x["s"]))) > 10**307 for x in big)


def test_svg_of_a_value_beyond_float_range_is_one_error_line(tmp_path):
    """A figure cannot place a point beyond float range: after the JSON,
    one 'error:' line naming --svg-dir and exit 2, no traceback."""
    code, out, err = run_cli(["normal-fan", "--a", f"13{HUGE}*sqrt(2)", "--svg-dir", str(tmp_path)])
    assert_input_error(code, err)
    assert err.startswith("error: normal-fan: --svg-dir: ")
    json.loads(out, parse_constant=_not_json)


def test_svg_cut_line_of_a_ray_face(tmp_path):
    """The strip cut along y = 1/2 meets it in a ray; the dashed cut line
    runs from the ray's vertex along it, not from the vertex to itself."""
    strip = json.dumps({"hrep": [{"normal": ["1", "0"], "offset": "0"},
                                 {"normal": ["0", "1"], "offset": "0"},
                                 {"normal": ["0", "-1"], "offset": "-1"}]})
    code, out, _ = run_cli(["cut", "--svg-dir", str(tmp_path), "--", "0", "1", "1/2"], strip)
    assert code == 0
    assert len(json.loads(out)["reduced_face"]["rays"]) == 1
    svg = (tmp_path / "cut.svg").read_text()
    (line,) = [s for s in svg.splitlines() if "stroke-dasharray" in s]
    x1, y1, x2, y2 = (float(line.split(f'{k}="')[1].split('"')[0]) for k in ("x1", "y1", "x2", "y2"))
    assert y1 == y2 and x2 - x1 > 0


def _outline(svg: str) -> list[tuple[float, float]]:
    """The drawn polygon's points in math coordinates relative to the
    figure's least x and greatest y: the figure's scale, margin and y flip
    undone."""
    (poly,) = [s for s in svg.splitlines() if s.lstrip().startswith("<polygon")]
    pts = [tuple(map(float, xy.split(","))) for xy in poly.split('points="')[1].split('"')[0].split()]
    return [((x - 12.0) / 100.0, -(y - 12.0) / 100.0) for x, y in pts]


def test_svg_outline_of_an_unbounded_region(tmp_path):
    """The outline of an unbounded region is its boundary cycle with each
    ideal point replaced by its finite neighbours pushed out along its ray:
    for a V with the ray (0, 1) the convex 5-gon (-1, 1), (0, 0), (1, 1),
    (1, 4), (-1, 4), not a notched outline through the inner point (0, 3)."""
    v = json.dumps({"vertices": [[-1, 1], [0, 0], [1, 1]], "rays": [[0, 1]]})
    code, _, _ = run_cli(["normal-fan", "--svg-dir", str(tmp_path)], v)
    assert code == 0
    got = [(x - 1.0, y + 4.0) for x, y in _outline((tmp_path / "fan.svg").read_text())]
    assert same_cycle(got, [(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (1.0, 4.0), (-1.0, 4.0)])


def test_svg_outline_with_two_rays(tmp_path):
    """A quadrant-like region with the rays (1, 0) and (0, 1) from the edge
    (0, 1)-(1, 0): both ends are pushed out along their own ray."""
    v = json.dumps({"vertices": [[0, 1], [1, 0]], "rays": [[1, 0], [0, 1]]})
    code, _, _ = run_cli(["normal-fan", "--svg-dir", str(tmp_path)], v)
    assert code == 0
    got = [(x, y + 4.0) for x, y in _outline((tmp_path / "fan.svg").read_text())]
    assert same_cycle(got, [(0.0, 1.0), (1.0, 0.0), (4.0, 0.0), (0.0, 4.0)])


_GOOD = ["0", "1", "-1", "2", "3/2", "-2/3", "sqrt(2)", "1+sqrt(2)", "-sqrt(3)", "1/2+1/2*sqrt(5)"]
_BAD = ["1/0", "sqrt(4)", "sqrt(-2)", "x", "", " ", "1e5", "--", "-h", "--bogus"]
_tokens = st.sampled_from(_GOOD) | st.sampled_from(_GOOD) | st.sampled_from(_BAD)
_COMMANDS = {"report": 1, "normal-fan": 0, "gale-dual": 0, "cut": 3, "blowup": 5,
             "classify-leaves": 1}


@st.composite
def _argv(draw, svg_dir):
    """A subcommand with its positional count, up to two of --a, --svg-dir,
    an unknown flag and -h, and sometimes one token moved or repeated."""
    cmd = draw(st.sampled_from([*_COMMANDS, "no-such-command"]))
    argv = [cmd] + [draw(_tokens) for _ in range(_COMMANDS.get(cmd, 0))]
    for flag in draw(st.lists(st.sampled_from(["--a", "--a", "--svg-dir", "--tol", "-h"]),
                              max_size=2)):
        if flag == "-h":
            argv.append(flag)
        else:
            argv += [flag, svg_dir if flag == "--svg-dir" else draw(_tokens)]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(argv) - 1))
        moved = argv.pop(i) if draw(st.booleans()) else argv[i]
        argv.insert(draw(st.integers(0, len(argv))), moved)
    return argv


_small = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/2", "sqrt(2)", "1-sqrt(2)"])
_scalar_json = _small | _tokens | st.fixed_dictionaries({
    "r": st.sampled_from(["0", "1", "-1/2", "x", 1]),
    "s": st.sampled_from(["0", "1", "2/3"]),
    "d": st.sampled_from([None, 2, 3, 4, -1, "2", 2.5, True]),
}) | st.none() | st.floats()
_vec = st.lists(_small, min_size=2, max_size=2)
_bad_vec = st.lists(_scalar_json, max_size=3)
# well-formed and malformed polyhedra (H- and V-form) and vector configurations
_payloads = st.one_of(
    st.fixed_dictionaries({"hrep": st.lists(
        st.fixed_dictionaries({"normal": _vec, "offset": _small}), min_size=1, max_size=6)}),
    st.fixed_dictionaries({"vertices": st.lists(_vec, min_size=1, max_size=6),
                           "rays": st.lists(_vec, max_size=2)}),
    st.fixed_dictionaries({"hrep": st.lists(
        st.fixed_dictionaries({"normal": _bad_vec, "offset": _scalar_json}), max_size=3)}),
    st.fixed_dictionaries({"vertices": st.lists(_bad_vec, max_size=3)}),
    st.fixed_dictionaries({"vectors": st.lists(_vec | _bad_vec, max_size=5),
                           "ghost_indices": st.lists(st.integers(-2, 6) | _small, max_size=2)}),
)
_json_values = st.recursive(
    st.none() | st.booleans() | _small,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["hrep", "vertices", "rays", "vectors", "normal", "offset", "r"]),
        inner, max_size=3),
    max_leaves=8,
)
_stdin = st.one_of(
    _payloads.map(json.dumps),
    _payloads.map(json.dumps),
    _json_values.map(json.dumps),
    st.tuples(st.sampled_from(["[", '{"hrep":', '[{"normal":']),
              st.sampled_from([10, 1000, 100000])).map(lambda t: t[0] * t[1]),
    st.text(max_size=20),
    _payloads.map(json.dumps).map(lambda s: s[: len(s) // 2]),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.data())
def test_fuzz_cli_ends_in_a_known_exit(tmp_path, data):
    """Random argv and stdin: exit 0, 2 or 3, never a traceback, and at most
    one line on stderr."""
    argv = data.draw(_argv(str(tmp_path / "svg")), label="argv")
    stdin = data.draw(_stdin, label="stdin")
    code, _, err = run_cli(argv, stdin_text=stdin)
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1
