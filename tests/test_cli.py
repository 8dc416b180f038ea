"""CLI behavior: exit codes, deterministic bytes, SVG output."""

import io
import json
import sys
import time

import pytest

from quasitoric.cli import main


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


def test_help_exits_zero():
    for argv in (["-h"], ["report", "-h"]):
        code, out, err = run_cli(argv)
        assert code == 0 and out.startswith("usage: ") and err == ""


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
    # a cut missing the interior is a consistency failure: exit 3
    code, _, err = run_cli(["cut", "1", "0", "5"], stdin_text=square)
    assert code == 3
    # a zero normal is bad input, not a cut that misses
    assert_input_error(*run_cli(["cut", "0", "0", "1"], stdin_text=square)[::2])


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
    code, _, _ = run_cli(["blowup", "0", "0", "1", "1", "10"], stdin_text=square)
    assert code == 3
    assert_input_error(*run_cli(["blowup", "0", "0", "0", "0", "1/2"], stdin_text=square)[::2])


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
