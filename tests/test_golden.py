"""Byte-for-byte golden corpus of CLI stdout.

Each case runs ``cli.main`` on an argv (and optionally a stdin file from
``tests/golden/inputs``) and compares stdout with ``tests/golden/<out>``.
Under pytest each case is one test.  Run as a script, with the standard
library only, it checks the corpus and exits 1 naming each differing file.
Either way, each difference is named by its JSON path with the old and the
new value, e.g. ``cut.gamma.rotation_coefficient: null -> {"d":null,...}``:

    PYTHONPATH=src python tests/test_golden.py

``--write`` regenerates the differing files instead; list every changed
corpus file in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from quasitoric.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# (output file, argv, stdin file or None)
CASES = [
    ("report_2.json", ["report", "2"], None),
    ("report_3_2.json", ["report", "3/2"], None),
    ("report_5_3.json", ["report", "5/3"], None),
    ("report_355_113.json", ["report", "355/113"], None),
    ("report_sqrt2.json", ["report", "sqrt(2)"], None),
    ("report_1+sqrt2.json", ["report", "1+sqrt(2)"], None),
    ("report_golden_ratio.json", ["report", "1/2+1/2*sqrt(5)"], None),
    ("gale_dual_3_2.json", ["gale-dual", "--a", "3/2"], None),
    ("gale_dual_1+sqrt2.json", ["gale-dual", "--a", "1+sqrt(2)"], None),
    ("normal_fan_3_2.json", ["normal-fan", "--a", "3/2"], None),
    ("normal_fan_1+sqrt2.json", ["normal-fan", "--a", "1+sqrt(2)"], None),
    ("classify_leaves_5_3.json", ["classify-leaves", "5/3"], None),
    ("normal_fan_square.json", ["normal-fan"], "square.json"),
    ("normal_fan_strip.json", ["normal-fan"], "strip.json"),
    ("normal_fan_triangle_sqrt2.json", ["normal-fan"], "triangle_sqrt2.json"),
    ("cut_square_x.json", ["cut", "1", "0", "1"], "square.json"),
    ("cut_square_diagonal.json", ["cut", "--", "1", "-1", "0"], "square.json"),
    ("cut_strip_a2.json", ["cut", "--a", "2", "--", "-1", "2", "-1"], "strip.json"),
    ("cut_strip_3_2.json", ["cut", "--", "-1", "3/2", "-1"], "strip.json"),
    ("cut_strip_sqrt2.json", ["cut", "--", "-1", "sqrt(2)", "-1"], "strip.json"),
    # the only cut whose reduced face is a ray
    ("cut_strip_horizontal.json", ["cut", "--", "0", "1", "1/2"], "strip.json"),
    ("blowup_square.json", ["blowup", "0", "0", "1", "1", "1"], "square.json"),
    (
        "blowup_triangle_sqrt2.json",
        ["blowup", "--", "0", "-1/2*sqrt(2)", "0", "1", "1/2*sqrt(2)"],
        "triangle_sqrt2.json",
    ),
    # the only blow-up of an unbounded region
    ("blowup_strip.json", ["blowup", "--", "0", "0", "1", "1", "1/2"], "strip.json"),
]


def run_case(argv, stdin_name):
    stdin_text = (GOLDEN / "inputs" / stdin_name).read_text() if stdin_name else ""
    out = io.StringIO()
    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old_in
    return code, out.getvalue()


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def json_diff(old, new, path="") -> list[str]:
    """One line per JSON path where old and new differ: 'path: old -> new'.
    Lists of different lengths, like values of different types, differ as a
    whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(old.keys() | new.keys())
                for line in json_diff(old.get(key), new.get(key), f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (o, n) in enumerate(zip(old, new))
                for line in json_diff(o, n, f"{path}[{i}]")]
    return [] if old == new else [f"{path or '<root>'}: {_compact(old)} -> {_compact(new)}"]


def describe_difference(old_text: str, new_text: str) -> str:
    """The differing JSON paths, or a note when the bytes alone differ."""
    try:
        lines = json_diff(json.loads(old_text), json.loads(new_text))
    except ValueError:
        return "  not JSON; the bytes differ"
    return "\n".join(f"  {line}" for line in lines) or "  same JSON, different bytes"


def pytest_generate_tests(metafunc):
    # parametrized here so that the script path needs no pytest
    metafunc.parametrize("name,argv,stdin_name", CASES, ids=[c[0] for c in CASES])


def test_golden(name, argv, stdin_name):
    code, out = run_case(argv, stdin_name)
    assert code == 0
    old = (GOLDEN / name).read_text()
    assert out == old, f"{name} differs:\n{describe_difference(old, out)}"


def check_corpus(write: bool) -> list[tuple[str, str]]:
    """(name, description) of each corpus file that differs from the CLI's
    output; rewritten when ``write``."""
    differ = []
    for name, argv, stdin_name in CASES:
        code, out = run_case(argv, stdin_name)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        path = GOLDEN / name
        old = path.read_text() if path.exists() else None
        if old != out:
            differ.append((name, "  new file" if old is None else describe_difference(old, out)))
            if write:
                path.write_text(out)
    return differ


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: python tests/test_golden.py [--write]")
    write = sys.argv[1:] == ["--write"]
    differ = check_corpus(write)
    for name, description in differ:
        print(f"{'wrote' if write else 'differs'}: {name}\n{description}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} corpus files match")
    sys.exit(1 if differ and not write else 0)
