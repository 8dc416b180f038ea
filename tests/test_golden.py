"""Byte-for-byte golden corpus of CLI stdout.

Each case runs ``cli.main`` on an argv (and optionally a stdin file from
``tests/golden/inputs``) and compares stdout with ``tests/golden/<out>``.
Under pytest each case is one test.  Run as a script, with the standard
library only, it checks the corpus and exits 1 naming each differing file:

    PYTHONPATH=src python tests/test_golden.py

``--write`` regenerates the differing files instead; list every changed
corpus file in CHANGES.md.
"""

import contextlib
import io
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


def pytest_generate_tests(metafunc):
    # parametrized here so that the script path needs no pytest
    metafunc.parametrize("name,argv,stdin_name", CASES, ids=[c[0] for c in CASES])


def test_golden(name, argv, stdin_name):
    code, out = run_case(argv, stdin_name)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def check_corpus(write: bool) -> list[str]:
    """The corpus files that differ from the CLI's output; rewritten when
    ``write``."""
    differ = []
    for name, argv, stdin_name in CASES:
        code, out = run_case(argv, stdin_name)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        path = GOLDEN / name
        if not path.exists() or path.read_text() != out:
            differ.append(name)
            if write:
                path.write_text(out)
    return differ


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: python tests/test_golden.py [--write]")
    write = sys.argv[1:] == ["--write"]
    differ = check_corpus(write)
    for name in differ:
        print(f"{'wrote' if write else 'differs'}: {name}")
    print(f"{len(CASES) - len(differ)} of {len(CASES)} corpus files match")
    sys.exit(1 if differ and not write else 0)
