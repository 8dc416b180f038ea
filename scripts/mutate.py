"""Mutation checks: each committed mutation must make its tests fail.

Usage, from anywhere inside the repository:

    python3 scripts/mutate.py

The mutations are the JSON list ``scripts/mutations.json`` of objects with
a ``name``, a ``file`` relative to the repository root, an exact ``old``
snippet that must occur in that file exactly once, its ``new``
replacement, and the ``tests`` (pytest node ids) expected to catch it.

``src/``, ``tests/`` and ``pyproject.toml`` of the working tree are copied
into a temporary directory, removed on exit.  The listed tests must first
pass there unmutated.  Then each mutation is applied to its own fresh copy
and its tests run with ``--hypothesis-seed=0 -p no:cacheprovider`` and a
hypothesis profile without an example database, so a run depends only on
the code.  It prints ``caught`` when the tests fail, ``missed`` when they
pass, ``stale`` when the snippet does not occur exactly once, and ``error``
when pytest ends otherwise (a collection error, say).  It exits 1 unless
every mutation is caught.

Standard library only, apart from the tests' own pytest and hypothesis;
not part of the tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTATIONS = ROOT / "scripts" / "mutations.json"
PROFILE = """from hypothesis import settings

settings.register_profile("mutate", database=None)
settings.load_profile("mutate")
"""


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "_mutate_profile.py").write_text(PROFILE)


def run_tests(copy: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy)]),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=0",
           "-p", "no:cacheprovider", "-p", "_mutate_profile", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def apply(copy: Path, m: dict) -> bool:
    """Apply the mutation to the copy; False if its snippet does not occur
    exactly once."""
    path = copy / m["file"]
    text = path.read_text()
    if text.count(m["old"]) != 1:
        return False
    path.write_text(text.replace(m["old"], m["new"]))
    return True


def main() -> int:
    mutations = json.loads(MUTATIONS.read_text())
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in mutations for t in m["tests"]})
        if run_tests(clean, tests) != 0:
            print(f"error: the listed tests fail on the unmutated copy: {' '.join(tests)}")
            return 1
        failures = 0
        for i, m in enumerate(mutations):
            base = Path(tmp) / f"m{i}"
            copy_tree(base)
            if not apply(base, m):
                verdict = "stale"
            else:
                code = run_tests(base, m["tests"])
                verdict = {0: "missed", 1: "caught"}.get(code, "error")
            shutil.rmtree(base)
            failures += verdict != "caught"
            print(f"{verdict:7} {m['name']}  ({m['file']}; {' '.join(m['tests'])})", flush=True)
    print(f"{len(mutations) - failures} of {len(mutations)} mutations caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
