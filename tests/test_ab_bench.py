"""scripts/ab_bench.py on a stub checkout: a run that hangs is killed with
the processes it started, counted, and voids the change's gain."""

import importlib.util
import json
import subprocess
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)

BENCHMARK = {
    "run_seconds": 45,
    "workloads": [{"name": "stub"}],
    "end_to_end": [
        {"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}

# perfbench/run.py of the stub: its last stdout line is the result of a run
# with the given p90; the change's first run (``hang``) starts a child that
# holds its output pipes, then sleeps, both far past the kill
RUN = """import json, pathlib, subprocess, sys, time
count = pathlib.Path(__file__).with_name("runs")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
if {hang} and n == 0:
    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    time.sleep(30)
print(json.dumps({{"attempted": 100 + n, "failed": 0, "metrics": {{
    "latency_p90_ms": {{"value": {p90}}}, "peak_rss_mb": {{"value": 30 + n}}}}}}))
"""


def _stub_checkout(root: Path, hang: bool) -> None:
    """A git repository whose committed run.py is the parent's (p90 200 ms)
    and whose working tree's is the change's (p90 100 ms)."""
    (root / "perfbench").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    run = root / "perfbench" / "run.py"
    run.write_text(RUN.format(hang=False, p90=200))
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.org",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run([*git, "add", "-A"], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], cwd=root, check=True)
    run.write_text(RUN.format(hang=hang, p90=100))


@pytest.mark.parametrize("hang", [True, False])
def test_hung_change_run_is_killed_counted_and_voids_the_gain(tmp_path, monkeypatch, capsys, hang):
    """Three pairs of 0.1 s runs, killed after 2 * 0.1 + 0.5 s here.  When the
    change's first run hangs it is killed with its child: ``main`` returns
    long before either would end (``communicate`` would wait for the child's
    pipes), the kill is printed and written, the two pairs in which both
    ran are compared, and the change, which wins both, reads ``void``, not
    ``gain``.  Without the hang the same runs read ``gain`` over 3 pairs."""
    _stub_checkout(tmp_path, hang)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ab_bench, "SETUP_ALLOWANCE_S", 0.5)
    out = tmp_path / "ab.json"
    start = time.monotonic()
    assert ab_bench.main(["HEAD", "--pairs", "3", "--seconds", "0.1", "--out", str(out)]) == 0
    assert time.monotonic() - start < 10
    text = capsys.readouterr().out
    entry = json.loads(out.read_text())["workloads"]["stub"]
    p90 = entry["metrics"]["latency_p90_ms"]
    assert entry["killed"] == {"parent": 0, "change": int(hang)}
    assert f"parent 0, change {int(hang)} of 3 each" in text
    assert (p90["won"], p90["pairs"]) == ((2, 2) if hang else (3, 3))
    assert p90["verdict"] == ("void" if hang else "gain")
    assert entry["ops"]["change"]["total"] == (101 + 102 if hang else 100 + 101 + 102)
