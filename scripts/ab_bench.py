"""Paired A/B runs of the benchmark: a parent revision against the working tree.

Usage, from anywhere inside the repository:

    python3 scripts/ab_bench.py PARENT_REV [--pairs N] [--seconds S]
                                [--seed N] [--workload NAME ...] [--out FILE]

The committed files of PARENT_REV are unpacked (``git archive``) into a
temporary directory, removed on exit.  For each workload in BENCHMARK.json,
``perfbench/run.py --trace 0`` runs as a black box N times on each side with
identical settings, in pairs, alternating which side runs first.  For every
end-to-end metric it prints each side's median and quartiles, the share of
pairs the working tree won (ties count for neither side), and the op counts.

The verdict column applies the paired rule: ``gain`` when the working tree
won at least nine pairs in ten and the medians differ by more than the
parent's quartile distance; ``WORSE`` when the working tree's median is
worse than the parent's by more than the metric's bound in BENCHMARK.json.
``--out FILE`` also writes the result as JSON: the parent revision, seed, run
length and pair count, and for each workload and end-to-end metric both
sides' median, q1 and q3, the pairs won and the verdict, plus the op counts
and the killed runs.

A run that has not ended after KILL_FACTOR (2) times the run length plus
SETUP_ALLOWANCE_S (60) seconds is killed, with every process it started: a
run that hangs is a failure, not a pair to drop.  The killed runs are
counted per side, printed and written as ``killed``.  The metrics compare
the pairs in which both runs ended.  A killed change run voids the
workload's ``gain`` verdicts: they read ``void``, so a change that hangs
never reads as a gain.

For each workload it also prints, and writes as ``rss_kib_per_extra_op``,
the least-squares slope of ``peak_rss_mb`` against ops per run over the
runs of both sides that ended, in KiB per op.  The benchmark keeps every
op's output, so a faster change raises RSS by that much per op (about 11-13
KiB on ``report-sweep``); a value far above it points to a leak rather than
to the kept outputs.  A fit over every run does not swing, as a ratio of
the two medians' differences does, when those medians are close.  From that rate
and the parent's medians it prints the RSS headroom, written as
``rss_headroom``: the ops per run, and their ratio to the parent's, at which
``peak_rss_mb`` would reach its bound in BENCHMARK.json.  It prints nothing
for it when every run made the same number of ops, or when RSS did not grow
with them.
Standard library only.  ``tests/test_ab_bench.py`` runs it on a stub
checkout whose change side hangs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def unpack(root: Path, rev: str, dest: Path) -> None:
    """The files of rev as committed, without touching the repository."""
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", rev))) as tar:
        tar.extractall(dest, filter="data")


KILL_FACTOR = 2  # a run is killed after this many run lengths
SETUP_ALLOWANCE_S = 60  # plus this long for set-up and the checks after the loop


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             timeout: float) -> dict | None:
    """The run's end-to-end result, or None when it had not ended after
    ``timeout`` seconds and was killed, in its own process group so that
    the processes it started go with it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None
    if p.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {p.returncode}:\n"
                         f"{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' quartiles, the pairs the change won and the verdict."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    delta = (cm - pm) / pm if pm else float("nan")
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        verdict = "gain"
    elif -sign * delta > metric["bound"]:
        verdict = "WORSE"
    else:
        verdict = "-"
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "delta": delta, "won": wins, "pairs": len(parent), "verdict": verdict}


def format_row(name: str, row: dict) -> str:
    p, c = row["parent"], row["change"]
    return (f"  {name:18s} {p['median']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
            f"{c['median']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {row['delta']:+7.1%}  "
            f"{row['won']:2d}/{row['pairs']}  {row['verdict']}")


def op_counts(runs: list[dict]) -> dict:
    ops = [r["attempted"] for r in runs]
    return {"median": statistics.median(ops), "min": min(ops), "max": max(ops),
            "failed": sum(r["failed"] for r in runs), "total": sum(ops)}


def rss_per_extra_op(runs: list[dict]) -> float | None:
    """KiB of peak RSS per extra op per run: the least-squares slope of
    ``peak_rss_mb`` (MiB) against ops per run over the given runs, or None
    when they all made the same number of ops."""
    ops = [r["attempted"] for r in runs]
    if len(set(ops)) < 2:
        return None
    rss = [r["metrics"]["peak_rss_mb"]["value"] for r in runs]
    return statistics.linear_regression(ops, rss).slope * 1024


def rss_headroom(entry: dict, bound: float) -> dict | None:
    """The ops per run, and their ratio to the parent's median, at which
    ``peak_rss_mb`` would reach the parent's median times 1 + bound, if RSS
    grows by ``rss_kib_per_extra_op`` per op from the parent's medians.
    None when that rate is unknown (every run made the same number of ops)
    or not positive (RSS did not grow with the op count)."""
    per_op = entry["rss_kib_per_extra_op"]
    if per_op is None or per_op <= 0:
        return None
    ops = entry["ops"]["parent"]["median"]
    at_bound = ops + entry["metrics"]["peak_rss_mb"]["parent"]["median"] * bound * 1024 / per_op
    return {"ops_per_run": at_bound, "ratio": at_bound / ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_REV")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=101, help="workload seed of every run")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", type=Path, help="also write the result as JSON to FILE")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    rev = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()

    timeout = KILL_FACTOR * seconds + SETUP_ALLOWANCE_S
    result = {"parent": rev, "seed": args.seed, "run_seconds": seconds,
              "pairs": args.pairs, "kill_after_s": timeout, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        parent_dir = Path(tmp)
        unpack(root, rev, parent_dir)
        sides = {"parent": parent_dir, "change": root}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(sides[side], workload, args.seed, seconds, timeout)
                    runs[side].append(run)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side} "
                          + ("done" if run else f"KILLED after {timeout:g} s"),
                          file=sys.stderr, flush=True)
            print(f"workload {workload}  seed {args.seed}  {seconds:g} s runs  "
                  f"{args.pairs} pairs  parent {rev[:12]} vs working tree")
            killed = {side: sum(r is None for r in runs[side]) for side in runs}
            ended = {side: [r for r in runs[side] if r] for side in runs}
            both = [i for i in range(args.pairs) if runs["parent"][i] and runs["change"][i]]
            print(f"  killed runs (not ended after {timeout:g} s): parent {killed['parent']}, "
                  f"change {killed['change']} of {args.pairs} each; metrics over the "
                  f"{len(both)} pairs in which both ended"
                  + ("; gain verdicts void" if killed["change"] else ""))
            print(f"  {'metric':18s} {'parent median [q1, q3]':>30s}  "
                  f"{'change median [q1, q3]':>30s}  {'delta':>7s}  won  verdict")
            entry = result["workloads"][workload] = {"metrics": {}, "ops": {}, "killed": killed}
            for metric in bench["end_to_end"] if both else ():
                name = metric["name"]
                values = {s: [runs[s][i]["metrics"][name]["value"] for i in both] for s in runs}
                row = entry["metrics"][name] = compare(metric, values["parent"], values["change"])
                if killed["change"] and row["verdict"] == "gain":
                    row["verdict"] = "void"
                print(format_row(name, row))
            for side in ("parent", "change"):
                ops = entry["ops"][side] = op_counts(ended[side]) if ended[side] else None
                if ops is not None:
                    print(f"  {side} ops per run: median {ops['median']:g} "
                          f"(min {ops['min']}, max {ops['max']}), "
                          f"failed {ops['failed']} of {ops['total']}")
            per_op = rss_per_extra_op(ended["parent"] + ended["change"])
            entry["rss_kib_per_extra_op"] = per_op
            print("  peak_rss_mb slope per extra op per run: "
                  + ("n/a (same op count in every run)" if per_op is None else f"{per_op:.1f} KiB"))
            rss_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "peak_rss_mb")
            room = entry["rss_headroom"] = rss_headroom(entry, rss_bound) if both else None
            if room is not None:
                print(f"  peak_rss_mb reaches its {rss_bound:.0%} bound at {room['ops_per_run']:.0f} "
                      f"ops per run, {room['ratio']:.2f}x the parent's median")
            sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
