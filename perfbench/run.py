"""Benchmark of the quasitoric package, driven through its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see BENCHMARK.json for why each one):
- report-sweep: ``cli.main(["report", a])`` in process, over distinct a;
- polygon-scale: ``cli.main`` in process on normal-fan, cut and blowup,
  with a JSON polyhedron of 4..12 half-planes on stdin.

Each is a closed loop with one client: the next op starts when the last
one ends.  Ops run in whole rounds of the workload's input mix until
--seconds of loop time have passed and at least 100 ops have run.  Every
op's output is checked after the loop (``checks``); a failed check counts
in ``failed`` and never stops the run.

The op times behind throughput_ops_s and the latencies are scaled to the
nominal host speed by a fixed kernel timed right before and after each op
(``host``): the host's vCPUs drift in speed by up to 1.7x within seconds,
and raw wall times would measure that drift, not the program.  Each
untraced run also prints the raw wall p50 and the kernel's own median.
Ops run in this process because the kernel only follows the speed of the
vCPU it runs on: one fresh ``python -m quasitoric.cli`` process per op
spread by 10-14 % between runs even when scaled, so the package import
shows in setup_s and in the traced run's cli.import_ms instead.  setup_s
is a raw wall time, the median of seven set-ups (one in this process, six
in fresh ones): process start-up and imports do not follow the kernel,
and scaling them only added noise.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  --trace 1 is a separate run for the per-layer
metrics: kernel timings (``kernels``), then every op once under the tracer
(``trace``) and once without it, in alternating order, which gives the
tracing overhead.  The package is imported from ``src/`` of the checkout
this file sits in, never from elsewhere.
"""

from time import perf_counter

T_START = perf_counter()  # benchmark start: setup_s counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, host, inputs, kernels, trace  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_SELF_MS = ("polyhedron", "pipeline", "linalg", "quasilattice", "fan", "gale", "delzant",
            "cut", "foliation", "jsonio", "cli")
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in _SELF_MS},
    "polyhedron.vrep_calls": "count",
    "polyhedron.halfplanes_in": "count",
    "polyhedron.facets_kept_ratio": "ratio",
    "pipeline.trapezoid_calls": "count",
    "scalar.quad_new": "count",
    "scalar.mul_calls": "count",
    "scalar.add_calls": "count",
    "scalar.sign_calls": "count",
    "scalar.inv_calls": "count",
    "scalar.squarefree_calls": "count",
    "linalg.rref_calls": "count",
    "linalg.integer_solve_calls": "count",
    "quasilattice.member_calls": "count",
    "quasilattice.ray_meets_calls": "count",
    "jsonio.bytes_out": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "scalar.mul_us": "us",
    "scalar.add_us": "us",
    "scalar.sign_us": "us",
    "scalar.inv_us": "us",
    "linalg.rref_us": "us",
    "quasilattice.member_us": "us",
    "polyhedron.vrep_n4_ms": "ms",
    "polyhedron.vrep_n8_ms": "ms",
    "polyhedron.vrep_n16_ms": "ms",
    "host.ref_ms": "ms",
    "trace.op_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    round_size: int  # ops per round of the input mix
    warmup: tuple  # ops run before timing, not counted


def _warmup_polygons():
    rng = random.Random(0)
    return tuple(inputs.polygon_op(rng, cmd, 4, "bounded", None, 0)
                 for cmd in ("normal-fan", "cut", "blowup"))


WORKLOADS = {
    "report-sweep": Workload(
        "report-sweep", len(inputs.PARAM_ROUND),
        (inputs.Op("report", ("report", "1/3")), inputs.Op("report", ("report", "2+sqrt(3)")))),
    "polygon-scale": Workload(
        "polygon-scale", sum(len(ns) for _, ns in inputs.POLYGON_ROUND), _warmup_polygons()),
}


# -- executing ops --------------------------------------------------------------


@dataclass
class Result:
    rc: int | None
    out: bytes
    error: str | None  # an exception, instead of an exit code
    seconds: float


def import_package():
    """quasitoric.cli from src/ next to this benchmark, or exit 1."""
    if not (SRC / "quasitoric" / "cli.py").is_file():
        raise SystemExit(f"error: no quasitoric package in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quasitoric.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "quasitoric").resolve():
        raise SystemExit(f"error: quasitoric was imported from {cli.__file__}, not {SRC}")
    return cli


def run_in_process(cli, op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
        error = None
    except Exception as e:  # the loop must go on; the op counts as failed
        rc, error = None, f"{type(e).__name__}: {e}"
    finally:
        seconds = perf_counter() - t0
        sys.stdin = saved_stdin
    return Result(rc, out.getvalue().encode(), error, seconds)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


MIN_OPS = 100  # so that latency_p90_ms has at least 10 samples beyond it


def measure(w: Workload, stream, execute, seconds: float, first=None, min_ops: int = 0,
            between_rounds=None, refs=None):
    """Run whole rounds until `seconds` of loop time have passed and at
    least `min_ops` ops have run.  Input generation and
    `between_rounds(elapsed)` run between rounds, untimed.  Given a list
    `refs`, the host-speed kernel is timed into it before the first op and
    after each op.  Returns [(op, result)]."""
    records = []
    elapsed = 0.0
    batch = first or inputs.take(stream, w.round_size)
    if refs is not None:
        refs.append(host.reference())
    while True:
        t0 = perf_counter()
        for op in batch:
            records.append((op, execute(op)))
            if refs is not None:
                refs.append(host.reference())
        elapsed += perf_counter() - t0
        if between_rounds is not None:
            between_rounds(elapsed)
        if elapsed >= seconds and len(records) >= min_ops:
            return records
        batch = inputs.take(stream, w.round_size)


def verdicts(records, execute, recheck: int = 3) -> list:
    """The check result of every op (None when right).  `recheck` ops,
    spread over the run, are run again and must give the same bytes."""
    out = []
    for op, r in records:
        if r.error is not None:
            out.append(r.error)
        else:
            out.append(checks.check(op, r.rc, r.out))
    n = len(records)
    for i in sorted({k * n // recheck for k in range(recheck)} if n else ()):
        op, first = records[i]
        again = execute(op)
        if out[i] is None and (again.rc, again.out) != (first.rc, first.out):
            out[i] = "the same input gave different output"
    return out


# -- runs -----------------------------------------------------------------------


def setup(w: Workload, seed: int):
    """Import, input generation and warm-up; returns what the timed loop
    needs and the set-up time."""
    cli = import_package()

    def execute(op):
        return run_in_process(cli, op)

    stream = getattr(inputs, w.name.replace("-", "_"))(random.Random(seed))
    first = inputs.take(stream, w.round_size)
    for op in w.warmup:
        r = execute(op)
        if r.rc != 0:
            raise SystemExit(f"error: warm-up op {' '.join(op.argv)} failed: {r.error or r.rc}")
    return execute, stream, first, perf_counter() - T_START


def fresh_setup(w: Workload, seed: int) -> float:
    """Set-up time of a fresh benchmark process (--setup-only)."""
    p = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if p.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh process failed: {p.stderr.strip()}")
    return float(p.stdout.strip().splitlines()[-1])


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), by statistics.quantiles."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    """ru_maxrss of this process, which does the work.  Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


FRESH_SETUPS = 6  # set-ups in fresh processes per run, spread over the run


def untraced_run(w: Workload, seed: int, seconds: float):
    execute, stream, first, setup_s = setup(w, seed)
    setups = [setup_s]
    marks = [seconds * (k + 1) / FRESH_SETUPS for k in range(FRESH_SETUPS)]

    def between_rounds(elapsed):
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            setups.append(fresh_setup(w, seed))

    refs = []
    records = measure(w, stream, execute, seconds, first, MIN_OPS, between_rounds, refs)
    rss = peak_rss_mb()
    verdict = verdicts(records, execute)
    latencies = [host.scale(r.seconds, host.local(refs, i)) * 1e3
                 for i, (_, r) in enumerate(records)]
    passed = sum(v is None for v in verdict)
    print(f"host: kernel median {statistics.median(refs) * 1e3:.4f} ms (nominal "
          f"{host.NOMINAL_MS} ms), raw wall p50 "
          f"{statistics.median(r.seconds for _, r in records) * 1e3:.4f} ms")
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": passed / (sum(latencies) / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": quantile(latencies, 90),
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": len(setups), "throughput_ops_s": len(records),
               "latency_p50_ms": len(records), "latency_p90_ms": len(records), "peak_rss_mb": 1}
    return records, verdict, metrics, samples


def trace_in_process(w: Workload, stream, execute, seconds: float, first):
    """Each op runs traced and untraced, in alternating order, so that the
    two see the same machine."""
    tracer = trace.Tracer()
    untraced = []

    def paired(op):
        i = len(untraced)
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.install()
                try:
                    r = tracer.run_op(i, execute, op)
                finally:
                    tracer.uninstall()
                tracer.add("jsonio.bytes_out", len(r.out))
            else:
                plain = execute(op)
        untraced.append(plain)
        return r

    records = measure(w, stream, paired, seconds, first)
    return records, untraced, tracer.state()


def traced_run(w: Workload, seed: int, seconds: float):
    """Kernel timings, then the traced phase: every op traced and untraced,
    for the per-layer numbers and the tracing overhead."""
    execute, stream, first, _ = setup(w, seed)
    metrics = kernels.measure()
    metrics.update(startup_references())
    records, untraced, state = trace_in_process(w, stream, execute, seconds, first)
    verdict = verdicts(records, execute)
    for i, ((_, r), plain) in enumerate(zip(records, untraced)):
        if verdict[i] is None and (r.rc, r.out) != (plain.rc, plain.out):
            verdict[i] = "the output differs with tracing"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace.dump(state, str(out_dir / f"{w.name}-seed{seed}.spans.jsonl.gz"))

    n = len(records)
    layer = trace.summarize(state, n)
    traced_ms = sum(r.seconds for _, r in records) * 1e3 / n
    own = sum(layer[f"{name}.self_ms"] for name in trace.LAYERS)
    layer["trace.op_ms"] = traced_ms
    layer["trace.overhead_ratio"] = traced_ms / (sum(r.seconds for r in untraced) * 1e3 / n)
    layer["trace.accounted_ratio"] = own / traced_ms
    metrics.update(layer)
    return records, verdict, {k: metrics[k] for k in PER_LAYER}, {k: n for k in PER_LAYER}


def startup_references(repeat: int = 5) -> dict:
    """Wall time of a bare interpreter and of importing the CLI module."""
    env = child_env()
    out = {}
    for key, code in (("cli.interpreter_ms", "pass"), ("cli.import_ms", "import quasitoric.cli")):
        times = []
        for _ in range(repeat):
            t0 = perf_counter()
            p = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                               capture_output=True, timeout=120)
            if p.returncode != 0:
                raise SystemExit(f"error: python -c {code!r} failed")
            times.append((perf_counter() - t0) * 1e3)
        out[key] = statistics.median(times)
    return out


# -- reporting --------------------------------------------------------------------


def report(w: Workload, seed: int, records, verdict, metrics, units, samples, traced: bool) -> dict:
    failed = [(op, v) for (op, _), v in zip(records, verdict) if v is not None]
    print(f"workload {w.name}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"{len(records)} ops in rounds of {w.round_size}")
    print("mix " + json.dumps(inputs.mix([op for op, _ in records]), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} (n={samples[name]})")
    print(f"  {'error_rate':32s} {len(failed) / len(records):14.6g} {'ratio':6s} "
          f"({len(failed)} of {len(records)} ops failed)")
    for op, why in failed[:5]:
        print(f"  failed: {' '.join(op.argv)}: {why}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in its own process; one JSON line per workload."""
    results = {}
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(int(traced))],
                           capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        if p.returncode != 0:
            return p.returncode
        results[name] = json.loads(p.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    w = WORKLOADS[args.workload]
    if args.setup_only:
        print(setup(w, args.seed)[-1])
        return 0
    if args.trace:
        records, verdict, metrics, samples = traced_run(w, args.seed, args.seconds)
        units = PER_LAYER
    else:
        records, verdict, metrics, samples = untraced_run(w, args.seed, args.seconds)
        units = END_TO_END
    result = report(w, args.seed, records, verdict, metrics, units, samples, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
