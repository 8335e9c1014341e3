"""Benchmark d2dsim end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads: simulate, compare, oracle, plan (see workloads.py and README.md).
One process drives the package in a closed loop: one client, the next call
after the previous returns, ``n_jobs = 1`` and BLAS pinned to one thread.

``--trace 0`` runs rounds for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` wraps the layers' public functions, runs a fixed
number of rounds (set by ``--seconds``, so counts repeat exactly), replays
them untraced to measure the tracing overhead, and prints the per-layer
metrics.  Both check every output and finish with an ``n_jobs = 2`` versus
``n_jobs = 1`` bit-identity check.  The last line of stdout is the result.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads; child processes inherit these.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = [   # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("real_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def load_package():
    """Import d2dsim from this checkout's ``src``, or stop with an error."""
    if not (SRC / "d2dsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no d2dsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import d2dsim.cli  # noqa: F401  (loads every layer)
    if Path(sys.modules["d2dsim"].__file__).resolve().parent != (SRC / "d2dsim").resolve():
        sys.exit("perfbench: d2dsim was imported from outside this checkout")


def parse_args(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="corrupt the output of this operation (smoke test)")
    return parser.parse_args(argv)


# --- measurement helpers ----------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 20 samples no percentile at or above the median has ten samples
    beyond it, and the maximum is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2dsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_size": caches.get("l2", "unknown"),
        "l3_size": caches.get("l3", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_ENV},
        "n_jobs": 1,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


# --- running operations -----------------------------------------------------

class Runner:
    """Runs rounds of operations, timing and checking each one."""

    def __init__(self, golden: dict, corrupt_index: int):
        self.golden = golden
        self.corrupt_index = corrupt_index
        self.attempted = 0
        self.failures: list[str] = []
        self.approx_warnings = 0
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.units = 0

    def run_round(self, ops, caught: list):
        import workloads
        from d2dsim.errors import ApproximationWarning
        round_s = 0.0
        for op in ops:
            index = self.attempted
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = workloads.run_op(op)
                error = None
            except Exception as exc:   # one failed operation must not stop the run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            round_s += elapsed
            self.latencies.append(elapsed)
            self.approx_warnings += sum(issubclass(w.category, ApproximationWarning)
                                        for w in caught)
            caught.clear()
            if error is None:
                try:
                    values = workloads.extract(op, result)
                    if index == self.corrupt_index:
                        values = workloads.corrupt(values)
                    errors = workloads.check(op, values, result, self.golden)
                except Exception as exc:   # an unreadable output is a failed check
                    errors = [f"output unreadable: {type(exc).__name__}: {exc}"]
                error = "; ".join(errors)
            if error:
                self.failures.append(f"op {index} {op.key}: {error}")
            else:
                self.units += op.units
        self.round_s.append(round_s)

    def run(self, rounds, seconds: float | None = None):
        """Run ``rounds`` (an iterable of operation lists), stopping after the
        round that ends once ``seconds`` have passed, if given."""
        from d2dsim.errors import ApproximationWarning
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ApproximationWarning)
            for ops in rounds:
                self.run_round(ops, caught)
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break


def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter to its first operation being ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def njobs_check(work: Path, seed: int) -> str | None:
    """Run one simulate with n_jobs = 2 and n_jobs = 1; None when the reports match."""
    import workloads
    jobs = min(2, len(os.sched_getaffinity(0)))
    if jobs < 2:
        return None   # one CPU: nothing to compare against
    reports = []
    for n_jobs in (jobs, 1):
        cfg = work / f"njobs{n_jobs}.cfg"
        workloads.write_njobs_config(cfg, n_jobs)
        op = workloads.Op(kind="simulate", key="njobs", config=cfg,
                          out_dir=work / f"njobs{n_jobs}", seed=seed)
        try:
            workloads.run_op(op)
        except Exception as exc:   # reported as a failed check
            return f"n_jobs={n_jobs} simulate failed: {type(exc).__name__}: {exc}"
        reports.append((op.out_dir / "report.json").read_bytes())
    return None if reports[0] == reports[1] else f"n_jobs={jobs} report differs from n_jobs=1"


# --- the two kinds of run ---------------------------------------------------

def timed_run(args, workload, golden: dict) -> tuple[dict, Runner, dict]:
    setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    rng = random.Random(args.seed)
    runner = Runner(golden, args.corrupt)
    runner.run((workload.round(rng) for _ in itertools.count()), args.seconds)
    op_tail, tail_pct = tail(runner.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(runner.round_s),
        "real_per_s": runner.units / sum(runner.round_s),
        "op_p50_s": statistics.median(runner.latencies),
        "op_tail_s": op_tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "setup_samples_s": setups,
        "rounds": len(runner.round_s),
        "operations": len(runner.latencies),
        "op_tail_percentile": tail_pct,
        "realizations": runner.units,
        "approx_warnings": runner.approx_warnings,
    }
    return metrics, runner, detail


def trace_rounds(workload, seconds: float) -> int:
    """Rounds in a traced run, sized so that the traced rounds (up to 1.5x
    slower) plus their untraced replay take about ``seconds`` at the seed
    commit's pace.  Fixed for a given ``seconds``, so counts repeat."""
    return max(1, int(seconds / (2.5 * workload.nominal_round_s)))


def traced_run(args, workload, golden: dict) -> tuple[dict, Runner, dict]:
    import layers
    from tracer import Tracer
    rng = random.Random(args.seed)
    rounds = [workload.round(rng) for _ in range(trace_rounds(workload, args.seconds))]
    runner = Runner(golden, args.corrupt)
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        runner.run(rounds)
    finally:
        tracer.uninstall()
    traced_round_s = list(runner.round_s)
    approx_warnings = runner.approx_warnings
    runner.run(rounds)     # the same rounds, untraced
    untraced_round_s = runner.round_s[len(traced_round_s):]
    metrics = layers.layer_values(tracer, approx_warnings)
    metrics["trace.wall_s"] = statistics.median(traced_round_s)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_round_s)
    spans_path = OUT / f"spans-{args.workload}.json"
    tracer.write_spans(spans_path)
    detail = {
        "rounds": len(rounds),
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "untraced_wall_s": statistics.median(untraced_round_s),
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, runner, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](work)
        if args.probe:
            from d2dsim import cli
            first = workload.round(random.Random(args.seed))[0]
            cli.resolve_config(cli.parse_config_file(first.config), seed_override=first.seed)
            print("ready", flush=True)
            return 0
        golden = json.loads((BENCH / "golden.json").read_text())
        if args.trace:
            metrics, runner, detail = traced_run(args, workload, golden)
            import layers
            units = {name: unit for name, unit, _ in layers.METRICS}
        else:
            metrics, runner, detail = timed_run(args, workload, golden)
            units = dict(END_TO_END)
        runner.attempted += 1
        njobs_error = njobs_check(work, random.Random(args.seed).randint(1, workloads.SIM_POOL))
        if njobs_error:
            runner.failures.append(njobs_error)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    detail.update({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "provenance": provenance(args.seed),
    })
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
