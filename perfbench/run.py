"""locuskit CLI benchmark.

    python3 perfbench/run.py --workload cluster-3k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and needs only numpy.  One run:

1. set-up: a fresh interpreter imports ``locuskit.cli`` and writes the
   workload's inputs (CSV/PGM) from the seed.  ``setup_s`` is the median
   wall time of such processes, one started before the warm-up pass and
   one after each timed pass (at least ``SETUP_REPS`` in all), so the
   samples span the run as the passes do;
2. one warm-up pass over the workload's task list, then timed passes
   until ``--seconds`` is used up; checks run after each pass, outside
   its timed region.  Each pass calls
   ``locuskit.cli.run_task`` once per task, in order, in this process: a
   closed loop with one client and one task at a time, as a batch CLI is
   used.  ``wall_s`` is the median pass time, ``peak_rss_mb`` the
   process's ``ru_maxrss`` after these untraced passes;
3. with ``--trace 1``, one traced pass (spans and counters from
   ``tracer.py``) and one memory pass (tracemalloc peak per task).

Every task invocation's output is checked (``workloads.py``); a failed
check or an exception counts toward ``error_rate`` and is printed.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Work files go under
``perfbench/work/``.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS runs on one thread; this must happen before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
os.environ["LOCUSKIT_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "work")
SETUP_REPS = 5

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

_SETUP_CHILD = """
import sys, json
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import locuskit.cli, workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5], json.loads(sys.argv[6]))
"""


def time_setup(workload, seed, run_dir, sizes):
    """Wall time of one fresh process importing locuskit and writing inputs."""
    in_dir = os.path.join(run_dir, "setup")
    argv = [sys.executable, "-c", _SETUP_CHILD, SRC, BENCH_DIR, workload, str(seed), in_dir, json.dumps(sizes)]
    start = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
    subprocess.run(argv, check=True)
    elapsed = time.perf_counter() - start
    shutil.rmtree(in_dir)
    return elapsed


@contextmanager
def capture_mean_shift(cli, observed):
    """Record mean-shift row flags that the CLI drops; checks see them as metrics."""
    original = cli.mean_shift

    def capturing(*args, **kwargs):
        res = original(*args, **kwargs)
        observed.update(tracer.row_flags(res))
        return res

    cli.mean_shift = capturing
    try:
        yield
    finally:
        cli.mean_shift = original


class Runner:
    """Runs passes of one workload and checks every task invocation."""

    def __init__(self, cli, wl, run_dir):
        self.cli = cli
        self.wl = wl
        self.run_dir = run_dir
        self.attempted = 0
        self.failures = []  # (pass_id, task, message)
        self.reference_digests = {}
        self.observed = {}
        self.task_walls = {}  # task -> wall time of its run_task call in the latest pass

    @property
    def failed(self):
        """Task invocations with at least one failure."""
        return len({(pass_id, task) for pass_id, task, _ in self.failures})

    def run_pass(self, pass_id, tracer=None, memory=None):
        """One pass over the task list; returns its wall time.

        Checks run after the pass, outside the timed region.  ``tracer``
        adds a ``cli.<task>`` span per task; ``memory`` collects the
        tracemalloc peak per task.
        """
        outcomes = []
        gc.collect()  # every pass starts from a collected heap
        start = time.perf_counter()
        for task in self.wl.tasks:
            out_dir = os.path.join(self.run_dir, pass_id, task.name)
            self.observed.clear()
            os.environ["LOCUSKIT_THREADS"] = str(task.threads)
            if memory is not None:
                tracemalloc.start()
            task_start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("cli." + task.name):
                        metrics = self.cli.run_task(task.name, task.config, out_dir)
                else:
                    metrics = self.cli.run_task(task.name, task.config, out_dir)
                error = None
            except Exception as exc:  # a failing task is counted, not fatal
                metrics, error = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                self.task_walls[task.name] = time.perf_counter() - task_start
                os.environ["LOCUSKIT_THREADS"] = "1"
                if memory is not None:
                    memory[task.name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            outcomes.append((task, metrics, error, out_dir, dict(self.observed)))
        wall = time.perf_counter() - start
        for task, metrics, error, out_dir, observed in outcomes:
            self.attempted += 1
            problems = [error] if error else self.check(task, metrics, out_dir, observed)
            for message in problems:
                self.failures.append((pass_id, task.name, message))
                print(f"CHECK FAILED [{pass_id} {task.name}] {message}", file=sys.stderr)
        return wall

    def check(self, task, metrics, out_dir, observed):
        try:
            problems = list(task.check({**metrics, **observed}, out_dir))
            digests = workloads.output_digests(out_dir)
        except Exception as exc:  # a missing or malformed output is a failure
            return [f"check raised {type(exc).__name__}: {exc}"]
        reference = self.reference_digests.setdefault(task.name, digests)
        for name, digest in digests.items():
            if reference.get(name) != digest:
                problems.append(f"{name} differs from the first pass of this run")
        return problems


def _blas_version(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_sha256 names the code
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    """SHA-256 over the package sources, naming the measured code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "locuskit")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_record(np, wl, seed, seconds, trace):
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_sizes": wl.input_sizes,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "blas_env": BLAS_ENV,
        "locuskit_threads": {task.name: task.threads for task in wl.tasks},
    }


def measure(workload, seed, seconds, trace, sizes=None, work_dir=WORK_DIR):
    """One benchmark run; returns (record, end_to_end, per_layer, runner).

    ``per_layer`` is None unless ``trace``.  Metrics map a name to a value
    (end-to-end) or to a (value, unit) pair (per-layer).
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy as np

    from locuskit import cli

    sizes = dict(workloads.SIZES if sizes is None else sizes)
    run_dir = os.path.join(work_dir, f"{workload}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    setups = [time_setup(workload, seed, run_dir, sizes)]
    wl = workloads.build(workload, seed, os.path.join(run_dir, "inputs"), sizes)
    runner = Runner(cli, wl, run_dir)
    record = run_record(np, wl, seed, seconds, trace)

    with capture_mean_shift(cli, runner.observed):
        runner.run_pass("warmup")
        walls = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() + statistics.median(walls) + statistics.median(setups) <= deadline:
            walls.append(runner.run_pass(f"pass{len(walls)}"))
            setups.append(time_setup(workload, seed, run_dir, sizes))
        while len(setups) < SETUP_REPS:
            setups.append(time_setup(workload, seed, run_dir, sizes))
        end_to_end = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        record["timed_passes"] = len(walls)
        record["pass_walls_s"] = walls
        record["setup_samples_s"] = setups

        per_layer = None
        if trace:
            tr = tracer.Tracer()
            tr.pass_id = "traced"
            with tracer.instrument(tr):
                traced_wall = runner.run_pass("traced", tracer=tr)
            own = tr.self_times()
            breakdown = tr.task_breakdown(own)
            # Under strict nesting the layer self times plus the remainder
            # telescope to the task span by construction; what can fail is a
            # negative self time (overlapping spans) or a span total that
            # disagrees with the task's wall time taken outside the tracer.
            for entry in breakdown:
                total = sum(entry["layers_self_s"].values()) + entry["unspanned_s"]
                wall = runner.task_walls[entry["task"]]
                entry["task_wall_s"] = wall
                if abs(total - wall) > 1e-3 + 1e-4 * wall:
                    runner.failures.append(("traced", entry["task"], f"layer self times sum to {total}, task wall {wall}"))
            if min(own) < -1e-9:
                runner.failures.append(("traced", "trace", "a span has a negative self time"))
            record["task_breakdown"] = breakdown
            memory = {}
            runner.run_pass("memory", memory=memory)
            per_layer = tracer.layer_metrics(tr)
            per_layer["trace.overhead_s"] = (traced_wall - end_to_end["wall_s"], "s")
            for task in tracer.CLI_TASKS:
                per_layer[f"{task}.peak_alloc_mb"] = (memory.get(task, 0) / 2**20, "MB")

    record["error_rate"] = runner.failed / runner.attempted
    if trace:
        with open(os.path.join(run_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"record": record, **tr.to_json()}, fh)
    for name in ("warmup", *(f"pass{i}" for i in range(len(walls))), "traced", "memory"):
        shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
    return record, end_to_end, per_layer, runner


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "locuskit", "cli.py")):
        print(f"locuskit sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; have {list(workloads.NAMES)}", file=sys.stderr)
        return 2

    record, end_to_end, per_layer, runner = measure(args.workload, args.seed, args.seconds, args.trace)
    failed = runner.failed
    print(json.dumps({"run_record": record}))
    print(f"# end-to-end ({record['timed_passes']} untraced passes after one warm-up)")
    for name, value in end_to_end.items():
        print(f"{name:44s} {_fmt(value)} {END_TO_END_UNITS[name]}")
    print(f"{'error_rate':44s} {record['error_rate']:.6g} ratio ({failed}/{runner.attempted})")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}
    if per_layer is not None:
        print("# per-layer (traced pass; times are self times)")
        for name, (value, unit) in per_layer.items():
            print(f"{name:44s} {_fmt(value)} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
