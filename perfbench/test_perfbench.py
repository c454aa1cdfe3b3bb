"""Self-tests of the benchmark: tiny-size smoke runs and the output checks.

    python -m pytest perfbench -q
"""

import json
import os

import pytest

import run
import tracer
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name, tmp_path):
    record, end_to_end, per_layer, runner = run.measure(name, 5, 0, 1, sizes=workloads.TINY, work_dir=str(tmp_path))
    assert runner.failures == []
    assert record["error_rate"] == 0
    assert runner.attempted == 4 * len(record["locuskit_threads"])  # warm-up, one timed, traced, memory
    assert {m["name"] for m in SPEC["end_to_end"]} == set(end_to_end)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: unit for k, (_, unit) in per_layer.items()}
    assert all(end_to_end[k] > 0 for k in end_to_end)
    for task in record["locuskit_threads"]:
        assert per_layer[f"cli.{task}_s"][0] > 0
    assert len(record["setup_samples_s"]) >= run.SETUP_REPS
    for entry in record["task_breakdown"]:
        covered = sum(entry["layers_self_s"].values()) + entry["unspanned_s"]
        assert covered == pytest.approx(entry["task_wall_s"], abs=1e-3)


def test_counts_repeat_exactly(tmp_path):
    """Two traced runs of one seed give identical exact counters."""
    counts = []
    for attempt in range(2):
        _, _, per_layer, _ = run.measure("per-query-3k", 9, 0, 1, sizes=workloads.TINY, work_dir=str(tmp_path / str(attempt)))
        counts.append({name: per_layer[name][0] for name, _ in tracer.COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.gram_values_calls"] > 0
    assert counts[0]["sequence.nlm_threads"] == 2


@pytest.fixture
def cluster_runner(tmp_path):
    from locuskit import cli

    wl = workloads.build("cluster-3k", 4, str(tmp_path / "inputs"), workloads.TINY)
    runner = run.Runner(cli, wl, str(tmp_path))
    with run.capture_mean_shift(cli, runner.observed):
        runner.run_pass("first")
        assert runner.failures == []
        yield runner, cli


def test_changed_output_bytes_count_as_failure(cluster_runner, monkeypatch):
    runner, cli = cluster_runner
    original = cli.run_task

    def corrupting(task, config, out_dir):
        metrics = original(task, config, out_dir)
        with open(os.path.join(out_dir, "results.csv"), "a", encoding="utf-8") as fh:
            fh.write("0,0,0\n")
        return metrics

    monkeypatch.setattr(cli, "run_task", corrupting)
    runner.run_pass("second")
    assert runner.failed == 2
    assert all("results.csv differs" in message for _, _, message in runner.failures)


def test_missing_output_counts_as_failure(monkeypatch, tmp_path):
    from locuskit import cli

    wl = workloads.build("per-query-3k", 4, str(tmp_path / "inputs"), workloads.TINY)
    wl.tasks = [t for t in wl.tasks if t.name == "density-kde"]
    runner = run.Runner(cli, wl, str(tmp_path))
    original = cli.run_task

    def deleting(task, config, out_dir):
        metrics = original(task, config, out_dir)
        os.remove(os.path.join(out_dir, "results.csv"))
        return metrics

    monkeypatch.setattr(cli, "run_task", deleting)
    runner.run_pass("deleted")
    assert runner.failed == 1
    assert any("check raised" in message for _, _, message in runner.failures)


def test_bad_quality_and_exceptions_count_as_failures(cluster_runner, monkeypatch):
    runner, cli = cluster_runner
    original = cli.run_task

    def degraded(task, config, out_dir):
        if task == "cluster-medoidshift":
            raise RuntimeError("boom")
        return {**original(task, config, out_dir), "ari": 0.5}

    monkeypatch.setattr(cli, "run_task", degraded)
    runner.run_pass("second")
    assert runner.attempted == 4
    assert runner.failed == 2
    messages = [message for _, _, message in runner.failures]
    assert any("ari=0.5" in m for m in messages)
    assert any("RuntimeError: boom" in m for m in messages)


def test_unconverged_meanshift_rows_count_as_failure(tmp_path):
    from locuskit import cli

    wl = workloads.build("cluster-3k", 4, str(tmp_path / "inputs"), workloads.TINY)
    wl.tasks = [t for t in wl.tasks if t.name == "cluster-meanshift"]
    wl.tasks[0].config["max_iter"] = 2
    runner = run.Runner(cli, wl, str(tmp_path))
    with run.capture_mean_shift(cli, runner.observed):
        runner.run_pass("capped")
    assert runner.failed == 1
    assert any(message.startswith("unconverged_rows=") for _, _, message in runner.failures)


def test_instrument_restores_every_patch():
    from locuskit import cli, kernels, shifts

    before = (cli.mean_shift, shifts.extract_clusters, kernels.GaussianKernel.gram_values)
    with tracer.instrument(tracer.Tracer()):
        assert cli.mean_shift is not before[0]
        assert kernels.GaussianKernel.gram_values is not before[2]
    assert (cli.mean_shift, shifts.extract_clusters, kernels.GaussianKernel.gram_values) == before


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    tr.spans = [["cli.x", 0.0, 10.0, -1, "p"], ["a", 1.0, 4.0, 0, "p"], ["b", 2.0, 3.0, 1, "p"], ["a", 5.0, 6.0, 0, "p"]]
    assert tr.self_times() == [6.0, 2.0, 1.0, 1.0]
    (entry,) = tr.task_breakdown(tr.self_times())
    assert entry["unspanned_s"] == 6.0
    assert entry["layers_self_s"] == {"a": 3.0, "b": 1.0}


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-3k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
