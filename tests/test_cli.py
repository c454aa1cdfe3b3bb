"""CLI surface tests: ingestion schemas, every task driver, exit codes,
determinism of emitted artifacts, and the SVG element contracts."""

import json
import os

import numpy as np
import pytest

from locuskit import cli, kernels
from locuskit.adaptive import _loo_local_linear
from locuskit.cli import TASKS, _validate_config, main, run_task
from locuskit.dataio import ingest_csv, read_pgm, write_csv, write_pgm
from locuskit.errors import EmptyNeighborhood, ParseError, SchemaMismatch, ValidationError
from locuskit.estimators import Dataset, local_linear_predict, local_linear_transform, loo_error
from locuskit.kernels import epanechnikov, gaussian
from locuskit.sequence import Sequence
from locuskit.svg import emit_svg
from locuskit.synth import step_signal


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestIngest:
    def test_features_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        data = ingest_csv(p, "features-only")
        assert isinstance(data, Dataset)
        assert data.n == 3 and data.p == 2

    def test_features_target(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        data = ingest_csv(p, "features+target")
        assert data.p == 1 and data.kind == "real"

    def test_features_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,c\n1,0\n3,1\n")
        data = ingest_csv(p, "features+label")
        assert data.kind == "labels"

    @pytest.mark.parametrize("label", ["0.99999999999", "1000000.4"])
    def test_near_integer_label_rejected(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"x,c\n1,0\n3,{label}\n")
        with pytest.raises(SchemaMismatch, match="non-integer"):
            ingest_csv(p, "features+label")

    def test_sequence_schema(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n0,1\n1,2\n2,3\n")
        seq = ingest_csv(p, "sequence")
        assert isinstance(seq, Sequence)
        assert seq.length == 3

    def test_parse_error_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        rows = ["x,y"] + [f"{i},{i}" for i in range(1, 7)] + ["oops,3", "8,8"]
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(p, "features+target")
        assert err.value.row == 7

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "bad.csv"
        p.write_text(f"x,y\n1,2\n3,{cell}\n")
        with pytest.raises(ParseError) as err:
            ingest_csv(p, "features+target")
        assert (err.value.row, err.value.column) == (2, 1)

    def test_schema_mismatch(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x\n1\n2\n")
        with pytest.raises(SchemaMismatch):
            ingest_csv(p, "features+target")
        with pytest.raises(SchemaMismatch):
            ingest_csv(p, "bogus")

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3)) * 1e7
        p = tmp_path / "rt.csv"
        write_csv(p, ["a", "b", "c"], X)
        back = ingest_csv(p, "features-only")
        np.testing.assert_array_equal(back.X, X)

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(9, 7)).astype(np.uint8)
        p = tmp_path / "i.pgm"
        write_pgm(p, img)
        np.testing.assert_array_equal(read_pgm(p), img)


class TestRunTask:
    def test_meanshift_bundled_two_blobs(self, tmp_path):
        metrics = run_task(
            "cluster-meanshift",
            {"input": "bundled:two-blobs", "seed": 7},
            str(tmp_path),
        )
        assert metrics["n_clusters"] == 2
        assert metrics["ari"] == 1.0
        for artifact in ("results.csv", "metrics.json", "plot.svg", "trajectories.csv"):
            assert (tmp_path / artifact).exists()

    def test_meanshift_counters(self, tmp_path):
        cfg = {"input": "bundled:two-blobs", "seed": 7}
        run_task("cluster-meanshift", cfg, str(tmp_path / "full"))
        counters = json.load(open(tmp_path / "full" / "metrics.json"))["diagnostics"]["counters"]
        n = len((tmp_path / "full" / "results.csv").read_text().splitlines()) - 1
        snapshots = len((tmp_path / "full" / "trajectories.csv").read_text().splitlines()) - 1
        assert counters == {"sweeps": snapshots // n - 1, "unconverged_rows": 0, "empty_rows": 0}
        assert counters["sweeps"] > 1
        run_task("cluster-meanshift", {**cfg, "max_iter": 1}, str(tmp_path / "cut"))
        counters = json.load(open(tmp_path / "cut" / "metrics.json"))["diagnostics"]["counters"]
        assert counters["sweeps"] == 1 and counters["empty_rows"] == 0
        assert 0 < counters["unconverged_rows"] <= n

    def test_medoidshift_bundled(self, tmp_path):
        metrics = run_task(
            "cluster-medoidshift",
            {"input": "bundled:two-blobs", "kernel": {"kind": "gaussian", "h": 2.0}, "seed": 7},
            str(tmp_path),
        )
        assert metrics["n_clusters"] == 2
        assert metrics["ari"] == 1.0
        assert metrics["diagnostics"] == {"counters": {"terminal_medoids": 2}}

    def test_medoidshift_counts_terminal_medoids_before_the_merge(self, tmp_path):
        cfg = {"input": "bundled:two-blobs", "kernel": {"kind": "gaussian", "h": 0.3}, "seed": 7}
        merged = run_task("cluster-medoidshift", {**cfg, "merge_radius": 2.0}, str(tmp_path / "merged"))
        raw = run_task("cluster-medoidshift", cfg, str(tmp_path / "raw"))
        assert merged["n_clusters"] == 2
        assert merged["diagnostics"] == raw["diagnostics"] == {"counters": {"terminal_medoids": raw["n_clusters"]}}
        assert raw["n_clusters"] > 2

    def test_relax_recovers_blobs(self, tmp_path):
        metrics = run_task(
            "cluster-relax",
            {"input": "bundled:two-blobs", "n_classes": 2, "seed": 3},
            str(tmp_path),
        )
        assert metrics["ari"] == 1.0

    def test_soft_relax_recovers_blobs_and_reruns_byte_identical(self, tmp_path):
        cfg = {"input": "bundled:two-blobs", "n_classes": 2, "seed": 3, "mode": "soft"}
        metrics = run_task("cluster-relax", cfg, str(tmp_path / "first"))
        run_task("cluster-relax", cfg, str(tmp_path / "again"))
        assert metrics["ari"] >= 0.9
        for name in ("results.csv", "plot.svg"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_regress_tasks(self, tmp_path):
        cfg = {"input": "bundled:noisy-sine", "kernel": {"kind": "gaussian", "h": 0.3}, "seed": 1}
        m1 = run_task("regress-local-mean", cfg, str(tmp_path / "lm"))
        m2 = run_task("regress-local-linear", cfg, str(tmp_path / "ll"))
        assert m1["r2_train"] > 0.9
        assert m2["r2_train"] > 0.9

    def test_classify_local(self, tmp_path):
        metrics = run_task(
            "classify-local",
            {"input": "bundled:two-blobs", "kernel": {"kind": "gaussian", "h": 0.5}},
            str(tmp_path),
        )
        assert metrics["accuracy"] == 1.0

    def test_tune_bandwidth_single_grid_point(self, tmp_path):
        metrics = run_task(
            "tune-bandwidth",
            {"input": "bundled:noisy-sine", "grid": [0.25]},
            str(tmp_path),
        )
        assert metrics["h_star"] == 0.25

    def test_tune_bandwidth_curve(self, tmp_path):
        metrics = run_task(
            "tune-bandwidth",
            {"input": "bundled:noisy-sine", "grid": {"min": 0.01, "max": 2.0, "count": 20}},
            str(tmp_path),
        )
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "h,loss"
        assert len(rows) == 21
        assert 0.01 < metrics["h_star"] < 2.0

    def test_embedding_tasks(self, tmp_path):
        cfg = {
            "input": {"synthetic": {"kind": "swiss-roll", "n": 60, "seed": 3}},
            "seed": 5,
        }
        m = run_task("embed-lle", {**cfg, "n_neighbors": 8, "dim": 2}, str(tmp_path / "lle"))
        assert m["objective"] >= 0
        m = run_task("embed-amds", {**cfg, "q": 2, "method": "nmf"}, str(tmp_path / "amds"))
        assert m["strain"] >= 0
        m = run_task("embed-trimap", {**cfg, "steps": 30}, str(tmp_path / "tri"))
        assert np.isfinite(m["objective"])

    def test_embed_words(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("alpha beta gamma alpha beta delta epsilon zeta " * 4)
        metrics = run_task(
            "embed-words",
            {"input": str(corpus), "window": 3, "dim": 2},
            str(tmp_path / "wv"),
        )
        assert metrics["vocabulary"] == 6
        header = (tmp_path / "wv" / "results.csv").read_text().splitlines()[0]
        assert header == "symbol,v0,v1"

    def test_density_kde(self, tmp_path):
        metrics = run_task(
            "density-kde",
            {
                "input": {"synthetic": {"kind": "two-mode", "n": 60, "seed": 2}},
                "kernel": {"kind": "gaussian", "h": 0.4},
                "grid_count": 101,
            },
            str(tmp_path),
        )
        assert metrics["grid_count"] == 101
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 102

    def test_generate_diffusion(self, tmp_path):
        metrics = run_task(
            "generate-diffusion",
            {
                "input": {"synthetic": {"kind": "two-mode", "n": 100, "seed": 11}},
                "seed": 7,
                "n_samples": 120,
            },
            str(tmp_path),
        )
        assert metrics["n_samples"] == 120
        assert 0.2 < metrics["left_mass"] < 0.8

    def test_denoise_nlm_sequence(self, tmp_path):
        clean, noisy = step_signal(120, 0.1, rng_seed=5)
        noisy_path = tmp_path / "noisy.csv"
        clean_path = tmp_path / "clean.csv"
        write_csv(noisy_path, ["t", "v"], [[i, v] for i, v in enumerate(noisy)])
        write_csv(clean_path, ["t", "v"], [[i, v] for i, v in enumerate(clean)])
        metrics = run_task(
            "denoise-nlm",
            {"input": str(noisy_path), "clean": str(clean_path)},
            str(tmp_path / "out"),
        )
        assert metrics["mse_vs_clean"] < metrics["mse_moving_average"]

    def test_denoise_nlm_image(self, tmp_path):
        rng = np.random.default_rng(6)
        img = np.zeros((10, 10))
        img[:, 5:] = 200.0
        noisy = np.clip(img + rng.normal(0, 12, img.shape), 0, 255)
        path = tmp_path / "img.pgm"
        write_pgm(path, noisy)
        metrics = run_task(
            "denoise-nlm",
            {"image": str(path), "patch_radius": 1, "bandwidth": 0.15, "search_radius": 3},
            str(tmp_path / "out"),
        )
        assert (tmp_path / "out" / "denoised.pgm").exists()

    def test_denoise_nlm_zero_radii_is_identity(self, tmp_path):
        # no moving-average bandwidth is set: its default must not be 0
        clean, noisy = step_signal(40, 0.1, rng_seed=5)
        noisy_path = tmp_path / "noisy.csv"
        clean_path = tmp_path / "clean.csv"
        write_csv(noisy_path, ["t", "v"], [[i, v] for i, v in enumerate(noisy)])
        write_csv(clean_path, ["t", "v"], [[i, v] for i, v in enumerate(clean)])
        cfg = {"input": str(noisy_path), "clean": str(clean_path), "patch_radius": 0, "search_radius": 0}
        metrics = run_task("denoise-nlm", cfg, str(tmp_path / "out"))
        assert metrics["mse_vs_clean"] == metrics["mse_moving_average"]
        assert metrics["mse_vs_clean"] == float(((noisy - clean) ** 2).mean())

    def test_local_linear_jitter_counter(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(data, ["x", "y"], [[x, x * x] for x in np.linspace(0.0, 1.0, 20)])
        # each query's neighborhood holds only itself: every system is singular
        cfg = {"input": str(data), "kernel": {"kind": "neighborhood", "eps": 1e-3}}
        run_task("regress-local-linear", cfg, str(tmp_path / "narrow"))
        metrics = json.load(open(tmp_path / "narrow" / "metrics.json"))
        assert metrics["diagnostics"] == {"counters": {"jittered": 20}}
        assert metrics["loo_error"] is None  # no held-out row has a neighbour
        cfg = {"input": "bundled:noisy-sine", "kernel": {"kind": "gaussian", "h": 0.3}}
        run_task("regress-local-linear", cfg, str(tmp_path / "sine"))
        metrics = json.load(open(tmp_path / "sine" / "metrics.json"))
        assert metrics["diagnostics"] == {"counters": {"jittered": 0}}

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_local_linear_loo_error_is_the_local_linear_held_out_loss(self, tmp_path, lam):
        path = tmp_path / "sine.csv"
        x = 4 * np.pi * np.arange(200) / 199
        write_csv(path, ["x", "y"], [[t, np.sin(t)] for t in x])
        cfg = {"input": str(path), "kernel": {"kind": "gaussian", "h": 0.3}, "lambda": lam}
        run_task("regress-local-linear", cfg, str(tmp_path / "out"))
        got = json.load(open(tmp_path / "out" / "metrics.json"))["loo_error"]
        data = ingest_csv(path, "features+target")
        k = gaussian(0.3)
        # n refits, each on the data without its held-out sample
        held_out = [Dataset(np.delete(data.X, i, 0), np.delete(data.y, i)) for i in range(data.n)]
        refits = sum((data.y[i] - local_linear_predict(k, rest, data.X[i], lam)[0]) ** 2 for i, rest in enumerate(held_out))
        assert got == pytest.approx(refits, rel=1e-9)
        assert got == _loo_local_linear(k, lam, data)[0]
        assert got < 0.5 * loo_error(k, data)  # the local mean's held-out loss, which the task reported before

    def test_a_held_out_failure_in_a_later_block_leaves_the_fit(self, tmp_path):
        # 300 samples make two row blocks of a 2**16-entry gram; the last sample sits alone, so under a compact
        # kernel only its held-out fit, in the second block, has no weight
        x = np.append(np.linspace(0.0, 10.0, 299), 100.0)
        path = tmp_path / "lonely.csv"
        write_csv(path, ["x", "y"], [[t, np.sin(t)] for t in x])
        k = epanechnikov(1.0)
        assert kernels._block_height(len(x)) < len(x)
        cfg = {"input": str(path), "kernel": {"kind": "epanechnikov", "h": 1.0}}
        run_task("regress-local-linear", cfg, str(tmp_path / "out"))
        metrics = json.load(open(tmp_path / "out" / "metrics.json"))
        assert metrics["loo_error"] is None
        data = ingest_csv(path, "features+target")
        with pytest.raises(EmptyNeighborhood, match=r"no positive kernel weights at array\(\[100\.\]\)"):
            _loo_local_linear(k, 0.0, data)
        want, jittered = local_linear_transform(k, data, data.X)
        table = np.genfromtxt(tmp_path / "out" / "results.csv", delimiter=",", names=True)
        assert np.array_equal(table["prediction"], want)
        assert metrics["diagnostics"] == {"counters": {"jittered": int(jittered.sum())}}

    def test_fit_qkv_toy(self, tmp_path):
        metrics = run_task(
            "fit-qkv",
            {"input": "bundled:qkv-toy", "seed": 7, "steps": 200},
            str(tmp_path),
        )
        assert metrics["final_loss"] < 0.5 * metrics["initial_loss"]

    def test_transformer_demo(self, tmp_path):
        metrics = run_task("transformer-demo", {"seed": 9}, str(tmp_path))
        assert metrics["causality_ok"] is True

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            run_task("density-kde", {"input": "bundled:noisy-sine", "bogus": 1}, str(tmp_path))

    def test_missing_seed_for_stochastic(self, tmp_path):
        with pytest.raises(ValidationError):
            run_task("fit-qkv", {"input": "bundled:qkv-toy"}, str(tmp_path))


class TestMainExitCodes:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"input": "bundled:two-blobs", "seed": 7})
        code = main(["cluster-meanshift", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert '"n_clusters": 2' in capsys.readouterr().out

    def test_missing_input_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"input": str(tmp_path / "nope.csv"), "seed": 1})
        code = main(["cluster-meanshift", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "validation"

    def test_nan_cell_exit_two(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x0,x1,label\n0,0,0\n0.1,nan,0\n5,5,1\n5.1,5,1\n")
        cfg = write_config(tmp_path, "c.json", {"input": str(data), "seed": 1})
        code = main(["cluster-meanshift", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "validation"
        assert "row 2, column 1" in payload["message"]

    def test_single_element_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"input": "bundled:noisy-sine", "grid": [0.7]}
        )
        code = main(["tune-bandwidth", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert json.load(open(tmp_path / "o" / "metrics.json"))["h_star"] == 0.7

    def test_numeric_failure_exit_three(self, tmp_path, capsys):
        # a hollow compact-support kernel leaves every medoid row empty
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "input": "bundled:two-blobs",
                "kernel": {"kind": "hollow", "base": {"kind": "epanechnikov", "h": 1e-6}},
            },
        )
        code = main(["cluster-medoidshift", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "numeric"

    def test_image_nlm_zero_bandwidth_exit_two(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.arange(64.0).reshape(8, 8))
        cfg = write_config(tmp_path, "c.json", {"image": str(path), "bandwidth": 0})
        code = main(["denoise-nlm", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"
        assert not (tmp_path / "o" / "denoised.pgm").exists()

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["cluster-meanshift", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2

    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune-bandwidth", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in ("input", "predictor", "grid", "seed"):
            assert key in text

    def test_help_states_the_qkv_width_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["fit-qkv", "--help"])
        assert "d (int >= 1; default 2)" in capsys.readouterr().out

    def test_every_task_has_schema_and_help(self):
        for name, spec in TASKS.items():
            text = spec.key_help()
            for k in spec.keys:
                assert k.name in text


_GAUSS = {"kind": "gaussian", "h": 0.5}
_SWISS = {"synthetic": {"kind": "swiss-roll", "n": 40, "seed": 3}}
_TWO_MODE = {"synthetic": {"kind": "two-mode", "n": 40, "seed": 2}}
_LINE_BLOBS = {"synthetic": {"kind": "blobs", "n_per_blob": 10, "centers": [[0.0], [3.0]], "seed": 1}}
_STEP = {"synthetic": {"kind": "step", "n": 40, "seed": 5}}

# (task, config from the directory of written inputs, files written besides results.csv and metrics.json)
EVERY_TASK = [
    ("regress-local-mean", lambda d: {"input": "bundled:noisy-sine", "kernel": _GAUSS}, {"plot.svg"}),
    ("regress-local-mean", lambda d: {"input": str(d / "plane.csv"), "kernel": _GAUSS}, set()),
    ("regress-local-linear", lambda d: {"input": "bundled:noisy-sine", "kernel": _GAUSS}, {"plot.svg"}),
    ("regress-local-linear", lambda d: {"input": str(d / "plane.csv"), "kernel": _GAUSS}, set()),
    ("classify-local", lambda d: {"input": "bundled:two-blobs", "kernel": _GAUSS}, {"plot.svg"}),
    ("classify-local", lambda d: {"input": _LINE_BLOBS, "kernel": _GAUSS}, set()),
    ("cluster-meanshift", lambda d: {"input": "bundled:two-blobs"}, {"plot.svg", "trajectories.csv"}),
    ("cluster-medoidshift", lambda d: {"input": "bundled:two-blobs", "kernel": _GAUSS}, {"plot.svg"}),
    ("cluster-medoidshift", lambda d: {"input": _LINE_BLOBS, "kernel": _GAUSS}, set()),
    ("cluster-relax", lambda d: {"input": "bundled:two-blobs", "n_classes": 2, "seed": 3}, {"plot.svg"}),
    ("cluster-relax", lambda d: {"input": _LINE_BLOBS, "n_classes": 2, "seed": 3}, set()),
    ("embed-lle", lambda d: {"input": _SWISS, "n_neighbors": 6, "dim": 1}, {"plot.svg"}),
    ("embed-amds", lambda d: {"input": _SWISS, "q": 1, "iters": 20, "seed": 5}, {"plot.svg"}),
    ("embed-trimap", lambda d: {"input": _SWISS, "steps": 5, "seed": 5}, {"plot.svg"}),
    ("embed-words", lambda d: {"input": str(d / "corpus.txt"), "window": 3}, {"plot.svg"}),
    ("density-kde", lambda d: {"input": _TWO_MODE, "grid_count": 21}, {"plot.svg"}),
    ("generate-diffusion", lambda d: {"input": _TWO_MODE, "seed": 7, "n_samples": 20}, {"plot.svg"}),
    ("generate-diffusion", lambda d: {"input": "bundled:two-blobs", "seed": 7, "n_samples": 20}, {"plot.svg"}),
    ("denoise-nlm", lambda d: {"input": _STEP, "search_radius": 3}, {"plot.svg"}),
    ("denoise-nlm", lambda d: {"image": str(d / "image.pgm"), "search_radius": 2}, {"denoised.pgm"}),
    ("tune-bandwidth", lambda d: {"input": "bundled:noisy-sine", "grid": [0.2, 0.5]}, {"plot.svg"}),
    ("fit-qkv", lambda d: {"input": "bundled:qkv-toy", "seed": 7, "steps": 10}, {"plot.svg"}),
    ("transformer-demo", lambda d: {"seed": 9, "length": 12, "depth": 2}, {"plot.svg"}),
]
DETERMINISTIC_FILES = ("results.csv", "plot.svg", "trajectories.csv", "denoised.pgm")


@pytest.fixture(scope="module")
def task_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    write_csv(d / "plane.csv", ["x0", "x1", "y"], np.column_stack([X, X[:, 0] - X[:, 1]]))
    (d / "corpus.txt").write_text("alpha beta gamma alpha beta delta epsilon zeta " * 4)
    write_pgm(d / "image.pgm", rng.integers(0, 256, size=(8, 8)))
    return d


class TestDeterminism:
    def test_every_task_is_covered(self):
        assert {task for task, _, _ in EVERY_TASK} == set(TASKS)

    @pytest.mark.parametrize(
        "task, config, extra", EVERY_TASK, ids=[f"{t}-{i}" for i, (t, _, _) in enumerate(EVERY_TASK)]
    )
    def test_every_task_writes_its_files_byte_identically(self, tmp_path, task_inputs, task, config, extra):
        cfg = config(task_inputs)
        run_task(task, cfg, str(tmp_path / "a"))
        run_task(task, cfg, str(tmp_path / "b"))
        written = {p.name for p in (tmp_path / "a").iterdir()}
        assert written == {"results.csv", "metrics.json"} | extra
        assert {p.name for p in (tmp_path / "b").iterdir()} == written
        for name in written.intersection(DETERMINISTIC_FILES):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = {"input": "bundled:two-blobs", "seed": 7}
        run_task("cluster-meanshift", cfg, str(tmp_path / "a"))
        run_task("cluster-meanshift", cfg, str(tmp_path / "b"))
        for name in ("results.csv", "plot.svg", "trajectories.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diffusion_determinism(self, tmp_path):
        cfg = {
            "input": {"synthetic": {"kind": "two-mode", "n": 50, "seed": 4}},
            "seed": 13,
            "n_samples": 40,
        }
        run_task("generate-diffusion", cfg, str(tmp_path / "a"))
        run_task("generate-diffusion", cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()


class TestSvg:
    def test_single_point_one_circle(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_svg("scatter", {"points": np.array([[1.0, 2.0]])}, path)
        text = path.read_text()
        assert text.count("<circle") == 1
        assert "svg" in text and "1.1" in text

    def test_byte_identical_reruns(self, tmp_path):
        pts = np.random.default_rng(2).normal(size=(20, 2))
        emit_svg("scatter", {"points": pts}, tmp_path / "a.svg")
        emit_svg("scatter", {"points": pts}, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_trajectories_polyline_count(self, tmp_path):
        trajs = [np.random.default_rng(i).normal(size=(5, 2)) for i in range(3)]
        emit_svg("trajectories", {"trajectories": trajs}, tmp_path / "t.svg")
        assert (tmp_path / "t.svg").read_text().count("<polyline") == 3

    def test_curve_argmin_marker(self, tmp_path):
        x = np.linspace(0, 1, 30)
        y = (x - 0.4) ** 2
        emit_svg("curve+argmin", {"x": x, "y": y}, tmp_path / "c.svg")
        text = (tmp_path / "c.svg").read_text()
        assert text.count("<circle") == 1
        assert text.count("<polyline") == 2


def test_console_script_subprocess(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": "bundled:two-blobs", "seed": 7}))
    proc = subprocess.run(
        [sys.executable, "-m", "locuskit", "cluster-meanshift", "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"n_clusters": 2' in proc.stdout


def test_classify_near_integer_label_exit_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x0,label\n0,0\n0.1,0.99999999999\n5,1\n")
    cfg = write_config(tmp_path, "c.json", {"input": str(data), "kernel": {"kind": "gaussian", "h": 1.0}})
    code = main(["classify-local", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "validation"
    assert "non-integer" in payload["message"]
    assert not (tmp_path / "o" / "results.csv").exists()


def test_classify_negative_label_exit_two(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x0,label\n0,-1\n0.1,-1\n5,1\n")
    cfg = write_config(tmp_path, "c.json", {"input": str(data), "kernel": {"kind": "gaussian", "h": 1.0}})
    code = main(["classify-local", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "validation"
    assert "labels must be >= 0" in payload["message"]


def assert_validation_exit(tmp_path, capsys, task, cfg):
    """Exit 2, one JSON line on stderr, and no file in the output directory."""
    out = tmp_path / "o"
    code = main([task, "--config", cfg, "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"
    assert not out.exists() or not os.listdir(out)
    return json.loads(lines[0])["message"]


@pytest.mark.parametrize("header", [b"P5\nabc 4\n255\n", b"P5\n0 4\n255\n"], ids=["non-integer", "zero-width"])
def test_malformed_pgm_header_exit_two(tmp_path, capsys, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ParseError):
        read_pgm(path)
    cfg = write_config(tmp_path, "c.json", {"image": str(path)})
    assert "PGM" in assert_validation_exit(tmp_path, capsys, "denoise-nlm", cfg)


@pytest.mark.parametrize(
    "grid, field",
    [
        ({"max": 1.0, "count": 3}, "min"),
        ({"min": 0, "max": 1.0, "count": 3}, "min"),
        (["wide"], "grid"),
        ({"min": 0.1, "max": 1.0, "count": 3, "cnt": 9}, "cnt"),
    ],
    ids=["missing-min", "zero-min", "non-numeric-list", "unknown-key"],
)
def test_malformed_grid_exit_two(tmp_path, capsys, grid, field):
    cfg = write_config(tmp_path, "c.json", {"input": "bundled:noisy-sine", "grid": grid})
    assert repr(field) in assert_validation_exit(tmp_path, capsys, "tune-bandwidth", cfg)


@pytest.mark.parametrize(
    "task, synthetic, field",
    [
        ("cluster-meanshift", {"kind": "blobs", "n_per_blob": "many"}, "n_per_blob"),
        ("regress-local-mean", {"kind": "noisy-sine", "n": [3]}, "n"),
        ("regress-local-mean", {"kind": "noisy-sine", "noise": -0.1}, "noise"),
        ("regress-local-mean", {"kind": "noisy-sine", "n": True}, "n"),
        ("regress-local-mean", {"kind": "noisy-sine", "seed": -1}, "seed"),
        ("regress-local-mean", {"kind": "noisy-sine", "seed": 1.5}, "seed"),
        ("regress-local-mean", {"kind": "noisy-sine", "n": 50, "noize": 5.0}, "noize"),
        ("cluster-meanshift", {"kind": "blobs", "n": 20}, "n"),
    ],
    ids=[
        "string-count", "list-count", "negative-scale", "bool-count", "negative-seed", "fractional-seed",
        "unknown-key", "key-of-another-kind",
    ],
)
def test_malformed_synthetic_field_exit_two(tmp_path, capsys, task, synthetic, field):
    cfg = write_config(tmp_path, "c.json", {"input": {"synthetic": synthetic}, "seed": 1})
    assert repr(field) in assert_validation_exit(tmp_path, capsys, task, cfg)


@pytest.mark.parametrize("value", [10.7, True, "10"], ids=["fractional", "bool", "string"])
def test_non_integer_int_key_exit_two(tmp_path, capsys, value):
    cfg = write_config(tmp_path, "c.json", {"input": "bundled:two-blobs", "n_neighbors": value})
    assert "'n_neighbors' must be int" in assert_validation_exit(tmp_path, capsys, "embed-lle", cfg)


def test_integral_float_for_int_key_is_read_as_int():
    cfg = _validate_config(TASKS["embed-lle"], {"input": "x", "n_neighbors": 10.0})
    assert cfg["n_neighbors"] == 10 and type(cfg["n_neighbors"]) is int


_RELAX = {"input": "bundled:two-blobs", "seed": 1, "n_classes": 2}
_SINE = {"input": "bundled:noisy-sine"}


@pytest.mark.parametrize(
    "task, config, named",
    [
        ("cluster-relax", {**_RELAX, "n_classes": 0}, "'n_classes' must be int >= 1"),
        ("cluster-relax", {**_RELAX, "n_classes": -2}, "'n_classes' must be int >= 1"),
        ("cluster-relax", {**_RELAX, "n_classes": 1000}, "n_clusters must be in [1, 60]"),
        ("cluster-relax", {**_RELAX, "mode": "bogus"}, "'mode' must be one of 'hard', 'soft'"),
        ("density-kde", {"input": _TWO_MODE, "grid_count": -1}, "'grid_count' must be int >= 1"),
        ("fit-qkv", {"input": "bundled:qkv-toy", "seed": 1, "steps": -1}, "'steps' must be int >= 0"),
        ("transformer-demo", {"seed": 1, "d": 0}, "'d' must be int >= 1"),
        ("transformer-demo", {"seed": 1, "length": 0}, "'length' must be int >= 1"),
        ("cluster-meanshift", {"input": "bundled:two-blobs", "max_iter": -1}, "'max_iter' must be int >= 0"),
        ("cluster-relax", {**_RELAX, "max_iter": -1}, "'max_iter' must be int >= 0"),
        ("regress-local-mean", {**_SINE, "fallback": "bogus"}, "'fallback' must be one of 'error', 'nearest-neighbor'"),
        ("regress-local-mean", {**_SINE, "kernel": {"kind": "dual"}}, "'base'"),
        ("regress-local-mean", {**_SINE, "kernel": {"kind": "multi", "parts": [{"kind": "uniform"}]}}, "'weights'"),
        ("regress-local-mean", {**_SINE, "kernel": {"kind": "knn", "k": 2, "reference": "abc"}}, "'knn'"),
        (
            "regress-local-mean",
            {**_SINE, "kernel": {"kind": "knn", "k": 2.5, "reference": [[0.0], [1.0]]}},
            "k must be an integer",
        ),
        ("regress-local-mean", {**_SINE, "kernel": {"kind": "gaussian", "h": 0.3, "H": 9}}, "'H'"),
        (
            "regress-local-mean",
            {**_SINE, "kernel": {"kind": "hollow", "base": {"kind": "uniform"}, "eps": 0.3}},
            "'eps'",
        ),
        ("regress-local-mean", {**_SINE, "kernel": {"kind": "multi", "weights": [1.0], "parts": 5}}, "'parts'"),
        ("regress-local-mean", {"input": {"synthetic": {"kind": "noisy-sine"}, "noise": 5.0}}, "'noise'"),
        ("transformer-demo", {"seed": 1, "hidden": -1}, "'hidden' must be int >= 1"),
        ("transformer-demo", {"seed": 1, "depth": -1}, "'depth' must be int >= 1"),
        ("embed-amds", {"input": _SWISS, "seed": 1, "iters": -1}, "'iters' must be int >= 0"),
        ("cluster-meanshift", {"input": "bundled:two-blobs", "tol": -1e-3}, "'tol' must be float >= 0"),
        ("embed-trimap", {"input": _SWISS, "seed": 1, "lr": -0.05}, "'lr' must be float > 0"),
        ("fit-qkv", {"input": "bundled:qkv-toy", "seed": 1, "lr": -0.1}, "'lr' must be float > 0"),
        ("fit-qkv", {"input": "bundled:qkv-toy", "seed": 1, "lr": 0}, "'lr' must be float > 0"),
        ("embed-trimap", {"input": _SWISS, "seed": 1, "similarity_h": 1e-300}, "2 h^2 underflows"),
        ("embed-amds", {"input": _SWISS, "seed": 1, "method": "pca"}, "'method' must be one of 'svd', 'nmf'"),
        (
            "embed-trimap",
            {"input": _SWISS, "seed": 1, "transform": "log"},
            "'transform' must be one of 'identity', 'log1p'",
        ),
        (
            "tune-bandwidth",
            {**_SINE, "predictor": "bogus", "grid": [0.1, 1.0]},
            "'predictor' must be one of 'local-mean', 'local-linear', 'kde-loo'",
        ),
        (
            "fit-qkv",
            {"input": "bundled:qkv-toy", "seed": 1, "form": "cubic"},
            "'form' must be one of 'softmax', 'linear'",
        ),
        ("embed-lle", {"input": _SWISS, "n_neighbors": 0}, "'n_neighbors' must be int >= 1"),
        ("embed-lle", {"input": _SWISS, "dim": 0}, "'dim' must be int >= 1"),
        (
            "regress-local-mean",
            {**_SINE, "kernel": {"kind": "feature", "phi": "a", "psi": "b"}},
            "'phi' must be callable",
        ),
        ("embed-trimap", {"input": _SWISS, "seed": 1, "q": 0}, "'q' must be int >= 1"),
        ("embed-trimap", {"input": _SWISS, "seed": 1, "steps": 0}, "'steps' must be int >= 1"),
        ("embed-trimap", {"input": _SWISS, "seed": 1, "similarity_h": -1.0}, "'similarity_h' must be float > 0"),
        ("embed-words", {"input": "corpus.txt", "window": 1}, "'window' must be int >= 2"),
        ("embed-words", {"input": "corpus.txt", "dim": 0}, "'dim' must be int >= 1"),
        ("embed-amds", {"input": _SWISS, "seed": 1, "q": 0}, "'q' must be int >= 1"),
        ("denoise-nlm", {"input": _STEP, "bandwidth": 1e-200}, "2 h^2 underflows"),
        # a missing input file: the key's own rule must reject the value before any input is read
        ("generate-diffusion", {"input": "missing.csv", "seed": 1, "steps": 0}, "'steps' must be int >= 1"),
        ("generate-diffusion", {"input": "missing.csv", "seed": 1, "n_samples": 0}, "'n_samples' must be int >= 1"),
        ("denoise-nlm", {"input": "missing.csv", "patch_radius": -1}, "'patch_radius' must be int >= 0"),
        ("denoise-nlm", {"input": "missing.csv", "search_radius": -1}, "'search_radius' must be int >= 0"),
        ("fit-qkv", {"input": "missing.csv", "seed": 1, "d": 0}, "'d' must be int >= 1"),
    ],
    ids=[
        "zero-classes", "negative-classes", "more-classes-than-rows", "unknown-mode", "negative-grid-count",
        "negative-steps", "zero-attention-width", "empty-demo-sequence", "negative-meanshift-iterations",
        "negative-relax-iterations", "unknown-fallback", "dual-without-base", "multi-without-weights",
        "knn-non-numeric-reference", "knn-fractional-k", "unknown-kernel-field", "unknown-nested-kernel-field",
        "parts-not-a-list",
        "unknown-input-key", "negative-hidden-width", "negative-depth", "negative-amds-iterations",
        "negative-meanshift-tolerance", "negative-trimap-rate", "negative-qkv-rate", "zero-qkv-rate",
        "underflowing-similarity-bandwidth", "unknown-amds-method", "unknown-trimap-transform",
        "unknown-predictor", "unknown-qkv-form", "zero-lle-neighbors", "zero-lle-dimension",
        "non-callable-feature-map", "zero-trimap-dimension", "zero-trimap-steps", "negative-similarity-bandwidth",
        "one-token-window", "zero-word-dimension", "zero-amds-dimension", "underflowing-nlm-bandwidth",
        "zero-diffusion-steps", "zero-diffusion-samples", "negative-patch-radius", "negative-search-radius",
        "zero-qkv-width",
    ],
)
def test_out_of_range_config_value_exit_two(tmp_path, capsys, task, config, named):
    cfg = write_config(tmp_path, "c.json", config)
    assert named in assert_validation_exit(tmp_path, capsys, task, cfg)


def test_seed_override_on_non_object_config_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="config must be a JSON object"):
        run_task("fit-qkv", [1], str(tmp_path), seed_override=5)


def test_a_task_that_fails_after_its_csvs_writes_no_file(tmp_path, monkeypatch):
    written = []

    def failing_svg(kind, data, path):
        written.extend(os.listdir(os.path.dirname(path)))
        raise RuntimeError("figure failed")

    monkeypatch.setattr(cli, "emit_svg", failing_svg)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="figure failed"):
        run_task("cluster-meanshift", {"input": "bundled:two-blobs"}, str(out))
    assert {"results.csv", "trajectories.csv"} <= set(written)
    assert os.listdir(out) == []


def test_embed_lle_reports_its_shifted_solves(tmp_path):
    cfg = {"input": {"synthetic": {"kind": "swiss-roll", "n": 400, "seed": 3}}, "n_neighbors": 10}
    metrics = run_task("embed-lle", cfg, str(tmp_path))
    written = json.loads((tmp_path / "metrics.json").read_text())
    assert written["diagnostics"]["counters"]["eigen_solves"] == metrics["diagnostics"]["counters"]["eigen_solves"] >= 1


@pytest.mark.parametrize("mode, max_iter, converged", [("hard", 200, 1), ("soft", 2, 0)])
def test_cluster_relax_reports_its_sweeps(tmp_path, mode, max_iter, converged):
    cfg = {"input": "bundled:two-blobs", "n_classes": 2, "seed": 3, "mode": mode, "max_iter": max_iter}
    metrics = run_task("cluster-relax", cfg, str(tmp_path))
    counters = json.loads((tmp_path / "metrics.json").read_text())["diagnostics"]["counters"]
    assert counters == metrics["diagnostics"]["counters"]
    assert counters["converged"] == converged and counters["frozen_rows"] == 0
    assert 1 <= counters["sweeps"] <= max_iter
    assert counters["sweeps"] == max_iter or converged


@pytest.mark.parametrize("task", ["regress-local-linear", "regress-local-mean"])
def test_local_fits_of_a_difference_kernel_exit_two(tmp_path, capsys, task):
    kernel = {"kind": "difference", "first": {"kind": "gaussian", "h": 0.6}, "second": {"kind": "gaussian", "h": 0.3}}
    cfg = write_config(tmp_path, "c.json", {**_SINE, "kernel": kernel})
    assert "cannot average desmoothing or negative kernel weights" in assert_validation_exit(tmp_path, capsys, task, cfg)
