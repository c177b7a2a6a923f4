import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from shellprop import (
    adjacency_matrix,
    component_count,
    residual_propagator,
    sas_trajectory,
    sym_norm_propagator,
    synth_planted_partition,
    write_dataset,
)
from shellprop.cli import main

from helpers import bag_of_words, fake_address_space_limit, fake_physical_memory


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def toy_dataset(tmp_path):
    ds = synth_planted_partition(10, 2, 0.8, 0.05, seed=1)
    path = tmp_path / "toy"
    write_dataset(path, ds)
    return path


@pytest.fixture()
def sparse_dataset(tmp_path):
    """A dataset whose bag-of-words features load into a CSR carrier."""
    path = tmp_path / "sparse"
    write_dataset(path, bag_of_words(1, n_per_class=12, labels_per_class=3))
    return path


@pytest.fixture()
def p3_edges(tmp_path):
    path = tmp_path / "p3.tsv"
    path.write_text("# path on three nodes\n0\t1\n1\t2\n")
    return path


def run(runner, args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestShellsCommand:
    def test_path_fixture_report(self, runner, p3_edges, tmp_path):
        out = tmp_path / "out"
        result = run(runner, ["shells", "--data", p3_edges, "--out", out])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["l_max"] == 2
        assert report["avg_degree_per_layer"] == pytest.approx([4 / 3, 2 / 3])
        assert json.loads((out / "shells.json").read_text()) == report
        assert (out / "manifest.json").is_file()

    def test_lcap_truncates(self, runner, p3_edges, tmp_path):
        result = run(runner, ["shells", "--data", p3_edges, "--lcap", 1, "--out", tmp_path / "o"])
        report = json.loads(result.output)
        assert report["l_max"] == 1
        assert len(report["shell_sizes"]) == 1
        assert report["diameter"] == 2

    def test_node_id_beyond_memory_exits_4(self, runner, tmp_path):
        # n = 10**11 nodes need about 1.6 TB of row pointers and degrees
        edges = tmp_path / "big.tsv"
        edges.write_text("0\t99999999999\n")
        result = run(runner, ["shells", "--data", edges, "--out", tmp_path / "o"])
        assert result.exit_code == 4
        assert "about 1600000000016 bytes, but physical memory is" in result.output
        assert "Traceback" not in result.output


    def test_bfs_working_set_beyond_memory_exits_4(self, runner, tmp_path, monkeypatch):
        # the 1000-node graph's 16016 bytes fit, its 480064-byte BFS block does not
        fake_physical_memory(monkeypatch, 50 * 4096)
        edges = tmp_path / "mid.tsv"
        edges.write_text("0\t999\n")
        result = run(runner, ["shells", "--data", edges, "--out", tmp_path / "o"])
        assert result.exit_code == 4
        assert "about 480064 bytes, but physical memory is 204800 bytes" in result.output
        assert "Traceback" not in result.output

    def test_bfs_block_beyond_address_space_limit_exits_4(self, runner, tmp_path, monkeypatch):
        # as under `ulimit -v 200`: the limit, not physical memory, refuses the block
        fake_address_space_limit(monkeypatch, 50 * 4096)
        edges = tmp_path / "mid.tsv"
        edges.write_text("0\t999\n")
        result = run(runner, ["shells", "--data", edges, "--out", tmp_path / "o"])
        assert result.exit_code == 4
        assert "about 480064 bytes, but the address-space limit is 204800 bytes" in result.output

    def test_failed_allocation_exits_4_without_traceback(
        self, runner, p3_edges, tmp_path, monkeypatch
    ):
        def exhausted(*args):
            return np.empty((2**31, 2**31), dtype=np.uint8)  # 4 EiB: refused at once

        monkeypatch.setattr("shellprop.cli.shell_report", exhausted)
        result = run(runner, ["shells", "--data", p3_edges, "--out", tmp_path / "o"])
        assert result.exit_code == 4
        assert "error: out of memory: Unable to allocate 4.00 EiB" in result.stderr
        assert "Traceback" not in result.stderr


class TestMetricsCommand:
    def test_sym_trajectory_converges(self, runner, tmp_path):
        ds = synth_planted_partition(10, 2, 0.9, 0.2, seed=0)
        data = tmp_path / "g"
        write_dataset(data, ds)
        out = tmp_path / "out"
        result = run(
            runner,
            ["metrics", "--data", data, "--propagator", "sym", "--kmax", 500, "--out", out],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["report"]["limit_gap"] < 1e-6
        assert (out / "metrics.json").is_file()

    def test_residual_reports_baseline_too(self, runner, p3_edges, tmp_path):
        result = run(
            runner,
            [
                "metrics", "--data", p3_edges, "--propagator", "residual",
                "--beta", 0.5, "--kmax", 10, "--out", tmp_path / "o",
            ],
        )
        payload = json.loads(result.output)
        assert "report" in payload and "baseline_report" in payload
        assert len(payload["report"]["sas_trajectory"]) == 10
        boosted = dict(map(tuple, payload["report"]["sas_trajectory"]))
        plain = dict(map(tuple, payload["baseline_report"]["sas_trajectory"]))
        assert all(boosted[k] > plain[k] for k in boosted)

    def test_residual_and_baseline_from_one_decomposition(self, runner, monkeypatch, tmp_path):
        import scipy.linalg

        g = synth_planted_partition(40, 2, 0.5, 0.1, seed=3).graph
        assert component_count(g) == 1
        edges = tmp_path / "g.tsv"
        edges.write_text("".join(f"{u}\t{v}\n" for u, v in zip(*np.nonzero(adjacency_matrix(g).toarray()))))
        calls = []
        real = scipy.linalg.eigh
        monkeypatch.setattr("scipy.linalg.eigh", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        result = run(
            runner,
            ["metrics", "--data", edges, "--propagator", "residual",
             "--beta", 0.3, "--kmax", 20, "--out", tmp_path / "o"],
        )
        payload = json.loads(result.output)
        assert len(calls) == 1
        sym = sym_norm_propagator(g)
        for key, prop in [("report", residual_propagator(sym, 0.3)), ("baseline_report", sym)]:
            want = sas_trajectory(prop, 20).sas_trajectory
            got = payload[key]["sas_trajectory"]
            assert [k for k, _ in got] == list(range(1, 21))
            assert max(abs(x - y) for (_, x), (_, y) in zip(got, want)) <= 1e-10

    def test_invalid_beta_exits_2(self, runner, p3_edges, tmp_path):
        result = runner.invoke(
            main,
            ["metrics", "--data", str(p3_edges), "--propagator", "residual",
             "--beta", "1.5", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2

    def test_csv_trajectory(self, runner, p3_edges, tmp_path):
        out = tmp_path / "out"
        run(runner, ["metrics", "--data", p3_edges, "--kmax", 5, "--csv", "--out", out])
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "k,sas"
        assert len(lines) == 6

    def test_fused_propagator_kind(self, runner, p3_edges, tmp_path):
        result = run(
            runner,
            ["metrics", "--data", p3_edges, "--propagator", "fused",
             "--alpha", 2, "--kmax", 5, "--out", tmp_path / "o"],
        )
        payload = json.loads(result.output)
        assert payload["alpha"] == 2.0
        first = payload["report"]["sas_trajectory"][0][1]
        assert 1 / 3 <= first <= 1.0

    def test_sym_beyond_2000_nodes(self, runner, tmp_path):
        edges = tmp_path / "path.tsv"
        edges.write_text("".join(f"{i}\t{i + 1}\n" for i in range(2099)))
        result = run(
            runner,
            ["metrics", "--data", edges, "--propagator", "sym", "--kmax", 2, "--out", tmp_path / "o"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["n"] == 2100
        assert len(payload["report"]["sas_trajectory"]) == 2

    def test_edgeless_fused_operator_exits_4(self, runner, tmp_path):
        data = tmp_path / "edgeless"
        data.mkdir()
        (data / "features.tsv").write_text("1.0\n2.0\n3.0\n")
        (data / "labels.tsv").write_text("0\n1\n0\n")
        (data / "edges.tsv").write_text("")
        result = runner.invoke(
            main,
            ["metrics", "--data", str(data), "--propagator", "fused", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 4
        assert "sums to zero" in result.output


class TestTrainCommand:
    def test_writes_artifacts(self, runner, toy_dataset, tmp_path):
        out = tmp_path / "run"
        result = run(
            runner,
            ["train", "--data", toy_dataset, "--alpha", 2, "--epochs", 80,
             "--patience", 80, "--seed", 1, "--out", out],
        )
        assert result.exit_code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"macro_f1", "test_acc"}
        assert (out / "checkpoint.bin").is_file()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_acc"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["output_digest"]) == {
            "checkpoint.bin", "history.csv", "metrics.json",
        }

    def test_alpha_one_exits_2(self, runner, toy_dataset, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--data", str(toy_dataset), "--alpha", "1", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "alpha" in result.output

    def test_missing_dataset_dir_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "nope" in result.output

    def test_corrupt_dataset_exits_3(self, runner, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "features.tsv").write_text("1.0\t2.0\n1.0\n")
        (d / "labels.tsv").write_text("0\n0\n")
        (d / "edges.tsv").write_text("0\t1\n")
        result = runner.invoke(
            main, ["train", "--data", str(d), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3

    def test_label_beyond_node_count_exits_3(self, runner, toy_dataset, tmp_path):
        labels = toy_dataset / "labels.tsv"
        labels.write_text("999999999999\n" + labels.read_text().split("\n", 1)[1])
        result = run(runner, ["train", "--data", toy_dataset, "--out", tmp_path / "o"])
        assert result.exit_code == 3
        assert "labels.tsv: line 1: label out of range" in result.output
        assert "Traceback" not in result.output

    def test_byte_identical_reruns(self, runner, toy_dataset, sparse_dataset, tmp_path):
        for data in (toy_dataset, sparse_dataset):
            args = ["train", "--data", data, "--alpha", 2, "--epochs", 60,
                    "--patience", 60, "--seed", 7]
            a, b = tmp_path / data.name / "a", tmp_path / data.name / "b"
            assert run(runner, args + ["--out", a]).exit_code == 0
            assert run(runner, args + ["--out", b]).exit_code == 0
            for name in ("metrics.json", "checkpoint.bin", "history.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_from_manifest(self, runner, toy_dataset, tmp_path):
        out = tmp_path / "a"
        run(runner, ["train", "--data", toy_dataset, "--epochs", 40,
                     "--patience", 40, "--seed", 2, "--out", out])
        first = (out / "metrics.json").read_bytes()
        checkpoint = (out / "checkpoint.bin").read_bytes()
        result = run(runner, ["rerun", out / "manifest.json"])
        assert result.exit_code == 0
        assert (out / "metrics.json").read_bytes() == first
        assert (out / "checkpoint.bin").read_bytes() == checkpoint

    def test_rerun_of_non_json_manifest_exits_3(self, runner, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text("not json")
        result = runner.invoke(main, ["rerun", str(manifest)])
        assert result.exit_code == 3
        assert "bad.json" in result.output

    def test_rerun_of_a_rerun_manifest_exits_3(self, runner, tmp_path):
        manifest = tmp_path / "loop.json"
        manifest.write_text(json.dumps({"argv": ["rerun", str(manifest)]}))
        result = runner.invoke(main, ["rerun", str(manifest)])
        assert result.exit_code == 3
        assert "loop.json" in result.output and "rerun" in result.output
        assert isinstance(result.exception, SystemExit)


class TestSweepCommand:
    def test_cross_product_rows(self, runner, toy_dataset, tmp_path):
        out = tmp_path / "sw"
        result = run(
            runner,
            ["sweep", "--data", toy_dataset, "--layers", "1,2", "--alphas", "2,5",
             "--epochs", 30, "--patience", 30, "--out", out],
        )
        assert result.exit_code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "layers,alpha,accuracy"
        assert len(lines) == 5
        combos = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert combos == [("1", "2.0"), ("1", "5.0"), ("2", "2.0"), ("2", "5.0")]

    def test_duplicate_combinations_deduplicated(self, runner, toy_dataset, tmp_path):
        out = tmp_path / "sw"
        run(
            runner,
            ["sweep", "--data", toy_dataset, "--layers", "2,2", "--alphas", "2,2.0",
             "--epochs", 20, "--patience", 20, "--out", out],
        )
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_bad_list_exits_2(self, runner, toy_dataset, tmp_path):
        result = runner.invoke(
            main,
            ["sweep", "--data", str(toy_dataset), "--layers", "x", "--alphas", "2",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2

    def test_non_integer_threads_exits_2(self, runner, toy_dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("SHELLPROP_THREADS", "x")
        result = runner.invoke(
            main,
            ["sweep", "--data", str(toy_dataset), "--layers", "1", "--alphas", "2",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "SHELLPROP_THREADS" in result.output

    def test_parallel_workers_match_serial(self, runner, toy_dataset, tmp_path, monkeypatch):
        args = ["sweep", "--data", toy_dataset, "--layers", "1,2", "--alphas", "2",
                "--epochs", 20, "--patience", 20]
        run(runner, args + ["--out", tmp_path / "serial"])
        monkeypatch.setenv("SHELLPROP_THREADS", "2")
        run(runner, args + ["--out", tmp_path / "parallel"])
        assert (tmp_path / "serial" / "sweep.csv").read_bytes() == (
            tmp_path / "parallel" / "sweep.csv"
        ).read_bytes()

    def test_loads_once_and_decomposes_once_per_cap(self, runner, toy_dataset, tmp_path, monkeypatch):
        import shellprop.cli as cli

        loads, caps = [], []
        real_load, real_decompose = cli.load_dataset, cli.shell_decompose
        monkeypatch.setattr(cli, "load_dataset", lambda path: loads.append(path) or real_load(path))
        monkeypatch.setattr(
            cli, "shell_decompose", lambda g, cap: caps.append(cap) or real_decompose(g, cap)
        )
        monkeypatch.setenv("SHELLPROP_THREADS", "1")
        result = run(
            runner,
            ["sweep", "--data", toy_dataset, "--layers", "2,1,2", "--alphas", "2,5",
             "--epochs", 5, "--patience", 5, "--out", tmp_path / "sw"],
        )
        assert result.exit_code == 0
        assert len((tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()) == 5
        assert loads == [toy_dataset] and caps == [1, 2]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_malformed_edges_exit_3_naming_the_file(self, runner, toy_dataset, tmp_path, monkeypatch, threads):
        (toy_dataset / "edges.tsv").write_text("0\t1\n1\tx\n")
        monkeypatch.setenv("SHELLPROP_THREADS", threads)
        result = runner.invoke(
            main,
            ["sweep", "--data", str(toy_dataset), "--layers", "1,2", "--alphas", "2",
             "--epochs", 5, "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3
        assert "edges.tsv" in result.output
        assert "Traceback" not in result.output


class TestManifests:
    def test_every_command_writes_manifest(self, runner, toy_dataset, p3_edges, tmp_path):
        invocations = [
            ["shells", "--data", p3_edges, "--out", tmp_path / "m1"],
            ["metrics", "--data", p3_edges, "--kmax", 5, "--out", tmp_path / "m2"],
            ["train", "--data", toy_dataset, "--epochs", 10, "--patience", 10,
             "--out", tmp_path / "m3"],
            ["sweep", "--data", toy_dataset, "--layers", "1", "--alphas", "2",
             "--epochs", 10, "--patience", 10, "--out", tmp_path / "m4"],
        ]
        for args in invocations:
            assert run(runner, args).exit_code == 0
            manifest = json.loads((args[-1] / "manifest.json").read_text())
            assert manifest["command"] == args[0]
            assert manifest["version"].startswith("shellprop-")
            assert manifest["argv"][0] == args[0]
            assert manifest["output_digest"]

    def test_blas_thread_settings_recorded(self, runner, p3_edges, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert run(runner, ["shells", "--data", p3_edges, "--out", out]).exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None
        }
        assert "3" not in manifest["argv"]

    @pytest.mark.parametrize(
        "args",
        [
            ["shells", "--lcap", 1],
            ["metrics", "--propagator", "residual", "--kmax", 5, "--csv"],
            ["train", "--lcap", 2, "--epochs", 10, "--patience", 10],
            ["sweep", "--layers", "1,2", "--alphas", 2, "--epochs", 10, "--patience", 10],
        ],
    )
    def test_rerun_replays_every_command(self, runner, toy_dataset, tmp_path, args):
        out = tmp_path / "out"
        assert run(runner, [args[0], "--data", toy_dataset, *args[1:], "--out", out]).exit_code == 0
        first = json.loads((out / "manifest.json").read_text())
        assert run(runner, ["rerun", out / "manifest.json"]).exit_code == 0
        again = json.loads((out / "manifest.json").read_text())
        assert again["argv"] == first["argv"]
        assert again["output_digest"] == first["output_digest"]


class TestOptionRanges:
    @pytest.mark.parametrize(
        "args, flag",
        [
            (["shells", "--lcap", "0"], "--lcap"),
            (["metrics", "--lcap", "0"], "--lcap"),
            (["metrics", "--kmax", "0"], "--kmax"),
            (["train", "--lcap", "0"], "--lcap"),
        ],
    )
    def test_out_of_range_value_exits_2(self, runner, toy_dataset, tmp_path, args, flag):
        result = runner.invoke(
            main, [args[0], "--data", str(toy_dataset), *args[1:], "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output


    @pytest.mark.parametrize(
        "args, field",
        [
            (["train", "--lr", "nan"], "lr"),
            (["train", "--lr", "inf"], "lr"),
            (["train", "--weight-decay", "nan"], "weight_decay"),
            (["train", "--weight-decay", "inf"], "weight_decay"),
            (["sweep", "--layers", "1", "--alphas", "2", "--lr", "nan"], "lr"),
            (["sweep", "--layers", "1", "--alphas", "2", "--weight-decay", "inf"], "weight_decay"),
        ],
    )
    def test_non_finite_rate_exits_2(self, runner, toy_dataset, tmp_path, args, field):
        result = runner.invoke(
            main, [args[0], "--data", str(toy_dataset), *args[1:], "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert f"error: {field} must be finite" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "o").exists()


def test_cli_start_up_leaves_csgraph_unimported():
    # csgraph costs about 75 ms and 11 MB at import and scipy.linalg 80-155 ms;
    # only the diagnostics use them, so every other command starts without them
    code = (
        "import sys, shellprop.cli;"
        " print([m in sys.modules for m in ('scipy.sparse.csgraph', 'scipy.linalg')])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "[False, False]"
