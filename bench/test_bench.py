"""Self-test of the benchmark: every workload at a tiny size, and every check
fed a deliberately wrong output.

    python3 -m pytest bench/test_bench.py -q

Kept out of the package's test paths; it runs in about a minute.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import fixture
import oracle
import run

SEED = 3
TINY = fixture.FixtureSpec("tiny", n=160, edges=300, classes=4, features=24,
                           topic_width=5, train_per_class=5, val=40, test=60)
TINY_WORKLOADS = {
    w.name: w
    for w in (
        run.Train("train_full", TINY, l_cap=None, epochs=30),
        run.Train("train_lcap2", TINY, l_cap=2, epochs=30),
        run.Diagnostics("diagnostics", TINY, kmax=20, fused_kmax=3),
        run.Sweep("sweep", TINY, epochs=20),
    )
}


@pytest.fixture(scope="module")
def sp():
    return run.import_shellprop()


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path)
    return tmp_path


def tiny_round(sp, name):
    workload = TINY_WORKLOADS[name]
    ctx = run.context(sp, workload, SEED, [])
    rnd = run.one_round(workload, ctx, run.OFF)
    assert rnd is not None
    return workload, ctx, rnd


def fails(workload, ctx, rnd, match):
    with pytest.raises(checks.CheckFailed, match=match):
        workload.check(ctx, rnd)


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_timed_run_is_correct(sp, cache, name):
    metrics, correct, ctx = run.timed(sp, TINY_WORKLOADS[name], SEED, 0.0, [])
    assert correct
    assert ctx.attempted >= 1 and ctx.failed == 0
    assert [m for m, _, _ in run.END_TO_END] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_traced_run_reports_every_layer(sp, cache, name):
    metrics, correct, ctx = run.traced(sp, TINY_WORKLOADS[name], SEED, [], TINY_WORKLOADS)
    assert correct and ctx.failed == 0
    assert [m for m, _, _ in run.PER_LAYER] == list(metrics)


def test_fixture_is_seeded_and_connected():
    a, b, c = (fixture.generate(fixture.CORA, s) for s in (1, 1, 2))
    assert np.array_equal(a["edges"], b["edges"]) and a["split"] == b["split"]
    assert not np.array_equal(a["edges"], c["edges"])
    dist = oracle.distances(a["edges"], fixture.CORA.n)
    assert (dist >= 0).all()
    assert sum(oracle.shell_histogram(dist, None)) == fixture.CORA.n * (fixture.CORA.n - 1)
    assert list(np.bincount(a["labels"])) == list(fixture.class_sizes(fixture.CORA))


def test_train_checks_reject_wrong_outputs(sp, cache):
    workload, ctx, rnd = tiny_round(sp, "train_full")
    workload.check(ctx, rnd)
    keep = rnd.keep

    def broken(**changes):
        return dataclasses.replace(rnd, keep={**keep, **changes})

    dec = keep["dec"]
    dropped = dataclasses.replace(dec, shells=dec.shells[:-1], l_max=dec.l_max - 1,
                                  shell_sizes=dec.shell_sizes[:-1])
    fails(workload, ctx, broken(dec=dropped), "shell sizes")

    prop = keep["prop"]
    theta = np.array(prop.coefficients)
    theta[0] *= 1 + 1e-6
    perturbed = sp.FusedPropagator(prop.n, prop.normalized_shells, theta, prop.alpha)
    fails(workload, ctx, broken(prop=perturbed), "fused_propagate")

    fails(workload, ctx, broken(test_acc=keep["test_acc"] + 1 / TINY.test), "accuracy")

    history = keep["history"]
    rising = dataclasses.replace(history, train_loss=history.train_loss[::-1])
    fails(workload, ctx, broken(history=rising), "loss")

    path = ctx.out / "checkpoint.bin"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    fails(workload, ctx, rnd, "checkpoint")


def test_capped_operator_matches_oracle_and_rejects_a_dropped_shell(sp, cache):
    workload, ctx, rnd = tiny_round(sp, "train_lcap2")
    workload.check(ctx, rnd)
    dec = rnd.keep["dec"]
    assert dec.l_max == 2
    dropped = dataclasses.replace(dec, shells=dec.shells[:1], l_max=1, shell_sizes=dec.shell_sizes[:1])
    fails(workload, ctx, dataclasses.replace(rnd, keep={**rnd.keep, "dec": dropped}), "shell sizes")


def test_diagnostics_checks_reject_wrong_outputs(sp, cache):
    workload, ctx, rnd = tiny_round(sp, "diagnostics")
    workload.check(ctx, rnd)

    def with_kind(kind, **changes):
        keep = {**rnd.keep, kind: {**rnd.keep[kind], **changes}}
        return dataclasses.replace(rnd, keep=keep)

    def shifted(points, depth, delta):
        return [(k, v + delta if k == depth else v) for k, v in points]

    sym = rnd.keep["sym"]["report"]
    fails(workload, ctx, with_kind("sym", report=shifted(sym, workload.kmax, 1e-6)), "sym")
    fails(workload, ctx, with_kind("rw", report=shifted(rnd.keep["rw"]["report"], 2, -1e-6)), "rw")
    fused = rnd.keep["fused"]["report"]
    fails(workload, ctx, with_kind("fused", report=shifted(fused, 1, 1e-6)), "fused")
    fails(workload, ctx, with_kind("sym", report=sym[:-1]), "depths")

    m = rnd.keep["fused"]["matrix"]
    scaled = dataclasses.replace(m, values=m.values * (1 + 1e-6))
    fails(workload, ctx, with_kind("fused", matrix=scaled), "fused_shell_propagator")

    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.residual_above(sym, rnd.keep["residual"]["report"])
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.gap_shrinks(sym[::-1], TINY.n)


def test_sweep_check_rejects_wrong_rows(sp, cache):
    workload, ctx, rnd = tiny_round(sp, "sweep")
    workload.check(ctx, rnd)
    lines = rnd.keep["csv"].strip().splitlines()

    def with_csv(rows):
        return dataclasses.replace(rnd, keep={"csv": "\n".join(rows) + "\n"})

    fails(workload, ctx, with_csv(lines[:-1]), "combinations")
    fails(workload, ctx, with_csv(lines + [lines[-1]]), "combinations")
    chance = lines[:-1] + [",".join(lines[-1].split(",")[:2] + ["0.25"])]
    fails(workload, ctx, with_csv(chance), "below")


def test_repeated_rounds_must_agree():
    checks.same("digest", (0.5, [1.0]), (0.5, [1.0]))
    with pytest.raises(checks.CheckFailed):
        checks.same("digest", (0.5, [1.0]), (0.5, [1.0 + 1e-12]))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "cannot import shellprop" in proc.stderr
