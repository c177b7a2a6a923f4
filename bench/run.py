"""shellprop benchmark: one workload per run, checked against oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds its inputs from ``--seed`` (see fixture.py), repeats whole
rounds of the workload until ``--seconds`` of them are measured, checks the
last round's outputs against the oracles in oracle.py, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over the rounds); with
``--trace 1`` they are the per-layer ones, from spans the benchmark records
around its own calls into each module of the package.  See README.md.
"""
from __future__ import annotations

import os

#: BLAS threads in this process and in the CLI it starts.  One thread keeps
#: timings steady on a small shared machine; set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import fixture  # noqa: E402
import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

# shellprop train's and shellprop metrics' defaults, passed explicitly as the
# CLI does.
ALPHA = 2.0
BETA = 0.5
HIDDEN = 64
DROPOUT = 0.5
LR = 1e-2
WEIGHT_DECAY = 5e-3

#: A single call timed alone is repeated at least this many times and for at
#: least this many seconds, and reported as the median.
REPEAT_MIN = 3
REPEAT_BUDGET_S = 0.5
#: Test evaluations per train round for diag_s: at least this many calls
#: and this many seconds.  A round's diag_s is their mean, which varies less
#: than their median: on a shared machine a fixed sparse product's time
#: wanders by +-20% from one second to the next.  As for every other metric,
#: the run reports the median over its rounds.
EVALUATE_MIN = 8
EVALUATE_BUDGET_S = 0.5

now = time.perf_counter


def import_shellprop():
    """Import the package from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import shellprop
    except ImportError as err:
        raise SystemExit(f"bench: cannot import shellprop from {SRC}: {err}")
    if not Path(shellprop.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: shellprop imported from {shellprop.__file__}, not {SRC}")
    return shellprop


class Tracer:
    """Durations of named spans, kept in memory.

    A disabled tracer records nothing; the end-to-end rounds run with one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.durations: dict[str, list[float]] = {}

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        start = now()
        try:
            yield
        finally:
            self.durations.setdefault(name, []).append(now() - start)

    def median(self, name: str) -> float:
        return statistics.median(self.durations[name])

    def total(self, name: str) -> float:
        return sum(self.durations[name])


OFF = Tracer(False)


@dataclass
class Round:
    """Timings of one round, the outputs its checks need, and a digest of
    the outputs that must repeat exactly from round to round."""

    times: dict
    keep: dict
    digest: object


@dataclass
class Context:
    sp: object
    seed: int
    data: Path
    arrays: dict
    out: Path
    attempted: int = 0
    failed: int = 0


def repeat(tr: Tracer, name: str, fn) -> float:
    """Median seconds of ``fn`` over REPEAT_MIN calls and REPEAT_BUDGET_S."""
    started = now()
    reps = 0
    while reps < REPEAT_MIN or (now() - started < REPEAT_BUDGET_S and reps < 200):
        with tr.span(name):
            fn()
        reps += 1
    return tr.median(name)


def csr_bytes(nnz: int, n: int) -> int:
    """float64 values and int64 indices per entry, plus n + 1 row pointers."""
    return 16 * nnz + 8 * (n + 1)


def layer_model(ctx: Context, tr: Tracer, ds, prop, params, history) -> dict:
    """Per-call cost of the model layer's public steps on one workload."""
    sp = ctx.sp
    x, y, mask = ds.features, ds.labels, ds.split.train
    out = {}
    out["model.forward_ms"] = 1e3 * repeat(tr, "model.forward", lambda: sp.forward(
        params, x, prop, train_mode=True, rng=np.random.default_rng(ctx.seed), dropout=DROPOUT))
    grads = sp.backward(params, x, prop, y, mask, rng=np.random.default_rng(ctx.seed),
                        dropout=DROPOUT, weight_decay=WEIGHT_DECAY)
    out["model.backward_ms"] = 1e3 * repeat(tr, "model.backward", lambda: sp.backward(
        params, x, prop, y, mask, rng=np.random.default_rng(ctx.seed),
        dropout=DROPOUT, weight_decay=WEIGHT_DECAY))
    state = sp.init_adam(params)
    out["model.adam_ms"] = 1e3 * repeat(
        tr, "model.adam_step", lambda: sp.adam_step(state, params, grads, LR))
    epochs = len(history.train_loss)
    out["model.epoch_ms"] = 1e3 * tr.median("model.train") / epochs
    out["model.evaluate_ms"] = 1e3 * tr.median("model.evaluate")
    out["model.epochs_run"] = epochs
    return out


def layer_shells(ctx: Context, tr: Tracer, graph, cap, dec, prop) -> dict:
    """BFS, decomposition, fusion and one propagate of width HIDDEN."""
    from shellprop.graph import distance_blocks  # not re-exported by shellprop

    out = {}
    with tr.span("graph.bfs"):
        deepest = 0
        for _, block in distance_blocks(graph, cap):
            reached = block[block != ctx.sp.UNREACHABLE]
            deepest = max(deepest, int(reached.max()))
    out["graph.bfs_s"] = tr.median("graph.bfs")
    out["graph.bfs_levels"] = deepest
    out["shells.decompose_s"] = tr.median("shells.decompose")
    out["shells.fuse_s"] = tr.median("shells.fuse")
    out["shells.stored_pairs"] = int(sum(dec.shell_sizes))
    n = graph.n
    nnz = sum(s.nnz for s in prop.normalized_shells)
    operator_bytes = sum(csr_bytes(s.nnz, n) for s in prop.normalized_shells)
    levels = len(prop.normalized_shells)
    out["shells.operator_nnz"] = nnz
    out["shells.operator_bytes_computed"] = operator_bytes
    z = np.random.default_rng(ctx.seed).standard_normal((n, HIDDEN))
    out["shells.propagate_ms"] = 1e3 * repeat(
        tr, "shells.propagate", lambda: ctx.sp.fused_propagate(prop, z))
    # a multiply and an add per stored entry and column, then scale-and-add
    # of each shell's product into the result
    out["shells.propagate_flops_computed"] = 2 * HIDDEN * (nnz + levels * n)
    # the operator once, plus reading the operand and writing a product per shell
    out["shells.propagate_bytes_computed"] = operator_bytes + levels * 2 * 8 * n * HIDDEN
    return out


def data_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


@dataclass(frozen=True)
class Train:
    """`shellprop train` at a fixed epoch count with early stopping disabled."""

    name: str
    spec: fixture.FixtureSpec
    l_cap: int | None
    epochs: int
    layers = ("data", "graph", "shells", "model")
    ops = 1
    rss_of = resource.RUSAGE_SELF
    warm_up = True

    def round(self, ctx: Context, tr: Tracer) -> Round:
        sp = ctx.sp
        t0 = now()
        config = sp.TrainConfig(
            alpha=ALPHA, l_cap=self.l_cap, hidden=HIDDEN, dropout=DROPOUT,
            lr=LR, weight_decay=WEIGHT_DECAY, epochs=self.epochs,
            patience=self.epochs + 1, seed=ctx.seed,
        )
        # split.json is present, so the CLI's protocol-split step is a no-op
        with tr.span("data.load"):
            ds = sp.load_dataset(ctx.data)
        with tr.span("shells.decompose"):
            dec = sp.shell_decompose(ds.graph, config.l_cap)
        with tr.span("shells.fuse"):
            prop = sp.fuse_shells(dec, config.alpha)
        t1 = now()
        with tr.span("model.train"):
            params, history = sp.train(ds, config, propagator=prop)
        t2 = now()
        with tr.span("model.evaluate"):
            test_acc, _ = sp.evaluate(params, ds, prop, ds.split.test)
        t3 = now()
        checkpoint = ctx.out / "checkpoint.bin"
        with tr.span("model.save_checkpoint"):
            sp.save_checkpoint(checkpoint, params)
        t4 = now()
        # One test evaluate is too short or too noisy to time alone; further
        # calls, outside the round's wall time, give diag_s its samples.
        evaluations = [t3 - t2]
        while len(evaluations) < EVALUATE_MIN or sum(evaluations) < EVALUATE_BUDGET_S:
            t5 = now()
            sp.evaluate(params, ds, prop, ds.split.test)
            evaluations.append(now() - t5)
        epochs = len(history.train_loss)
        times = {"wall": t4 - t0, "setup": t1 - t0, "rate": epochs / (t2 - t1),
                 "diag": statistics.fmean(evaluations)}
        keep = {"ds": ds, "dec": dec, "prop": prop, "params": params,
                "history": history, "test_acc": test_acc}
        digest = (test_acc, history.train_loss, hashlib.sha256(checkpoint.read_bytes()).hexdigest())
        return Round(times, keep, digest)

    def check(self, ctx: Context, last: Round) -> None:
        sp, k = ctx.sp, last.keep
        ds, dec, prop, params = k["ds"], k["dec"], k["prop"], k["params"]
        n = ds.n
        dist = oracle.distances(ctx.arrays["edges"], n)
        checks.shells(dec.shell_sizes, dec.l_max, oracle.shell_histogram(dist, self.l_cap))
        p = oracle.fused_operator(dist, ALPHA, self.l_cap)
        del dist
        z = np.random.default_rng(ctx.seed).standard_normal((n, HIDDEN))
        checks.close("fused_propagate", sp.fused_propagate(prop, z), p @ z)
        labels = ctx.arrays["labels"]
        test = np.asarray(ctx.arrays["split"]["test"])
        predictions = oracle.forward_predictions(
            params.arrays(), ctx.arrays["features"].astype(np.float64), p)
        checks.accuracy(k["test_acc"], predictions[test], labels[test], self.spec.classes)
        checks.loss_decreased(k["history"].train_loss)
        path = ctx.out / "checkpoint.bin"
        checks.checkpoint(path.read_bytes(), oracle.checkpoint_bytes(params.arrays()),
                          sp.load_checkpoint(path).arrays(), params.arrays())

    def trace(self, ctx: Context, tr: Tracer, rnd: Round) -> dict:
        k = rnd.keep
        out = {"data.load_s": tr.median("data.load"), "data.input_bytes": data_bytes(ctx.data)}
        out.update(layer_shells(ctx, tr, k["ds"].graph, self.l_cap, k["dec"], k["prop"]))
        out.update(layer_model(ctx, tr, k["ds"], k["prop"], k["params"], k["history"]))
        return out


@dataclass(frozen=True)
class Diagnostics:
    """The calls of `shellprop metrics` for sym, rw, residual and fused."""

    name: str
    spec: fixture.FixtureSpec
    kmax: int
    fused_kmax: int
    layers = ("data", "graph", "shells", "metrics")
    kinds = ("sym", "rw", "residual", "fused")
    ops = 4
    rss_of = resource.RUSAGE_SELF
    warm_up = True

    def command(self, ctx: Context, tr: Tracer, kind: str) -> dict:
        sp = ctx.sp
        t0 = now()
        with tr.span("data.load"):
            graph = sp.load_dataset(ctx.data).graph
        dec = None
        with tr.span(f"metrics.build.{kind}"):
            if kind == "sym":
                prop = sp.sym_norm_propagator(graph)
            elif kind == "rw":
                prop = sp.rw_norm_propagator(graph)
            elif kind == "residual":
                prop = sp.residual_propagator(sp.sym_norm_propagator(graph), BETA)
            else:
                with tr.span("shells.decompose"):
                    dec = sp.shell_decompose(graph, None)
                prop = sp.fused_shell_propagator(dec, ALPHA)
        t1 = now()
        kmax = self.fused_kmax if kind == "fused" else self.kmax
        with tr.span(f"metrics.trajectory.{kind}"):
            report = sp.sas_trajectory(prop, kmax)
        t2 = now()
        result = {"report": report.sas_trajectory, "setup": t1 - t0, "diag": t2 - t1,
                  "steps": len(report.sas_trajectory), "graph": graph}
        if kind == "residual":
            with tr.span(f"metrics.build.{kind}"):
                base = sp.sym_norm_propagator(graph)
            t3 = now()
            with tr.span(f"metrics.trajectory.{kind}"):
                baseline = sp.sas_trajectory(base, kmax)
            t4 = now()
            result["baseline"] = baseline.sas_trajectory
            result["setup"] += t3 - t2
            result["diag"] += t4 - t3
            result["steps"] += len(baseline.sas_trajectory)
        if dec is not None:
            result["dec"] = dec
            result["matrix"] = prop.matrix
        return result

    def round(self, ctx: Context, tr: Tracer) -> Round:
        t0 = now()
        results = {kind: self.command(ctx, tr, kind) for kind in self.kinds}
        wall = now() - t0
        setup = sum(r["setup"] for r in results.values())
        diag = sum(r["diag"] for r in results.values())
        steps = sum(r["steps"] for r in results.values())
        times = {"wall": wall, "setup": setup, "rate": steps / diag, "diag": diag}
        digest = [(r["report"], r.get("baseline")) for r in results.values()]
        return Round(times, results, digest)

    def depths(self) -> list[int]:
        return sorted({1, 2, self.kmax // 2, self.kmax})

    def check(self, ctx: Context, last: Round) -> None:
        k = last.keep
        n = k["sym"]["graph"].n
        edges = ctx.arrays["edges"]
        a = oracle.adjacency(edges, n)
        dist = oracle.distances(edges, n)
        dec = k["fused"]["dec"]
        checks.shells(dec.shell_sizes, dec.l_max, oracle.shell_histogram(dist, None))
        p = oracle.fused_operator(dist, ALPHA, None)
        del dist
        checks.close("fused_shell_propagator", k["fused"]["matrix"].to_dense(), p)
        expected = oracle.sas_at(p, range(1, self.fused_kmax + 1))
        checks.trajectory("fused", k["fused"]["report"], expected, self.fused_kmax)
        del p
        sym = oracle.sas_at(oracle.sym_operator(a), self.depths())
        checks.trajectory("sym", k["sym"]["report"], sym, self.kmax)
        checks.trajectory("residual baseline", k["residual"]["baseline"], sym, self.kmax)
        checks.trajectory("rw", k["rw"]["report"],
                          oracle.sas_at(oracle.rw_operator(a), self.depths()), self.kmax)
        checks.trajectory("residual", k["residual"]["report"],
                          oracle.sas_at(oracle.residual_operator(a, BETA), self.depths()),
                          self.kmax)
        checks.residual_above(k["residual"]["report"], k["residual"]["baseline"])
        checks.gap_shrinks(k["sym"]["report"], n)

    def trace(self, ctx: Context, tr: Tracer, rnd: Round) -> dict:
        sp, k = ctx.sp, rnd.keep
        out = {"data.load_s": tr.median("data.load"), "data.input_bytes": data_bytes(ctx.data)}
        for kind in self.kinds:
            build = tr.total(f"metrics.build.{kind}")
            trajectory = tr.total(f"metrics.trajectory.{kind}")
            out[f"metrics.build_s.{kind}"] = build
            out[f"metrics.trajectory_s.{kind}"] = trajectory
            out[f"metrics.step_ms.{kind}"] = 1e3 * trajectory / k[kind]["steps"]
        out["metrics.fused_nnz"] = k["fused"]["matrix"].nnz
        dec = k["fused"]["dec"]
        with tr.span("shells.fuse"):
            prop = sp.fuse_shells(dec, ALPHA)
        out.update(layer_shells(ctx, tr, k["sym"]["graph"], None, dec, prop))
        return out


@dataclass(frozen=True)
class Sweep:
    """`shellprop sweep` itself, run as a child process."""

    name: str
    spec: fixture.FixtureSpec
    epochs: int
    layer_caps = (1, 2, 3)
    alphas = (ALPHA, 5.0)
    # the in-process replay of one combination covers the other layers
    layers = ("cli", "data", "graph", "shells", "model")
    ops = 1
    rss_of = resource.RUSAGE_CHILDREN  # the largest of the CLI and its workers
    warm_up = False  # every round is a fresh process

    def workers(self) -> int:
        return min(len(os.sched_getaffinity(0)), len(self.layer_caps) * len(self.alphas))

    def cli(self, *args) -> float:
        env = dict(os.environ, PYTHONPATH=str(SRC), SHELLPROP_THREADS=str(self.workers()))
        t0 = now()
        proc = subprocess.run(
            [sys.executable, "-m", "shellprop.cli", *map(str, args)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        wall = now() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"shellprop {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return wall

    def round(self, ctx: Context, tr: Tracer) -> Round:
        out = ctx.out / "sweep"
        with tr.span("cli.sweep"):
            wall = self.cli(
                "sweep", "--data", ctx.data,
                "--layers", ",".join(map(str, self.layer_caps)),
                "--alphas", ",".join(f"{a:g}" for a in self.alphas),
                "--epochs", self.epochs, "--patience", self.epochs + 1,
                "--seed", ctx.seed, "--out", out,
            )
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        csv_text = (out / "sweep.csv").read_text(encoding="utf-8")
        epochs = self.epochs * len(self.layer_caps) * len(self.alphas)
        # The command times itself from its first line (manifest wall_time_s);
        # what precedes that, interpreter start-up and imports, is its set-up.
        # There is no epoch loop or diagnostic of its own to time, so the
        # rate and diag_s restate the command's time (see README.md).
        inner = manifest["wall_time_s"]
        times = {"wall": wall, "setup": wall - inner, "rate": epochs / wall, "diag": inner}
        return Round(times, {"csv": csv_text}, csv_text)

    def check(self, ctx: Context, last: Round) -> None:
        checks.sweep_rows(last.keep["csv"], self.layer_caps, self.alphas, self.spec.classes)

    def combo(self) -> Train:
        """The sweep's largest combination as an in-process train round."""
        return Train("combo", self.spec, max(self.layer_caps), self.epochs)

    def trace(self, ctx: Context, tr: Tracer, rnd: Round) -> dict:
        rows = rnd.keep["csv"].strip().splitlines()[1:]
        out = {"cli.sweep_s": tr.median("cli.sweep"), "cli.combos": len(rows)}
        combo = self.combo()
        replay = one_round(combo, ctx, tr)
        if replay is None:
            raise SystemExit("bench: sweep: the in-process combination failed")
        out["cli.combo_s"] = replay.times["wall"]
        out.update(combo.trace(ctx, tr, replay))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Train("train_full", fixture.CORA, l_cap=None, epochs=4),
        Train("train_lcap2", fixture.CORA, l_cap=2, epochs=80),
        Diagnostics("diagnostics", fixture.DIAG, kmax=100, fused_kmax=1),
        Sweep("sweep", fixture.CORA, epochs=30),
    )
}

#: Which workload measures a layer for a traced run whose own workload
#: does not reach it.
LAYER_OWNERS = {"model": "train_lcap2", "metrics": "diagnostics", "cli": "sweep"}


#: Per-layer metrics of a traced run: name, unit, better.
PER_LAYER = [
    ("data.load_s", "s", "lower"),
    ("data.input_bytes", "B", "lower"),
    ("graph.bfs_s", "s", "lower"),
    ("graph.bfs_levels", "count", "lower"),
    ("shells.decompose_s", "s", "lower"),
    ("shells.fuse_s", "s", "lower"),
    ("shells.stored_pairs", "count", "lower"),
    ("shells.operator_nnz", "count", "lower"),
    ("shells.operator_bytes_computed", "B", "lower"),
    ("shells.propagate_ms", "ms", "lower"),
    ("shells.propagate_flops_computed", "flop", "lower"),
    ("shells.propagate_bytes_computed", "B", "lower"),
    ("model.forward_ms", "ms", "lower"),
    ("model.backward_ms", "ms", "lower"),
    ("model.adam_ms", "ms", "lower"),
    ("model.epoch_ms", "ms", "lower"),
    ("model.evaluate_ms", "ms", "lower"),
    ("model.epochs_run", "count", "higher"),
    *[(f"metrics.{m}.{k}", u, "lower")
      for m, u in (("build_s", "s"), ("trajectory_s", "s"), ("step_ms", "ms"))
      for k in Diagnostics.kinds],
    ("metrics.fused_nnz", "count", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.combo_s", "s", "lower"),
    ("cli.combos", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("epochs_per_s", "1/s", "higher"),
    ("diag_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def context(sp, workload, seed: int, contexts: list) -> Context:
    """A scratch directory for one workload's run, holding its fixture; it is
    removed when the run ends."""
    out = CACHE / f"out-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    contexts.append(out)
    data = out / "data"
    arrays = fixture.materialize(data, workload.spec, seed)
    return Context(sp, seed, data, arrays, out)


def one_round(workload, ctx: Context, tr: Tracer) -> Round | None:
    """Run one whole round; a round that raises counts all its operations failed."""
    ctx.attempted += workload.ops
    try:
        return workload.round(ctx, tr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ctx.failed += workload.ops
        return None


def run_rounds(workload, ctx: Context, seconds: float):
    """Untraced rounds: one cold round, then rounds until their wall times sum
    to ``seconds``.

    The peak RSS is read right after the cold round, so it is the peak of one
    invocation in a fresh process, as a `shellprop` command would see it.  An
    in-process workload (``warm_up``) leaves the cold round out of its
    timings: later rounds reuse the heap it grew, and mixing the two widens
    the spread.  Returns (timed rounds, all completed rounds, last round kept
    whole, peak RSS in MB).
    """
    completed: list[Round] = []

    def record(rnd):
        if rnd is not None:
            print(f"bench: {workload.name} round {len(completed) + 1}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in rnd.times.items()), file=sys.stderr)
            completed.append(Round(rnd.times, {}, rnd.digest))

    last = one_round(workload, ctx, OFF)
    rss = resource.getrusage(workload.rss_of).ru_maxrss / 1024.0
    record(last)
    skip = len(completed) if workload.warm_up else 0
    started = now()
    while len(completed) <= skip or measured(completed[skip:]) < seconds:
        last = None  # free the previous round before the next one allocates
        last = one_round(workload, ctx, OFF)
        record(last)
        if last is None and now() - started >= seconds:
            break
    return completed[skip:], completed, last, rss


def measured(rounds: list[Round]) -> float:
    return sum(r.times["wall"] for r in rounds)


def verify(workload, ctx: Context, last: Round | None, rounds: list[Round]) -> bool:
    if last is None:
        print("bench: no round completed, nothing to check", file=sys.stderr)
        return False
    try:
        for r in rounds[1:]:
            checks.same("round outputs", rounds[0].digest, r.digest)
        workload.check(ctx, last)
    except checks.CheckFailed as err:
        print(f"bench: {workload.name}: check failed: {err}", file=sys.stderr)
        return False
    return True


def timed(sp, workload, seed: int, seconds: float, contexts: list) -> tuple[dict, bool, Context]:
    ctx = context(sp, workload, seed, contexts)
    rounds, completed, last, rss = run_rounds(workload, ctx, seconds)
    if not rounds:
        raise SystemExit(f"bench: {workload.name}: every round failed")

    def med(key):
        return statistics.median(r.times[key] for r in rounds)

    values = {"wall_s": med("wall"), "setup_s": med("setup"), "epochs_per_s": med("rate"),
              "diag_s": med("diag"), "peak_rss_mb": rss}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, verify(workload, ctx, last, completed), ctx


def traced(sp, workload, seed: int, contexts: list,
           workloads: dict | None = None) -> tuple[dict, bool, Context]:
    """Per-layer metrics.  After the cold round, the workload runs once traced
    and once untraced; the difference in wall time is the tracing overhead.
    Each layer the workload does not reach is then traced on the workload
    that owns it (LAYER_OWNERS)."""
    ctx = context(sp, workload, seed, contexts)
    tr = Tracer(True)
    cold = one_round(workload, ctx, OFF)
    rnd = one_round(workload, ctx, tr)
    untraced = one_round(workload, ctx, OFF)
    if None in (cold, rnd, untraced):
        raise SystemExit(f"bench: {workload.name}: a traced-run round failed")
    values = workload.trace(ctx, tr, rnd)
    values["trace.overhead_s"] = rnd.times["wall"] - untraced.times["wall"]
    values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / untraced.times["wall"]
    correct = verify(workload, ctx, rnd, [cold, rnd, untraced])

    for group, owner_name in LAYER_OWNERS.items():
        if group in workload.layers:
            continue
        owner = (workloads or WORKLOADS)[owner_name]
        octx = context(sp, owner, seed, contexts)
        otr = Tracer(True)
        ornd = one_round(owner, octx, otr)
        if ornd is None:
            raise SystemExit(f"bench: {owner.name}: traced round failed")
        for key, value in owner.trace(octx, otr, ornd).items():
            if key.split(".")[0] == group:
                values.setdefault(key, value)
        ctx.attempted += octx.attempted
        ctx.failed += octx.failed

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return metrics, correct, ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sp = import_shellprop()
    CACHE.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    contexts: list[Path] = []
    try:
        if args.trace:
            metrics, correct, ctx = traced(sp, workload, args.seed, contexts)
        else:
            metrics, correct, ctx = timed(sp, workload, args.seed, args.seconds, contexts)
    finally:
        for out in contexts:
            shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
