"""Command-line entry point for reproducible shell-propagation experiments.

Every command resolves its configuration, runs, writes its artifacts into
``--out``, and finishes with a ``manifest.json`` recording the resolved
argv, seed, version, wall time, BLAS thread settings, and a digest of every
output file.
Re-running the recorded argv (or ``shellprop rerun manifest.json``)
reproduces the outputs byte for byte; the manifest itself is excluded from
the digest because it records wall time.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 numeric or
resource failure.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import click

from . import __version__
from .data import Dataset, load_dataset, load_graph, make_split
from .errors import ConfigError, InputError, ShellPropError
from .graph import SparseGraph, build_graph, read_edge_list
from .metrics import (
    MetricReport,
    _residual_trajectories,
    fused_shell_propagator,
    rw_norm_propagator,
    sas_trajectory,
    sym_norm_propagator,
)
from .model import TrainConfig, evaluate, save_checkpoint, train
from .shells import ShellDecomposition, fuse_shells, shell_decompose, shell_report

_KIND_FLAGS = ("sym", "rw", "residual", "fused")
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _exit_code(err: ShellPropError) -> int:
    if isinstance(err, ConfigError):
        return 2
    if isinstance(err, InputError):
        return 3
    return 4


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ShellPropError as err:
            click.echo(f"error: {err}", err=True)
            raise SystemExit(_exit_code(err))
        except MemoryError as err:
            # an allocation that no byte check foresaw, such as numpy's
            # "Unable to allocate" under an address-space or cgroup limit
            click.echo(f"error: out of memory: {err}", err=True)
            raise SystemExit(4)

    return wrapper


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, payload) -> Path:
    path.write_text(_dumps(payload), encoding="utf-8")
    return path


def _write_manifest(out: Path, started: float, outputs: list[Path]) -> Path:
    """Record the current command's resolved click parameters and digests.

    ``argv`` lists every declared option with its resolved value, defaults
    included, so replaying it reproduces the run whatever the defaults become.
    """
    ctx = click.get_current_context()
    argv = [ctx.info_name]
    for param in ctx.command.params:
        value = ctx.params[param.name]
        if value is None or value is False:
            continue
        argv.append(param.opts[0])
        if value is not True:
            argv.append(repr(value) if isinstance(value, float) else str(value))
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
    }
    manifest = {
        "command": ctx.info_name,
        "argv": argv,
        "config": {k: v for k, v in ctx.params.items() if k not in ("data", "out")},
        "seed": ctx.params.get("seed"),
        "data": str(ctx.params["data"]),
        "version": f"shellprop-{__version__}",
        "wall_time_s": time.perf_counter() - started,
        # BLAS may order a dense product's sums by its thread count
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "output_digest": digests,
    }
    return _write_json(out / "manifest.json", manifest)


def _load_graph(data_path: Path) -> SparseGraph:
    """A dataset directory or a bare edge-list file both yield a graph."""
    if data_path.is_dir():
        return load_graph(data_path)
    edges = read_edge_list(data_path)
    if not edges:
        raise InputError(f"{data_path}: no edges found")
    n = max(max(u, v) for u, v in edges) + 1
    return build_graph(edges, n)


def _split_dataset(data: Path, split_seed: int) -> Dataset:
    """The dataset in ``data``; one without ``split.json`` is split from
    ``split_seed``."""
    dataset = load_dataset(data)
    if dataset.split is None:
        split = make_split(dataset.labels, per_class=20, val=500, test=1000, seed=split_seed)
        dataset = replace(dataset, split=split)
    return dataset


def _fit(dataset: Dataset, decomposition: ShellDecomposition, config: TrainConfig):
    """Fuse, train and test one configuration on its cap's decomposition.

    Returns the trained parameters, the history, and the test accuracy and
    macro-F1.
    """
    propagator = fuse_shells(decomposition, config.alpha)
    params, history = train(dataset, config, propagator=propagator)
    test_acc, macro_f1 = evaluate(params, dataset, propagator, dataset.split.test)
    return params, history, test_acc, macro_f1


def _report_payload(report: MetricReport) -> dict:
    return {
        "avg_nat": report.avg_nat,
        "limit_gap": report.limit_gap,
        "sas_trajectory": [[k, v] for k, v in report.sas_trajectory],
    }


_lcap_option = click.option(
    "--lcap", "l_cap", type=click.IntRange(min=1), default=None,
    help="Largest shell distance kept (default: the diameter).",
)


def _training_options(fn):
    """The options `train` and `sweep` share, with TrainConfig's defaults."""
    for f in reversed(fields(TrainConfig)):
        if f.name not in ("alpha", "l_cap"):
            flag = "--" + f.name.replace("_", "-")
            fn = click.option(flag, type=type(f.default), default=f.default, show_default=True)(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="shellprop")
def main() -> None:
    """Distance-shell graph propagation experiments."""


@main.command("train")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--alpha", type=float, default=2.0, show_default=True)
@_lcap_option
@_training_options
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/train"), show_default=True)
@_guarded
def cmd_train(data, out, **options):
    """Train the classifier; writes checkpoint, history CSV, and metrics JSON."""
    started = time.perf_counter()
    config = TrainConfig(**options)
    dataset = _split_dataset(data, config.seed)
    params, history, test_acc, macro_f1 = _fit(dataset, shell_decompose(dataset.graph, config.l_cap), config)

    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "checkpoint.bin"
    save_checkpoint(checkpoint, params)
    history_path = out / "history.csv"
    lines = ["epoch,train_loss,val_acc"]
    lines += [
        f"{e},{repr(tl)},{repr(va)}"
        for e, (tl, va) in enumerate(zip(history.train_loss, history.val_accuracy))
    ]
    history_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    metrics_path = _write_json(
        out / "metrics.json", {"macro_f1": macro_f1, "test_acc": test_acc}
    )
    _write_manifest(out, started, [checkpoint, history_path, metrics_path])
    click.echo(_dumps({"macro_f1": macro_f1, "test_acc": test_acc}), nl=False)


@main.command("shells")
@click.option("--data", required=True, type=click.Path(exists=True, path_type=Path))
@_lcap_option
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/shells"), show_default=True)
@_guarded
def cmd_shells(data, l_cap, out):
    """Emit the shell decomposition report as JSON."""
    started = time.perf_counter()
    report = shell_report(_load_graph(data), l_cap)
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out, started, [_write_json(out / "shells.json", report)])
    click.echo(_dumps(report), nl=False)


@main.command("metrics")
@click.option("--data", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--propagator", type=click.Choice(_KIND_FLAGS), default="sym", show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
@click.option("--alpha", type=float, default=2.0, show_default=True)
@_lcap_option
@click.option("--kmax", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--csv", is_flag=True, default=False, help="Also write the trajectory as CSV.")
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/metrics"), show_default=True)
@_guarded
def cmd_metrics(data, propagator, beta, alpha, l_cap, kmax, csv, out):
    """Self-attention trajectory of a propagator, as JSON (optionally CSV)."""
    started = time.perf_counter()
    graph = _load_graph(data)
    payload: dict = {"propagator": propagator, "n": graph.n, "kmax": kmax}
    if propagator == "residual":
        # the residual shares its baseline's eigenvectors: one decomposition reads both
        report, baseline = _residual_trajectories(sym_norm_propagator(graph), beta, kmax)
        payload.update(beta=beta, baseline_report=_report_payload(baseline))
    else:
        if propagator == "sym":
            prop = sym_norm_propagator(graph)
        elif propagator == "rw":
            prop = rw_norm_propagator(graph)
        else:
            prop = fused_shell_propagator(shell_decompose(graph, l_cap), alpha)
            payload["alpha"] = alpha
        report = sas_trajectory(prop, kmax)
    payload["report"] = _report_payload(report)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [_write_json(out / "metrics.json", payload)]
    if csv:
        csv_path = out / "trajectory.csv"
        rows = ["k,sas"] + [f"{k},{repr(v)}" for k, v in report.sas_trajectory]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outputs.append(csv_path)
    _write_manifest(out, started, outputs)
    click.echo(_dumps(payload), nl=False)


def _sweep_seed(base_seed: int, layers: int, alpha: float) -> int:
    digest = hashlib.sha256(f"{base_seed}|{layers}|{alpha!r}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


#: The dataset and each cap's decomposition that a sweep's combinations
#: share, set once in each process that runs them by ``_sweep_init``.
_sweep_inputs: tuple[Dataset, dict[int, ShellDecomposition]] | None = None


def _sweep_init(dataset: Dataset, decompositions: dict[int, ShellDecomposition]) -> None:
    global _sweep_inputs
    _sweep_inputs = (dataset, decompositions)


def _sweep_one(config: TrainConfig) -> float:
    dataset, decompositions = _sweep_inputs
    return _fit(dataset, decompositions[config.l_cap], config)[2]


def _parse_number_list(text: str, cast, flag: str):
    try:
        values = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated list, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} must name at least one value")
    return values


@main.command("sweep")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--layers", required=True, help="Comma-separated shell caps, e.g. 2,4,8.")
@click.option("--alphas", required=True, help="Comma-separated alpha values, e.g. 2,5.")
@_training_options
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/sweep"), show_default=True)
@_guarded
def cmd_sweep(data, layers, alphas, out, **options):
    """One train/eval per (layers, alpha) combination; CSV for plotting."""
    started = time.perf_counter()
    base = TrainConfig(**options)
    layer_values = _parse_number_list(layers, int, "--layers")
    alpha_values = _parse_number_list(alphas, float, "--alphas")
    configs = [
        replace(base, l_cap=l, alpha=a, seed=_sweep_seed(base.seed, l, a))
        for l, a in sorted({(l, a) for l in layer_values for a in alpha_values})
    ]
    try:
        threads = int(os.environ.get("SHELLPROP_THREADS", "1"))
    except ValueError as err:
        raise ConfigError(f"SHELLPROP_THREADS must be an integer: {err}") from None
    workers = min(threads, len(configs), os.cpu_count() or 1)
    # loaded once and decomposed once per cap, so a data error stops the
    # sweep before any worker starts
    dataset = _split_dataset(data, base.seed)
    shared = (dataset, {l: shell_decompose(dataset.graph, l) for l in sorted(set(layer_values))})
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_sweep_init, initargs=shared) as pool:
            accuracies = list(pool.map(_sweep_one, configs))
    else:
        _sweep_init(*shared)
        accuracies = list(map(_sweep_one, configs))
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    rows = ["layers,alpha,accuracy"]
    rows += [f"{c.l_cap},{repr(c.alpha)},{repr(acc)}" for c, acc in zip(configs, accuracies)]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_manifest(out, started, [csv_path])
    click.echo(str(csv_path))


@main.command("rerun")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_guarded
def cmd_rerun(manifest):
    """Re-execute the command recorded in a manifest."""
    try:
        payload = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise InputError(f"{manifest}: cannot read manifest: {err}") from None
    argv = payload.get("argv") if isinstance(payload, dict) else None
    if not isinstance(argv, list) or not argv:
        raise InputError(f"{manifest}: manifest has no argv record")
    main.main(args=[str(a) for a in argv], standalone_mode=False)


if __name__ == "__main__":
    main()
