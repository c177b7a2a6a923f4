"""Command-line entry point for reproducible shell-propagation experiments.

Every command resolves its configuration, runs, writes its artifacts into
``--out``, and finishes with a ``manifest.json`` recording the resolved
argv, seed, version, wall time, and a digest of every output file.
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
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .data import Dataset, load_dataset, make_split
from .errors import ConfigError, InputError, ShellPropError
from .graph import SparseGraph, build_graph, read_edge_list
from .metrics import (
    MetricReport,
    fused_shell_propagator,
    residual_propagator,
    rw_norm_propagator,
    sas_trajectory,
    sym_norm_propagator,
)
from .model import TrainConfig, evaluate, save_checkpoint, train
from .shells import fuse_shells, shell_decompose, shell_report

_KIND_FLAGS = ("sym", "rw", "residual", "fused")


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

    return wrapper


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, payload) -> Path:
    path.write_text(_dumps(payload), encoding="utf-8")
    return path


def _write_manifest(
    out_dir: Path,
    command: str,
    argv: list[str],
    config: dict,
    seed: int | None,
    data: str | None,
    started: float,
    outputs: list[Path],
) -> Path:
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
    }
    manifest = {
        "command": command,
        "argv": argv,
        "config": config,
        "seed": seed,
        "data": data,
        "version": f"shellprop-{__version__}",
        "wall_time_s": time.perf_counter() - started,
        "output_digest": digests,
    }
    return _write_json(out_dir / "manifest.json", manifest)


def _load_graph(data_path: Path) -> SparseGraph:
    """A dataset directory or a bare edge-list file both yield a graph."""
    if data_path.is_dir():
        return load_dataset(data_path).graph
    edges = read_edge_list(data_path)
    if not edges:
        raise InputError(f"{data_path}: no edges found")
    n = max(max(u, v) for u, v in edges) + 1
    return build_graph(edges, n)


def _with_split(dataset: Dataset, seed: int) -> Dataset:
    if dataset.split is not None:
        return dataset
    split = make_split(dataset.labels, per_class=20, val=500, test=1000, seed=seed)
    return replace(dataset, split=split)


def _report_payload(report: MetricReport) -> dict:
    return {
        "avg_nat": report.avg_nat,
        "limit_gap": report.limit_gap,
        "sas_trajectory": [[k, v] for k, v in report.sas_trajectory],
    }


@click.group()
@click.version_option(__version__, prog_name="shellprop")
def main() -> None:
    """Distance-shell graph propagation experiments."""


@main.command("train")
@click.option("--data", required=True, type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--alpha", type=float, default=2.0, show_default=True)
@click.option("--lcap", type=int, default=None)
@click.option("--hidden", type=int, default=64, show_default=True)
@click.option("--dropout", type=float, default=0.5, show_default=True)
@click.option("--lr", type=float, default=1e-2, show_default=True)
@click.option("--weight-decay", type=float, default=5e-3, show_default=True)
@click.option("--epochs", type=int, default=500, show_default=True)
@click.option("--patience", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/train"), show_default=True)
@_guarded
def cmd_train(data, alpha, lcap, hidden, dropout, lr, weight_decay, epochs, patience, seed, out):
    """Train the classifier; writes checkpoint, history CSV, and metrics JSON."""
    started = time.perf_counter()
    config = TrainConfig(
        alpha=alpha,
        l_cap=lcap,
        hidden=hidden,
        dropout=dropout,
        lr=lr,
        weight_decay=weight_decay,
        epochs=epochs,
        patience=patience,
        seed=seed,
    )
    dataset = _with_split(load_dataset(data), seed)
    decomposition = shell_decompose(dataset.graph, config.l_cap)
    propagator = fuse_shells(decomposition, config.alpha)
    params, history = train(dataset, config, propagator=propagator)
    test_acc, macro_f1 = evaluate(params, dataset, propagator, dataset.split.test)

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
    argv = [
        "train",
        "--data", str(data),
        "--alpha", repr(alpha),
        "--hidden", str(hidden),
        "--dropout", repr(dropout),
        "--lr", repr(lr),
        "--weight-decay", repr(weight_decay),
        "--epochs", str(epochs),
        "--patience", str(patience),
        "--seed", str(seed),
        "--out", str(out),
    ]
    if lcap is not None:
        argv += ["--lcap", str(lcap)]
    _write_manifest(
        out,
        "train",
        argv,
        {
            "alpha": alpha, "l_cap": lcap, "hidden": hidden, "dropout": dropout,
            "lr": lr, "weight_decay": weight_decay, "epochs": epochs,
            "patience": patience, "seed": seed,
        },
        seed,
        str(data),
        started,
        [checkpoint, history_path, metrics_path],
    )
    click.echo(_dumps({"macro_f1": macro_f1, "test_acc": test_acc}), nl=False)


@main.command("shells")
@click.option("--data", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--lcap", type=int, default=None)
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/shells"), show_default=True)
@_guarded
def cmd_shells(data, lcap, out):
    """Emit the shell decomposition report as JSON."""
    started = time.perf_counter()
    graph = _load_graph(data)
    report = shell_report(graph, lcap)
    out.mkdir(parents=True, exist_ok=True)
    report_path = _write_json(out / "shells.json", report)
    argv = ["shells", "--data", str(data), "--out", str(out)]
    if lcap is not None:
        argv += ["--lcap", str(lcap)]
    _write_manifest(
        out, "shells", argv, {"l_cap": lcap}, None, str(data), started, [report_path]
    )
    click.echo(_dumps(report), nl=False)


@main.command("metrics")
@click.option("--data", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--propagator", "kind", type=click.Choice(_KIND_FLAGS), default="sym", show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
@click.option("--alpha", type=float, default=2.0, show_default=True)
@click.option("--lcap", type=int, default=None)
@click.option("--kmax", type=int, default=100, show_default=True)
@click.option("--csv", "write_csv", is_flag=True, default=False, help="Also write the trajectory as CSV.")
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/metrics"), show_default=True)
@_guarded
def cmd_metrics(data, kind, beta, alpha, lcap, kmax, write_csv, out):
    """Self-attention trajectory of a propagator, as JSON (optionally CSV)."""
    started = time.perf_counter()
    graph = _load_graph(data)
    payload: dict = {"propagator": kind, "n": graph.n, "kmax": kmax}
    if kind == "sym":
        prop = sym_norm_propagator(graph)
    elif kind == "rw":
        prop = rw_norm_propagator(graph)
    elif kind == "residual":
        prop = residual_propagator(sym_norm_propagator(graph), beta)
        payload["beta"] = beta
    else:
        prop = fused_shell_propagator(shell_decompose(graph, lcap), alpha)
        payload["alpha"] = alpha
    report = sas_trajectory(prop, kmax)
    payload["report"] = _report_payload(report)
    if kind == "residual":
        payload["baseline_report"] = _report_payload(
            sas_trajectory(sym_norm_propagator(graph), kmax)
        )
    out.mkdir(parents=True, exist_ok=True)
    outputs = [_write_json(out / "metrics.json", payload)]
    if write_csv:
        csv_path = out / "trajectory.csv"
        rows = ["k,sas"] + [f"{k},{repr(v)}" for k, v in report.sas_trajectory]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        outputs.append(csv_path)
    argv = [
        "metrics", "--data", str(data), "--propagator", kind,
        "--beta", repr(beta), "--alpha", repr(alpha), "--kmax", str(kmax),
        "--out", str(out),
    ]
    if lcap is not None:
        argv += ["--lcap", str(lcap)]
    if write_csv:
        argv += ["--csv"]
    _write_manifest(
        out, "metrics", argv,
        {"propagator": kind, "beta": beta, "alpha": alpha, "l_cap": lcap, "kmax": kmax},
        None, str(data), started, outputs,
    )
    click.echo(_dumps(payload), nl=False)


def _sweep_seed(base_seed: int, layers: int, alpha: float) -> int:
    digest = hashlib.sha256(f"{base_seed}|{layers}|{alpha!r}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _sweep_one(data_dir: str, layers: int, alpha: float, base: dict) -> tuple[int, float, float]:
    config = TrainConfig(
        alpha=alpha,
        l_cap=layers,
        hidden=base["hidden"],
        dropout=base["dropout"],
        lr=base["lr"],
        weight_decay=base["weight_decay"],
        epochs=base["epochs"],
        patience=base["patience"],
        seed=_sweep_seed(base["seed"], layers, alpha),
    )
    dataset = _with_split(load_dataset(Path(data_dir)), base["seed"])
    decomposition = shell_decompose(dataset.graph, layers)
    propagator = fuse_shells(decomposition, alpha)
    params, _ = train(dataset, config, propagator=propagator)
    test_acc, _ = evaluate(params, dataset, propagator, dataset.split.test)
    return layers, alpha, test_acc


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
@click.option("--hidden", type=int, default=64, show_default=True)
@click.option("--dropout", type=float, default=0.5, show_default=True)
@click.option("--lr", type=float, default=1e-2, show_default=True)
@click.option("--weight-decay", type=float, default=5e-3, show_default=True)
@click.option("--epochs", type=int, default=500, show_default=True)
@click.option("--patience", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=Path("runs/sweep"), show_default=True)
@_guarded
def cmd_sweep(data, layers, alphas, hidden, dropout, lr, weight_decay, epochs, patience, seed, out):
    """One train/eval per (layers, alpha) combination; CSV for plotting."""
    started = time.perf_counter()
    layer_values = _parse_number_list(layers, int, "--layers")
    alpha_values = _parse_number_list(alphas, float, "--alphas")
    combos = sorted({(l, a) for l in layer_values for a in alpha_values})
    base = {
        "hidden": hidden, "dropout": dropout, "lr": lr,
        "weight_decay": weight_decay, "epochs": epochs, "patience": patience,
        "seed": seed,
    }
    try:
        threads = int(os.environ.get("SHELLPROP_THREADS", "1"))
    except ValueError as err:
        raise ConfigError(f"SHELLPROP_THREADS must be an integer: {err}") from None
    workers = min(threads, len(combos), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_sweep_one, str(data), l, a, base) for l, a in combos
            ]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_one(str(data), l, a, base) for l, a in combos]
    results.sort(key=lambda row: (row[0], row[1]))
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "sweep.csv"
    rows = ["layers,alpha,accuracy"]
    rows += [f"{l},{repr(a)},{repr(acc)}" for l, a, acc in results]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = [
        "sweep", "--data", str(data), "--layers", layers, "--alphas", alphas,
        "--hidden", str(hidden), "--dropout", repr(dropout), "--lr", repr(lr),
        "--weight-decay", repr(weight_decay), "--epochs", str(epochs),
        "--patience", str(patience), "--seed", str(seed), "--out", str(out),
    ]
    _write_manifest(
        out, "sweep", argv,
        {**base, "layers": layer_values, "alphas": alpha_values},
        seed, str(data), started, [csv_path],
    )
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
