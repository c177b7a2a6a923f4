"""Correctness checks: program output against an oracle or a property.

Each check raises ``CheckFailed`` with a message naming what differed.  The
self-test feeds every check a deliberately wrong output to show it fails.
"""
from __future__ import annotations

import numpy as np

#: Relative error allowed between the program's operator and the dense oracle.
OPERATOR_RTOL = 1e-10
#: Absolute error allowed on a self-attention score (scores lie in (0, 1]).
SCORE_ATOL = 1e-10
#: "Well above chance": accuracy at least this multiple of 1 / classes.
CHANCE_FACTOR = 2.5


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def shells(shell_sizes, l_max: int, histogram: list[int]) -> None:
    """Shell sizes and l_max equal the oracle's distance histogram."""
    _require(
        list(shell_sizes) == histogram,
        f"shell sizes {list(shell_sizes)} != distance histogram {histogram}",
    )
    _require(l_max == len(histogram), f"l_max {l_max} != {len(histogram)}")


def close(name: str, got: np.ndarray, want: np.ndarray) -> None:
    """Relative Frobenius error of ``got`` against ``want`` is within OPERATOR_RTOL."""
    got = np.asarray(got)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    _require(err <= OPERATOR_RTOL, f"{name}: relative error {err:.3e} > {OPERATOR_RTOL:.0e}")


def accuracy(reported: float, predictions: np.ndarray, truth: np.ndarray, classes: int) -> None:
    """The reported accuracy equals the oracle's and is well above chance."""
    expected = float((predictions == truth).mean())
    _require(reported == expected, f"accuracy {reported!r} != oracle {expected!r}")
    floor = CHANCE_FACTOR / classes
    _require(reported >= floor, f"accuracy {reported} below {floor:.3f}")


def loss_decreased(losses) -> None:
    _require(
        losses[-1] < losses[0],
        f"final training loss {losses[-1]} not below first {losses[0]}",
    )


def checkpoint(file_bytes: bytes, expected: bytes, loaded, arrays) -> None:
    """The file has the documented layout and loads back bit for bit."""
    _require(file_bytes == expected, "checkpoint bytes differ from the documented layout")
    for got, want in zip(loaded, arrays):
        _require(
            got.shape == want.shape
            and got.dtype == want.dtype
            and got.tobytes() == want.tobytes(),
            "checkpoint does not round-trip bit for bit",
        )


def trajectory(name: str, points, expected: dict[int, float], k_max: int) -> None:
    """Scores cover depths 1..k_max and match the oracle at sampled depths."""
    depths = [k for k, _ in points]
    _require(depths == list(range(1, k_max + 1)), f"{name}: depths {depths[:3]}... wrong")
    values = dict(points)
    for k, want in expected.items():
        got = values[k]
        _require(
            abs(got - want) <= SCORE_ATOL,
            f"{name}: score at depth {k} is {got!r}, oracle {want!r}",
        )


def residual_above(residual, baseline) -> None:
    for (k, r), (_, s) in zip(residual, baseline):
        _require(r > s, f"residual score {r} not above sym {s} at depth {k}")


def gap_shrinks(points, n: int) -> None:
    first = abs(points[0][1] - 1.0 / n)
    last = abs(points[-1][1] - 1.0 / n)
    _require(last < first, f"sym gap to 1/N grew from {first} to {last}")


def sweep_rows(csv_text: str, layers, alphas, classes: int) -> None:
    """sweep.csv holds exactly one row per (layers, alpha), each well above chance."""
    lines = csv_text.strip().splitlines()
    _require(lines[:1] == ["layers,alpha,accuracy"], f"bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    combos = sorted((int(l), float(a)) for l, a, _ in rows)
    want = sorted((l, float(a)) for l in layers for a in alphas)
    _require(combos == want, f"sweep combinations {combos} != {want}")
    floor = CHANCE_FACTOR / classes
    for l, a, acc in rows:
        _require(float(acc) >= floor, f"sweep ({l}, {a}) accuracy {acc} below {floor:.3f}")


def same(name: str, first, other) -> None:
    """Repeated rounds on the same inputs give identical outputs."""
    _require(first == other, f"{name} differs between rounds of the same run")
