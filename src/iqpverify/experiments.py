"""Reproducible numerical experiments with CSV reports."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitlin import walsh_hadamard
from .errors import ValidationError
from .evaluators import _clifford_level, _main_rows, all_correlations, output_distribution
from .keygen import random_2local, random_nonzero_bits, random_nonzero_rows, random_program
from .model import seeded_rng

__all__ = [
    "ExperimentReport",
    "exp_fig1a",
    "exp_fig1b",
    "exp_anticoncentration",
    "exp_parseval",
]

Cell = int | float | str


@dataclass(frozen=True)
class ExperimentReport:
    """Tabular experiment output plus the parameters that produced it."""

    experiment: str
    params: dict[str, Cell]
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    wall_clock: float

    def to_csv(self) -> str:
        lines = [f"# experiment={self.experiment}"]
        for k in sorted(self.params):
            lines.append(f"# {k}={_format_cell(self.params[k])}")
        lines.append(f"# wall_clock={_format_cell(self.wall_clock)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValidationError("row width differs from column count")
            lines.append(",".join(_format_cell(c) for c in row))
        return "\n".join(lines) + "\n"


def _format_cell(value: Cell) -> str:
    if isinstance(value, bool):
        raise ValidationError("boolean cells are not supported")
    if isinstance(value, (int, float)):
        return repr(value)
    if "," in value or "\n" in value or "#" in value:
        raise ValidationError(f"cell {value!r} would corrupt the table")
    return value


def _quantized_one(n: int, seed: int, *stream: int):
    """One draw from the pi/8 ensemble: g level, or None for exact zero.

    It draws as ``random_program(n, n, "pi8", rng)`` then ``random_nonzero_bits`` do,
    and scores the row ints with ``correlation_clifford``'s core, ``_clifford_level``.
    """
    rng = seeded_rng(seed, *stream)
    rows = random_nonzero_rows(n, n, rng)
    main, weights = _main_rows(rows, (1,) * n, random_nonzero_bits(n, rng))  # every angle pi/8
    return _clifford_level(main, weights)[0]


def _levels(histogram: Counter) -> list[tuple[int, float, int]]:
    """(g, value, count) per correlation level, exact zeros first as g = -1."""
    zero = histogram.pop(None, 0)
    rows = [(-1, 0.0, zero)] if zero else []
    return rows + [(g, 2.0 ** (-g / 2.0), histogram[g]) for g in sorted(histogram)]


def exp_fig1b(count: int, n: int, seed: int = 0) -> ExperimentReport:
    """Histogram of exact correlation levels in the random pi/8 ensemble.

    Each of ``count`` draws is ``random_program(n, n, "pi8")`` then ``random_nonzero_bits``,
    scored on its row ints by the clifford core; every correlation is +/- 2^(-g/2)
    or exactly zero (reported as g = -1 with value 0).
    """
    if count < 1 or n < 1:
        raise ValidationError("count and n must be positive")
    start = time.perf_counter()
    rows = _levels(Counter(_quantized_one(n, seed, i) for i in range(count)))
    return ExperimentReport(
        experiment="fig1b",
        params={"count": count, "n": n, "seed": seed},
        columns=("g", "value", "count"),
        rows=tuple(rows),
        wall_clock=time.perf_counter() - start,
    )


def exp_fig1a(
    n_values: Sequence[int], count: int, seed: int = 0
) -> ExperimentReport:
    """Fraction of the pi/8 ensemble at each correlation level, per n."""
    if count < 1 or not n_values or min(n_values) < 1:
        raise ValidationError("need positive count and at least one n")
    start = time.perf_counter()
    rows: list[tuple[Cell, ...]] = []
    for n in n_values:
        histogram = Counter(_quantized_one(n, seed, n, i) for i in range(count))
        rows += [(n, g, value, k / count) for g, value, k in _levels(histogram)]
    return ExperimentReport(
        experiment="fig1a",
        params={
            "count": count,
            "n_values": "[" + " ".join(str(n) for n in n_values) + "]",
            "seed": seed,
        },
        columns=("n", "g", "value", "fraction"),
        rows=tuple(rows),
        wall_clock=time.perf_counter() - start,
    )


_TAIL_GRID = (0.05, 0.1, 0.2, 0.4)


def _anticoncentration_one(seed: int, n: int, index: int, secrets: int) -> list[float]:
    rng = seeded_rng(seed, n, index)
    program = random_2local(n, rng)
    correlations = all_correlations(program)
    picks = rng.integers(0, 1 << n, size=secrets)
    return [float(correlations[int(i)]) ** 2 for i in picks]


def exp_anticoncentration(
    n_values: Sequence[int],
    circuits: int,
    secrets_per_circuit: int = 1,
    seed: int = 0,
) -> ExperimentReport:
    """Second-moment and tail statistics of the two-local ensemble.

    For each n, draws random two-local programs, computes squared
    correlations of uniformly random strings, and reports the sample mean
    against the 3/2^n bound plus empirical tails against the Markov bound
    3/(a 2^n) on a fixed grid of thresholds a.
    """
    if circuits < 2 or secrets_per_circuit < 1 or not n_values:
        raise ValidationError("need at least two circuits and one n")
    start = time.perf_counter()
    rows: list[tuple[Cell, ...]] = []
    for n in n_values:
        batches = [
            _anticoncentration_one(seed, n, i, secrets_per_circuit)
            for i in range(circuits)
        ]
        values = np.array([v for batch in batches for v in batch])
        mean_sq = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(values.size))
        rows.append((n, "mean_sq", "", mean_sq))
        rows.append((n, "stderr", "", stderr))
        rows.append((n, "bound", "", 3.0 / 2.0**n))
        for a in _TAIL_GRID:
            rows.append((n, "tail_empirical", a, float((values >= a).mean())))
            rows.append((n, "tail_markov", a, min(1.0, 3.0 / (a * 2.0**n))))
    return ExperimentReport(
        experiment="anticoncentration",
        params={
            "circuits": circuits,
            "secrets_per_circuit": secrets_per_circuit,
            "n_values": "[" + " ".join(str(n) for n in n_values) + "]",
            "seed": seed,
        },
        columns=("n", "metric", "a", "value"),
        rows=tuple(rows),
        wall_clock=time.perf_counter() - start,
    )


def exp_parseval(n: int, instances: int, seed: int = 0) -> ExperimentReport:
    """Check sum_x p(x)^2 == mean_s <Z_s>^2 on random programs."""
    if instances < 1 or n < 1:
        raise ValidationError("need positive n and instance count")
    start = time.perf_counter()
    rows: list[tuple[Cell, ...]] = []
    for i in range(instances):
        rng = seeded_rng(seed, i)
        program = random_program(n, 2 * n, "uniform-pi8", rng)
        probs = output_distribution(program).probs
        lhs = float(np.sum(probs**2))
        rhs = float(np.mean(walsh_hadamard(probs) ** 2))
        rows.append((i, lhs, rhs, abs(lhs - rhs)))
    return ExperimentReport(
        experiment="parseval",
        params={"n": n, "instances": instances, "seed": seed},
        columns=("instance", "collision_sum", "mean_corr_sq", "abs_diff"),
        rows=tuple(rows),
        wall_clock=time.perf_counter() - start,
    )
