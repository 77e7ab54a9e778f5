"""Turn workload-process results into named metrics and printed lines."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Any

#: ``BENCHMARK.json`` beside this directory: workloads and metrics.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL = 10


def tail_percentile(samples: list[float], q: float) -> float | None:
    """The nearest-rank ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_TAIL` samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for s in ordered if s > value)
    return value if beyond >= MIN_TAIL else None


def end_to_end(setups: list[float], run: dict[str, Any]) -> dict[str, float]:
    """End-to-end metric values of one untraced run."""
    ops = max(1, run["ops"])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": run["ops"] / run["wall_s"],
        "latency_p50_ms": statistics.median(run["latencies_ms"]),
        "modularity_mean": run["modularity_mean"],
        "cpu_s_per_op": run["cpu_s"] / ops,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def sample_counts(setups: list[float], run: dict[str, Any]) -> dict[str, int]:
    return {
        "setup_s": len(setups),
        "ops_per_s": run["ops"],
        "latency_p50_ms": len(run["latencies_ms"]),
        "modularity_mean": run["quality_inputs"],
        "cpu_s_per_op": run["ops"],
        "peak_rss_mb": 1,
    }


def describe(
    name: str,
    seed: int,
    metrics: dict[str, float],
    units: dict[str, str],
    counts: dict[str, int] | None = None,
) -> list[str]:
    """Printable lines: one metric per line with its unit and samples."""
    lines = [f"{name} (seed {seed})"]
    for key, value in metrics.items():
        n = "" if counts is None or key not in counts else (
            f"  n={counts[key]}"
        )
        lines.append(f"  {key:<28} {value:>14.6g} {units[key]:<6}{n}")
    return lines


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, float],
    units: dict[str, str],
) -> str:
    """The final JSON line of the benchmark contract."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": units[key]}
                for key, value in metrics.items()
            },
        }
    )
