"""Results files and the ``--compare`` verdicts.

A results file (``run.py --out``) is one JSON object: a ``header``
saying where and how it was measured, and ``results`` keyed by
workload.  ``--compare`` reads any number of such files per side and
judges every (workload, end-to-end metric) pair against the bound
``BENCHMARK.json`` fixes for the metric, and the error rate, which may
not rise at all; per-layer metrics get a verdict only when the two
sides do not overlap.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

from harness import quartiles, spread

#: Failed operations over attempted ones, from each results file's
#: extras.  BENCHMARK.json cannot declare it, as an end-to-end metric
#: there must never read 0; it is gated here with a bound of 0.
ERROR_RATE = {"name": "error_rate", "unit": "ratio", "better": "lower",
              "bound": 0.0}


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip()


def header(root: Path, seed: int, seconds: float, traced: bool,
           workloads: list[str]) -> dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
        "run_seconds": seconds,
        "traced": traced,
        "workloads": workloads,
    }


def verdict(before: list[float], after: list[float], better: str,
            bound: float | None) -> tuple[str, float]:
    """``(verdict, worsening)`` of ``after`` against ``before``.

    ``worsening`` is the change of the median as a share of the
    ``before`` median, positive when worse.  With a bound: ``worse`` or
    ``better`` beyond it, else ``within``; but when either side's
    interquartile spread is wider than the bound the pair is
    ``unresolved``, unless every ``after`` value beats every ``before``
    value.  Without a bound (per-layer metrics) only a complete
    separation of the two sides is a verdict; anything else is
    ``overlap``.
    """
    _, base, _ = quartiles(before)
    _, new, _ = quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / base if base else 0.0

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    all_better = all(beats(b, a) for b in after for a in before)
    all_worse = all(beats(a, b) for b in after for a in before)
    if bound is None:
        return ("better" if all_better else "worse" if all_worse
                else "overlap"), worsening
    if spread(before) > bound or spread(after) > bound:
        return ("better" if all_better else "unresolved"), worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def error_verdict(before: list[float], after: list[float]) -> str:
    """``error_rate`` may not rise at all: ``worse`` when any ``after``
    run failed more often than every ``before`` run did."""
    if max(after) > max(before):
        return "worse"
    return "better" if max(after) < max(before) else "within"


def _values(files: list[dict[str, Any]], workload: str,
            metric: str) -> list[float]:
    """One value per results file: a declared metric, or a per-layer
    one an untraced run records among its extras."""
    out = []
    for data in files:
        entry = data["results"].get(workload)
        if entry is None:
            continue
        if metric in entry["metrics"]:
            out.append(entry["metrics"][metric]["value"])
        elif metric in entry.get("extra", {}):
            out.append(entry["extra"][metric])
    return out


def compare(spec: dict[str, Any], before_paths: list[str],
            after_paths: list[str]) -> int:
    """Print the verdict table; 1 when a bounded metric is worse or
    unresolved, else 0."""
    before = [json.loads(Path(path).read_text()) for path in before_paths]
    after = [json.loads(Path(path).read_text()) for path in after_paths]
    for label, paths, files in (("A", before_paths, before),
                                ("B", after_paths, after)):
        for path, data in zip(paths, files):
            head = data["header"]
            print(f"{label}: {path}: sha {head['git_sha'][:12]} seed "
                  f"{head['seed']} {head['run_seconds']}s/run, "
                  f"{head['cpu_count']} cpu, python {head['python']}")
    print(f"\n{'workload':<15} {'metric':<26} {'A median [q1, q3] (n)':>34} "
          f"{'B median [q1, q3] (n)':>34} {'worse by':>9} {'bound':>6}  "
          "verdict")
    metrics = spec["end_to_end"] + [ERROR_RATE] + [
        {**metric, "bound": None} for metric in spec["per_layer"]]
    status = 0
    for workload in spec["workloads"]:
        for metric in metrics:
            name = metric["name"]
            a = _values(before, workload["name"], name)
            b = _values(after, workload["name"], name)
            if not a or not b:
                continue
            outcome, worsening = verdict(a, b, metric["better"],
                                         metric["bound"])
            if metric is ERROR_RATE:
                outcome = error_verdict(a, b)
            if metric["bound"] is not None and outcome in (
                    "worse", "unresolved"):
                status = 1
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"({len(values)})")
            bound = ("-" if metric["bound"] is None
                     else f"{metric['bound']:.0%}")
            print(f"{workload['name']:<15} {name:<26} {cells[0]:>34} "
                  f"{cells[1]:>34} {worsening:>+9.1%} {bound:>6}  "
                  f"{outcome}")
    return status
