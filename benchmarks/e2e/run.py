#!/usr/bin/env python3
"""End-to-end benchmark of the repro pipeline and its /v1 server.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 2018 --out results.json
    python3 benchmarks/e2e/run.py --workload ingest --seed 7 --seconds 10
    python3 benchmarks/e2e/run.py --seed 2018 --trace-dir traces
    python3 benchmarks/e2e/run.py --compare a1.json a2.json -- b1.json b2.json

The workloads, the metrics and their regression bounds are declared in
``BENCHMARK.json`` at the repository root; ``benchmarks/e2e/README.md``
says why each exists.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric, or with ``--trace 1`` every per-layer metric.
The exit code is 1 when an output check failed, and 2 when there is
no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

import harness
import ledger

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space for databases and checkpoint dirs, inside the checkout.
SCRATCH = ROOT / ".bench_e2e"


def _parse(argv: list[str] | None, spec: dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=2018,
                        help="seed every input is generated from "
                             "(default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="traced run; also write <workload>.jsonl "
                             "spans here (implies --trace 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results file here")
    parser.add_argument("--compare", nargs="+", metavar="A.json",
                        help="results files of side A; side B's follow "
                             "a lone --")
    parser.add_argument("after", nargs="*", metavar="B.json",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare and not args.after:
        parser.error("usage: --compare A.json [A2.json ...] -- B.json ...")
    if args.after and not args.compare:
        parser.error(f"unexpected arguments: {' '.join(args.after)}")
    return args


def _result(run: Any, spec: dict[str, Any]) -> dict[str, Any]:
    """One workload's results entry; its metrics are exactly those
    BENCHMARK.json declares for the mode."""
    declared = spec["per_layer" if run.traced else "end_to_end"]
    values = run.layers if run.traced else run.end_to_end()
    names = {metric["name"] for metric in declared}
    if set(values) != names:
        raise RuntimeError(
            "emitted metrics do not match BENCHMARK.json: "
            f"{sorted(set(values) ^ names)}")
    samples = {} if run.traced else run.samples()
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {metric["name"]: {
            "value": values[metric["name"]], "unit": metric["unit"],
            **({"samples": samples[metric["name"]]} if samples else {})}
            for metric in declared},
        "extra": run.extra,
    }


def _print(run: Any, result: dict[str, Any]) -> None:
    from layers import MOVES

    mode = "traced" if run.traced else "untraced"
    print(f"== {run.workload}: seed {run.seed}, {run.seconds:g} s, {mode}")
    for name, metric in result["metrics"].items():
        count = (f"  (n={metric['samples']})" if "samples" in metric
                 else "")
        moves = ", ".join(target for target, workload in MOVES.get(name, ())
                          if workload == run.workload)
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}"
              f"{count}{'  -> ' + moves if moves else ''}")
    extra = ", ".join(f"{key} {value:.6g}" if isinstance(value, float)
                      else f"{key} {value}"
                      for key, value in sorted(run.extra.items()))
    print(f"  {extra}")
    for line in run.report:
        print(line)
    verdict = "ok" if run.correct else "FAILED"
    print(f"  checks: {verdict} ({result['failed']} failed of "
          f"{result['attempted']} attempted)")
    for problem in run.problems:
        print(f"    - {problem}")


def _remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:
        pass  # missing, or another run's scratch is still there


def _write_trace(directory: Path, run: Any) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{run.workload}.jsonl"
    path.write_text("".join(json.dumps(span, sort_keys=True) + "\n"
                            for span in run.spans), encoding="utf-8")
    print(f"  spans: {path} ({len(run.spans)})")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if args.compare:
        return ledger.compare(spec, args.compare, args.after)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: nothing to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    traced = bool(args.trace) or args.trace_dir is not None
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    SCRATCH.mkdir(exist_ok=True)
    # The fork server's socket lives in a temporary directory, which
    # multiprocessing removes at exit; keep it inside the checkout too.
    tempfile.tempdir = str(SCRATCH)
    multiprocessing.util.Finalize(None, _remove_if_empty, args=(SCRATCH,),
                                  exitpriority=-200)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    results = {}
    try:
        for name in names:
            run = workloads.run_workload(name, workloads.Inputs(args.seed),
                                         seconds, traced, workdir)
            results[name] = _result(run, spec)
            _print(run, results[name])
            if args.trace_dir is not None:
                _write_trace(args.trace_dir, run)
    finally:
        harness.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "header": ledger.header(ROOT, args.seed, seconds, traced,
                                    names),
            "results": results,
        }, indent=2) + "\n", encoding="utf-8")
        print(f"results: {args.out}")
    correct = all(result["correct"] for result in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        (only,) = results.values()
        summary["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                              for name, m in only["metrics"].items()}
    else:
        summary["workloads"] = {
            name: {metric: entry["value"]
                   for metric, entry in result["metrics"].items()}
            for name, result in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
