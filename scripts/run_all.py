"""One-command reproduction driver.

Runs the test suite (``tests/test_fidelity.py`` checks every number
the paper prints), the ablation and timing benches, and regenerates
EXPERIMENTS.md from the fidelity rows.

Usage::

    python scripts/run_all.py [--skip-tests] [--skip-benches]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(label: str, command: list[str]) -> int:
    print(f"\n=== {label}: {' '.join(command)} ===", flush=True)
    return subprocess.call(command, cwd=ROOT)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-tests", action="store_true")
    parser.add_argument("--skip-benches", action="store_true")
    args = parser.parse_args()

    failures = 0
    if not args.skip_tests:
        failures += _run("tests", [
            sys.executable, "-m", "pytest", "tests/", "-q"])
    if not args.skip_benches:
        failures += _run("benchmarks", [
            sys.executable, "-m", "pytest", "benchmarks/",
            "--benchmark-only", "-q"])
    failures += _run("experiments", [
        sys.executable, "scripts/generate_experiments_md.py"])

    print()
    if failures:
        print(f"DONE WITH FAILURES ({failures} step(s) failed)")
        return 1
    print("DONE — paper comparison in EXPERIMENTS.md; render the "
          "exhibits with `repro report all --out DIR`")
    return 0


if __name__ == "__main__":
    sys.exit(main())
