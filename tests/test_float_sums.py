"""Float totals have the same bits on every Python.

Python 3.12's builtin ``sum()`` compensates its rounding and 3.10's
does not, so a float total taken with it differs between the two in
its last bits.  Stage IV, the query layer and the store therefore add
floats with :func:`repro.analysis.stats.left_sum` (or the numpy-exact
reductions beside it), and a builtin ``sum()`` is left only where it
counts integers.  The pins hold the seed-2018 values a served ``dpm``
answer and the Fig. 10 fidelity row carry, bit for bit, so a
compensated total fails here on every Python that computes one.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

import repro
from repro.analysis.alertness import overall_mean_reaction_time
from repro.analysis.stats import left_sum
from repro.query.engine import Query, QueryEngine

_SRC = Path(repro.__file__).parent

#: Where a float total must not come from ``sum()``, ``math.fsum`` or
#: ``statistics``: what ``/v1`` serves and the fidelity table reads.
CHECKED = sorted([*(_SRC / "analysis").rglob("*.py"),
                  *(_SRC / "reporting").rglob("*.py"),
                  *(_SRC / "query").rglob("*.py"),
                  _SRC / "pipeline" / "store.py"])

#: (file, enclosing function) -> builtin ``sum()`` calls there, each
#: a total of integers (a count, a ``len``, a tie term).
INTEGER_SUMS = {
    ("analysis/apm.py", "accident_summary"): 1,
    ("analysis/apm.py", "SpeedDistributions.fraction_relative_below"): 1,
    ("analysis/dpm.py", "manufacturer_dpm_summary"): 1,
    ("analysis/temporal.py", "mann_kendall"): 1,
    ("query/index.py", "_records"): 1,
    ("reporting/fidelity.py", "_figure_rows"): 1,
    ("reporting/tables_paper.py", "table1"): 2,
}

#: Seed 2018, as ``float.hex``: each manufacturer's ``aggregate_dpm``
#: in the served ``dpm`` answer grouped by manufacturer.
AGGREGATE_DPM = {
    "BMW": "0x1.9adf028b3b122p-10",
    "Bosch": "0x1.1377840a37c84p+0",
    "Delphi": "0x1.da7d636696d84p-6",
    "Ford": "0x1.4d3be0c262edcp-8",
    "GMCruise": "0x1.d098dada7b99bp-6",
    "Mercedes-Benz": "0x1.20a0384e4dd0ep-1",
    "Nissan": "0x1.8c146a23e4588p-6",
    "Tesla": "0x1.52d519f4fcea0p-2",
    "Volkswagen": "0x1.1d03738ab2facp-6",
    "Waymo": "0x1.cda09b406be7fp-12",
}

#: Seed 2018, as ``float.hex``: fidelity row ``fig10-mean-reaction-time``.
MEAN_REACTION_TIME = "0x1.ab960cbd34f11p-1"


def _forbidden_and_integer_sums(path: Path) -> tuple[list, Counter]:
    """The ``math.fsum``/``statistics`` uses in one file, and its
    builtin ``sum()`` calls counted per enclosing function."""
    forbidden: list[str] = []
    sums: Counter = Counter()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Import):
            forbidden.extend(f"import {alias.name}" for alias in node.names
                             if alias.name == "statistics")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "statistics" or (
                    node.module == "math"
                    and any(alias.name == "fsum" for alias in node.names)):
                forbidden.append(f"from {node.module} import ...")
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and (
                    node.value.id == "statistics"
                    or (node.value.id, node.attr) == ("math", "fsum")):
                forbidden.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum"):
            sums[".".join(scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return forbidden, sums


def test_no_compensated_or_builtin_float_sums():
    # The pins below hold totals taken in these files, so a misrooted
    # ``_SRC`` or an empty glob fails here.
    assert {"analysis/dpm.py", "analysis/alertness.py", "query/engine.py",
            "reporting/tables_paper.py", "pipeline/store.py"} <= {
        path.relative_to(_SRC).as_posix() for path in CHECKED}
    forbidden = {}
    sums = {}
    for path in CHECKED:
        name = path.relative_to(_SRC).as_posix()
        found, counted = _forbidden_and_integer_sums(path)
        if found:
            forbidden[name] = found
        sums.update({(name, function): count
                     for function, count in counted.items()})
    assert not forbidden
    # A new ``sum()`` fails until it is a ``left_sum`` or, counting
    # integers, an INTEGER_SUMS entry; a stale entry fails too.
    assert sums == INTEGER_SUMS


def test_left_sum_is_the_uncompensated_sum():
    # 0.1 + 0.2 rounds up, and the compensated sum would take the
    # error back: 3.10 gives 0.6000000000000001, 3.12 gives 0.6.
    assert left_sum([0.1, 0.2, 0.3]) == 0.6000000000000001
    assert left_sum([1e100, 1.0, -1e100]) == 0.0
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum(iter([2.5, -0.0])) == 2.5


def test_served_aggregate_dpm_bits(db):
    answer = QueryEngine(db).execute(
        Query(metric="dpm", group_by="manufacturer")).value
    assert {name: row["aggregate_dpm"].hex()
            for name, row in answer.items()} == AGGREGATE_DPM


def test_mean_reaction_time_bits(db):
    assert overall_mean_reaction_time(db).hex() == MEAN_REACTION_TIME


def test_a_compensated_total_moves_the_pins(db):
    # What 3.12's ``sum()`` would serve: the exactly rounded totals of
    # monthly miles move five manufacturers' aggregate DPM (Bosch's
    # miles total 1918.1399999999999 left to right, 1918.14 exactly).
    moved = sorted(
        name for name, pinned in AGGREGATE_DPM.items()
        if (sum(db.monthly_disengagements(name).values())
            / math.fsum(db.monthly_miles(name).values())).hex() != pinned)
    assert moved == ["Bosch", "Delphi", "Mercedes-Benz", "Nissan",
                     "Tesla"]
