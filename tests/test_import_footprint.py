"""scipy stays off the default path, and numpy off the request path.

``import repro`` loads no other module of the package and no numpy:
package ``__init__``s re-export nothing.  Synthesis, the pipeline and
``/v1`` serving never call scipy, so no ``repro`` module imports it at
load time; the Stage IV fits and tests that do call it import it where
they are called.  A ``/v1`` answer
calls no numpy at all: the box plots, medians and trend tests it
serves are plain Python, so a serving process never imports
``numpy.ma`` or faults in numpy's compiled kernels to answer.  The
server's import graph holds no fault injection: tests inject their
faults themselves, so ``import repro.query.server`` loads neither
``repro.pipeline.chaos`` nor the seeded streams of ``repro.rng``.
The Fig. 3 control structure is a table of edges, so building and
rendering it loads no graph library.  Each check runs in a fresh interpreter, because this test process has
long since loaded scipy and ``numpy.ma``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = r"""
import importlib
import pkgutil
import sys
import urllib.request


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


def repro_and_numpy():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("repro", "numpy"))


import repro

assert repro_and_numpy() == ["repro"], (
    f"import repro loaded {repro_and_numpy()[:8]}")
import repro.errors

assert repro_and_numpy() == ["repro", "repro.errors"], repro_and_numpy()[:8]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
assert not scipy_modules(), f"importing repro loaded {scipy_modules()[:5]}"

from repro.analysis.kernels import KERNELS
from repro.pipeline.config import PipelineConfig
from repro.pipeline.runner import process_corpus
from repro.query.server import _V1_ROUTES, QueryServer
from repro.synth.dataset import generate_corpus

db = process_corpus(
    generate_corpus(seed=5, manufacturers=["Nissan"]),
    PipelineConfig(seed=5, ocr_enabled=False, dictionary_mode="seed"),
).database
for kernel in KERNELS.values():
    kernel(db)
routes = sorted(_V1_ROUTES)
assert "/v1/query" in routes and "/v1/healthz" in routes, routes
with QueryServer(db, port=0) as server:
    for route in routes:
        query = "?metric=trend" if route == "/v1/query" else ""
        with urllib.request.urlopen(server.url + route + query,
                                    timeout=30) as response:
            assert response.status == 200, (route, response.status)
assert not scipy_modules(), (
    f"pipeline, kernels or serving loaded {scipy_modules()[:5]}")

from repro.analysis.fitting import fit_exponweibull

fit_exponweibull(db.reaction_times())
assert "scipy.stats" in sys.modules, "the fit did not load scipy.stats"
print(f"ok: {len(routes)} routes, {len(KERNELS)} kernels")
"""


_REQUEST_PATH = r"""
import json
import sys

from repro.api import load_database
from repro.errors import QueryError
from repro.query.engine import GROUP_BYS, METRICS, Query, QueryEngine

engine = QueryEngine(load_database(sys.argv[1]))
queries = {}
for metric in METRICS:
    for group_by in (None, *GROUP_BYS):
        try:
            query = Query(metric, group_by)
        except QueryError:
            continue
        queries[query.canonical()] = query
pairs = len(queries)
filtered = Query("dpm", manufacturers=("Waymo", "Nissan"),
                 month_from="2015-01")
queries[filtered.canonical()] = filtered

numpy_calls = []


def hook(frame, event, arg):
    if event == "call":
        module, name = frame.f_globals.get("__name__"), frame.f_code.co_name
    elif event == "c_call":
        module = (getattr(arg, "__module__", None)
                  or type(getattr(arg, "__self__", None)).__module__)
        name = arg.__name__
    else:
        return
    if module and (module == "numpy" or module.startswith("numpy.")):
        numpy_calls.append(f"{module}.{name}")


before = set(sys.modules)
sys.setprofile(hook)
try:
    sizes = [len(json.dumps(engine.execute(query).to_dict()))
             for query in queries.values()]
finally:
    sys.setprofile(None)
imported = sorted(set(sys.modules) - before)
assert not imported, f"answering imported {imported[:8]}"
assert not numpy_calls, f"answering called numpy: {numpy_calls[:8]}"
print(f"ok: {pairs} pairs + 1 filtered, {sum(sizes)} bytes")
"""


_SERVING_GRAPH = r"""
import sys

import repro.query.server

loaded = [name for name in ("repro.pipeline.chaos", "repro.rng")
          if name in sys.modules]
assert not loaded, f"import repro.query.server loaded {loaded}"
print("ok")
"""


_FIGURE3 = r"""
import sys

from repro.reporting.figures_paper import figure3

figure = figure3()
assert "digraph control_structure" in figure.notes[-1]
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "networkx")
assert not loaded, f"figure 3 loaded {loaded[:5]}"
print("ok")
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_default_path_never_imports_scipy():
    assert _run(_SCRIPT).startswith("ok: 8 routes, 18 kernels")


def test_v1_answers_never_call_numpy(db, tmp_path):
    path = tmp_path / "db.json"
    db.save(path)
    assert _run(_REQUEST_PATH, str(path)).startswith(
        "ok: 18 pairs + 1 filtered")


def test_serving_graph_holds_no_fault_injection():
    assert _run(_SERVING_GRAPH).startswith("ok")


def test_figure3_loads_no_graph_library():
    assert _run(_FIGURE3).startswith("ok")
