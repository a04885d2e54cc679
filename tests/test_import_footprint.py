"""scipy stays off the default path.

Synthesis, the pipeline and ``/v1`` serving never call scipy, so no
``repro`` module imports it at load time; the Stage IV fits and tests
that do call it import it where they are called.  Each check runs in
a fresh interpreter, because this test process has long since loaded
scipy.
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


import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
assert not scipy_modules(), f"importing repro loaded {scipy_modules()[:5]}"

from repro.analysis.kernels import KERNELS
from repro.pipeline import PipelineConfig, process_corpus
from repro.query import QueryServer
from repro.query.server import _V1_ROUTES
from repro.synth import generate_corpus

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


def test_default_path_never_imports_scipy():
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
        text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok: 8 routes, 10 kernels"), (
        result.stdout)
