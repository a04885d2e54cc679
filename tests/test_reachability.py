"""Every module under ``src/repro`` has a caller.

The import closure starts from the package itself, ``python -m
repro``, the CLI, the library facade and the fidelity table (one row
per number or claim the paper prints), and follows every ``import``
statement, lazy ones inside functions included.  A module outside it
is reached only by tests, benches or examples: wire it to one of
these entry points or delete it.
"""

import ast
from pathlib import Path

import repro

ROOTS = ("repro", "repro.__main__", "repro.cli", "repro.api",
         "repro.reporting.fidelity")


def _modules() -> dict[str, Path]:
    """Dotted module name -> source file, for every module of the
    package."""
    source = Path(repro.__file__).parent
    modules = {}
    for path in source.rglob("*.py"):
        parts = path.relative_to(source.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(name: str, path: Path, modules: dict[str, Path]):
    """The package modules that ``name``'s import statements load,
    each enclosing package included."""
    package = name.split(".")
    if path.name != "__init__.py":
        package.pop()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            anchor = package[:len(package) - node.level + 1]
            base = ".".join(anchor if node.level else [])
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            # ``from a import b`` loads a, and a.b when it is a module.
            targets = [base, *(f"{base}.{alias.name}"
                               for alias in node.names)]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            for end in range(1, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if prefix in modules:
                    yield prefix


def test_every_module_is_reachable_from_an_entry_point():
    modules = _modules()
    reached: set[str] = set()
    pending = list(ROOTS)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(_imported(name, modules[name], modules))
    unreached = sorted(set(modules) - reached)
    assert not unreached, f"no entry point imports {unreached}"
