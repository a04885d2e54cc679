"""Tests for the Fig. 2/3 exhibits and docstring-coverage meta
checks."""

import importlib
import inspect
import pkgutil


class TestFigure2And3:
    def test_figure2_lists_both_cases(self, db):
        from repro.reporting import run_experiment

        figure = run_experiment("figure2", db)
        text = figure.render()
        assert "Case Study I" in text
        assert "Case Study II" in text
        assert "recklessly" not in text  # events, not report quotes

    def test_figure3_outline_and_dot(self, db):
        from repro.reporting import run_experiment

        figure = run_experiment("figure3", db)
        text = figure.render(max_points=3)
        assert "digraph control_structure" in text
        assert "recognition" in text
        # Observed failures annotate the structure.
        assert any("observed failures" in a for a in figure.annotations)


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(member) or inspect.isfunction(member):
            if getattr(member, "__module__", None) == module.__name__:
                yield name, member


class TestDocstringCoverage:
    def test_every_public_member_documented(self):
        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            if not module.__doc__:
                missing.append(info.name)
            for name, member in _public_members(module):
                if not inspect.getdoc(member):
                    missing.append(f"{info.name}.{name}")
        assert not missing, f"undocumented: {missing[:10]}"

    def test_every_public_method_documented(self):
        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            module = importlib.import_module(info.name)
            for class_name, cls in _public_members(module):
                if not inspect.isclass(cls):
                    continue
                for name, method in vars(cls).items():
                    if name.startswith("_"):
                        continue
                    if callable(method) and not inspect.getdoc(method):
                        missing.append(
                            f"{info.name}.{class_name}.{name}")
        assert not missing, f"undocumented: {missing[:10]}"
