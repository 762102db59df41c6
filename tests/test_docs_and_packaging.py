"""Meta tests: public-API surface, documentation and example hygiene."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
EXAMPLES = SRC.parent.parent / "examples"


def _all_modules():
    names = []
    for info in pkgutil.walk_packages([str(SRC)], prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        names.append(info.name)
    return names


class TestPackaging:
    def test_every_module_imports(self):
        for name in _all_modules():
            importlib.import_module(name)

    def test_every_module_has_docstring(self):
        for name in _all_modules():
            mod = importlib.import_module(name)
            assert mod.__doc__, f"{name} lacks a module docstring"

    def test_cli_import_stays_light(self):
        """``import repro.cli`` is the start-up cost of every command; the
        heavy imports wait for the commands that need them."""
        heavy = ("scipy", "asyncio", "repro.serve")
        code = (
            "import sys, repro.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_public_api_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_subpackage_alls_resolve(self):
        for pkg_name in (
            "repro.core",
            "repro.cache",
            "repro.machine",
            "repro.trace",
            "repro.instrument",
            "repro.simmpi",
            "repro.psins",
            "repro.apps",
            "repro.pipeline",
            "repro.commextrap",
            "repro.energy",
            "repro.memstream",
            "repro.util",
        ):
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.__all__ lists {name}"

    def test_public_functions_documented(self):
        """Every public callable exported at the top level has a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestExamples:
    @pytest.mark.parametrize(
        "script", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
    )
    def test_examples_parse_and_have_main(self, script):
        tree = ast.parse(script.read_text())
        assert ast.get_docstring(tree), f"{script.name} lacks a docstring"
        names = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, f"{script.name} lacks a main()"

    def test_at_least_five_examples(self):
        assert len(list(EXAMPLES.glob("*.py"))) >= 5

    def test_quickstart_exists(self):
        assert (EXAMPLES / "quickstart.py").exists()


class TestDocs:
    def test_design_md_covers_every_subpackage(self):
        design = (SRC.parent.parent / "DESIGN.md").read_text()
        for pkg in (
            "repro.core",
            "repro.cache",
            "repro.machine",
            "repro.trace",
            "repro.instrument",
            "repro.simmpi",
            "repro.psins",
            "repro.apps",
            "repro.commextrap",
            "repro.energy",
        ):
            assert pkg.split(".")[1] in design, f"DESIGN.md misses {pkg}"

    def test_experiments_md_covers_every_table_and_figure(self):
        text = (SRC.parent.parent / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table I",
            "Table II",
            "Table III",
            "Figure 1",
            "Figure 3",
            "Figure 4",
            "Figure 5",
        ):
            assert artifact in text, f"EXPERIMENTS.md misses {artifact}"
