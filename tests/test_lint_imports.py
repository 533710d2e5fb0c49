"""The layering check checks what it says (``make lint-imports``)."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "lint_imports.py",
)


@pytest.fixture()
def lint(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("lint_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def check(package, source):
        directory = tmp_path / "repro" / package
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "probe.py"
        path.write_text(source)
        monkeypatch.setattr(module, "SRC", str(tmp_path))
        return [message for _line, message in module.check_file(str(path))]

    check.module = module
    return check


def test_the_repository_is_clean(lint):
    assert lint.module.main() == 0


def test_lazy_executor_imports_stay_legal_in_core(lint):
    assert lint("core", "def f():\n    from ..parallel import pool\n") == []
    (found,) = lint("core", "from ..parallel import pool\n")
    assert "repro.core imports repro.parallel at module level" in found
    (found,) = lint("hypergraph", "import repro.service.daemon\n")
    assert "repro.hypergraph imports repro.service" in found


def test_parallel_never_imports_service_and_nobody_the_scaffolding(lint):
    (found,) = lint("parallel", "def f():\n    from .. import service\n")
    assert "repro.parallel imports repro.service in a function" in found
    assert lint("service", "from ..parallel.pool import ShardPool\n") == []
    for package in ("core", "hypergraph", "parallel", "service"):
        (found,) = lint(package, "def f():\n    from ..bench import x\n")
        assert f"repro.{package} imports repro.bench" in found
    assert lint("bench", "from ..baselines import cfl\n") == []


def test_the_cli_imports_scaffolding_and_datasets_only_in_functions(
    lint, tmp_path, monkeypatch,
):
    def check_cli(source):
        path = tmp_path / "repro" / "cli.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        monkeypatch.setattr(lint.module, "SRC", str(tmp_path))
        return [message for _line, message in lint.module.check_file(str(path))]

    for package in ("baselines", "bench", "joins", "datasets"):
        (found,) = check_cli(f"from .{package} import x\n")
        assert f"repro.cli imports repro.{package} at module level" in found
        assert check_cli(f"def f():\n    from .{package} import x\n") == []
    assert check_cli("from .catalog import DATASET_ORDER\n") == []
    assert check_cli("from .core.engine import HGMatch\n") == []


def test_importing_the_cli_loads_no_scaffolding_or_datasets():
    """What ``python -m repro <command>`` pays before argv is parsed:
    none of the packages only some commands use."""
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    probe = (
        "import sys, repro.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[:2]"
        " in (['repro', 'baselines'], ['repro', 'bench'],"
        " ['repro', 'joins'], ['repro', 'datasets'])))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
