"""The layering check checks what it says (``make lint-imports``)."""

from __future__ import annotations

import importlib.util
import os

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
