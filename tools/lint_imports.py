#!/usr/bin/env python
"""Layering check over ``src/repro``: who may import whom.

Run via ``make lint-imports`` (CI's docs job).  A stdlib ``ast`` walk —
nothing is imported, so a cycle or a missing optional dependency cannot
hide a violation — that fails when:

1. ``core/`` or ``hypergraph/`` import ``parallel`` or ``service`` **at
   module level**.  The engine reaches the shard pool
   (``parallel.pool``), the simulated scheduler
   (``parallel.simulation``) and the match service through lazy
   in-function imports (``core/engine.py``); those stay legal, because
   they are what keeps the matching core importable — and testable —
   without the network stack.  (``executor="threads"`` needs none: it
   is the engine's own root parts on a stdlib thread pool.)
2. ``parallel/`` imports ``service/``, at any depth: the service is
   built on the shard pool, never the reverse.
3. Any production package (``core``, ``hypergraph``, ``parallel``,
   ``service``) imports the paper's scaffolding (``baselines``,
   ``bench``, ``joins``), at any depth.
4. ``repro/cli.py`` imports the scaffolding or ``datasets`` **at module
   level**.  Every command pays for what the CLI module imports before
   argv is parsed — a ``serve-match`` daemon included — so the commands
   that need them import them in their own functions.

Every file under ``src/`` is parsed on the way, so a syntax error
anywhere fails the check too.
"""

from __future__ import annotations

import ast
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

PRODUCTION = ("core", "hypergraph", "parallel", "service")
SCAFFOLDING = ("baselines", "bench", "joins")

#: importing package → (forbidden packages, module level only?)
RULES = {
    "core": [(("parallel", "service"), True)],
    "hypergraph": [(("parallel", "service"), True)],
    "parallel": [(("service",), False)],
}
for _package in PRODUCTION:
    RULES.setdefault(_package, []).append((SCAFFOLDING, False))
RULES["cli"] = [(SCAFFOLDING + ("datasets",), True)]


def imported_modules(node, package: str):
    """Absolute dotted names one import statement may bind."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parent = package.split(".")
        parent = parent[: len(parent) - (node.level - 1)]
        base = ".".join(parent + ([base] if base else []))
    # ``from .. import service`` names a package in the alias.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def iter_imports(tree):
    """``(node, at_module_level)`` for every import in ``tree``."""
    stack = [(tree, True)]
    while stack:
        node, top = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, top
        inner = top and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def check_file(path: str):
    relative = os.path.relpath(path, SRC)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=relative)
    parts = relative[: -len(".py")].split(os.sep)
    if parts[0] != "repro" or len(parts) < 2:
        return
    owner = parts[1]  # a package, or a top-level module such as ``cli``
    package = ".".join(parts[:-1])
    for node, top in iter_imports(tree):
        for name in imported_modules(node, package):
            target = name.split(".")
            if target[0] != "repro" or len(target) < 2:
                continue
            for forbidden, module_level_only in RULES.get(owner, ()):
                if target[1] in forbidden and (top or not module_level_only):
                    where = "at module level" if top else "in a function"
                    yield node.lineno, (
                        f"{relative}:{node.lineno}: repro.{owner} imports "
                        f"repro.{target[1]} {where}"
                    )
                    break
            else:
                continue
            break  # one report per statement


def main() -> int:
    violations, files = [], 0
    for directory, _dirs, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if name.endswith(".py"):
                files += 1
                found = sorted(check_file(os.path.join(directory, name)))
                violations.extend(message for _line, message in found)
    for violation in violations:
        print(violation)
    status = "ok" if not violations else "FAILED"
    print(
        f"lint-imports: {files} files, {len(violations)} layering "
        f"violations [{status}]"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
