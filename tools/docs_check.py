#!/usr/bin/env python
"""Documentation checks: wire-format doctests + markdown link check.

Run via ``make docs-check`` (CI's docs job).  Three guarantees:

1. ``docs/WIRE_FORMAT.md`` is executable truth — every ``>>>`` example
   in it runs against the live library, so the byte-level spec cannot
   drift from the implementation without failing.
2. No internal markdown link in ``docs/`` or ``README.md`` points at a
   file that does not exist (anchors are checked for file existence
   only; external http(s)/mailto links are skipped — no network in CI).
3. No docstring or comment under ``src/``, ``benchmarks/*.py`` or
   ``examples/`` names a ``*.md`` file the repository does not have.
"""

from __future__ import annotations

import doctest
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files whose internal links must resolve.
LINKED_FILES = ["README.md", "ROADMAP.md"]

#: Markdown files whose ``>>>`` examples must pass.
DOCTEST_FILES = ["docs/WIRE_FORMAT.md"]

#: ``[text](target)`` — good enough for these docs (no nested brackets).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def run_doctests() -> int:
    failures = 0
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    for relative in DOCTEST_FILES:
        path = os.path.join(REPO_ROOT, relative)
        result = doctest.testfile(
            path, module_relative=False, verbose=False,
            optionflags=doctest.ELLIPSIS,
        )
        status = "ok" if result.failed == 0 else "FAILED"
        print(
            f"doctest {relative}: {result.attempted} examples, "
            f"{result.failed} failures [{status}]"
        )
        failures += result.failed
    return failures


def iter_markdown_files():
    for relative in LINKED_FILES:
        path = os.path.join(REPO_ROOT, relative)
        if os.path.exists(path):
            yield path
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                yield os.path.join(docs_dir, name)


def check_links() -> int:
    failures = 0
    checked = 0
    for path in iter_markdown_files():
        base = os.path.dirname(path)
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure in-page anchor
            checked += 1
            resolved = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(resolved):
                failures += 1
                print(
                    f"BROKEN LINK in {os.path.relpath(path, REPO_ROOT)}: "
                    f"{match.group(1)} -> {resolved}"
                )
    print(f"link check: {checked} internal links, {failures} broken")
    return failures


#: A ``*.md`` file name in source text, with its path if one is given.
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def iter_source_files():
    for directory, _dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith(".py"):
                yield os.path.join(directory, name)
    for relative in ("benchmarks", "examples"):
        directory = os.path.join(REPO_ROOT, relative)
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def check_source_mentions() -> int:
    """Every ``*.md`` a source file mentions must exist: at the path
    given (from the repo root or beside the file), or by bare name at
    the repo root or in ``docs/``."""
    failures = 0
    checked = 0
    for path in iter_source_files():
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
        for mention in sorted(set(_MD_NAME.findall(text))):
            checked += 1
            bases = [REPO_ROOT, os.path.dirname(path)]
            if "/" not in mention:
                bases.append(os.path.join(REPO_ROOT, "docs"))
            if not any(
                os.path.exists(os.path.join(base, mention)) for base in bases
            ):
                failures += 1
                print(
                    f"DANGLING DOC NAME in "
                    f"{os.path.relpath(path, REPO_ROOT)}: {mention}"
                )
    print(f"source mentions: {checked} *.md names, {failures} dangling")
    return failures


#: ``| `0x48` | `H` | HELLO | ... |`` — one §2.1 table row.
_KIND_ROW = re.compile(
    r"^\|\s*`0x([0-9A-Fa-f]{2})`\s*\|\s*`(.+?)`\s*\|\s*([A-Z]+(?:-[A-Z]+)*)\s*\|"
)


def check_message_kinds() -> int:
    """Cross-check WIRE_FORMAT.md §2.1 against ``transport.MSG_*``.

    The doctests pin individual byte sequences; this pins the *table*:
    every ``MSG_*`` constant must appear in §2.1 with its exact byte
    value and ASCII mnemonic, and every table row must name a constant
    that exists — so adding a kind without spec'ing it (or spec'ing one
    that was never implemented) fails the docs job.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.parallel import transport

    path = os.path.join(REPO_ROOT, "docs", "WIRE_FORMAT.md")
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    match = re.search(
        r"### 2\.1 Message kinds\n(.*?)\n### ", text, re.DOTALL
    )
    if match is None:
        print("MESSAGE KINDS: section 2.1 not found in WIRE_FORMAT.md")
        return 1
    # Keyed by byte value: the table's "name" column is the protocol
    # name (REPLY, QUIT), which legitimately differs from the constant
    # suffix (MSG_LEVEL_REPLY, MSG_SHUTDOWN) — the byte and its ASCII
    # mnemonic are what must not drift.
    documented = {}
    for line in match.group(1).splitlines():
        row = _KIND_ROW.match(line.strip())
        if row is not None:
            documented[int(row.group(1), 16)] = (row.group(2), row.group(3))
    implemented = {
        getattr(transport, name): name
        for name in dir(transport)
        if name.startswith("MSG_")
    }
    failures = 0
    for value, constant in sorted(implemented.items()):
        if value not in documented:
            failures += 1
            print(
                f"MESSAGE KINDS: transport.{constant} (0x{value:02X} "
                f"`{chr(value)}`) is not documented in WIRE_FORMAT.md "
                f"section 2.1"
            )
            continue
        ascii_char, doc_name = documented[value]
        if ascii_char != chr(value):
            failures += 1
            print(
                f"MESSAGE KINDS: {doc_name} (0x{value:02X}) documented "
                f"with mnemonic `{ascii_char}` but that byte is "
                f"`{chr(value)}`"
            )
    for value in sorted(set(documented) - set(implemented)):
        failures += 1
        print(
            f"MESSAGE KINDS: section 2.1 documents "
            f"{documented[value][1]} (0x{value:02X}) but transport has "
            f"no MSG_* constant with that value"
        )
    print(
        f"message kinds: {len(documented)} documented, "
        f"{len(implemented)} implemented, {failures} mismatches"
    )
    return failures


def main() -> int:
    failures = (
        run_doctests() + check_links() + check_source_mentions()
        + check_message_kinds()
    )
    if failures:
        print(f"docs check FAILED ({failures} problems)")
        return 1
    print("docs check OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
