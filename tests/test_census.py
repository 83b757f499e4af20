"""Every public definition in ``src/repro`` has a caller outside the tests.

A public top-level function or class counts as used when some program file
other than its own module names it as a whole word: a module under
``src/repro`` or a script under ``benchmarks/``, ``examples/`` or
``scripts/``.  ``__init__`` re-exports do not count, so a name that only the
tests call fails here and is either deleted with its tests or tied to a
product path.  The allowlist names the few exceptions and why each stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
CALLER_ROOTS = ("src", "benchmarks", "examples", "scripts")

ALLOWED = {
    "check_gradients": "test oracle: every op's gradient test runs against it",
    "pairwise_win_matrix": "test oracle: the ranking engine is held bitwise equal to it",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names the module's code uses (docstrings and comments do not count)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _caller_texts() -> dict[Path, str]:
    texts = {}
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name != "__init__.py" and "tests" not in path.parts[len(REPO.parts):]:
                texts[path] = path.read_text()
    return texts


def test_every_public_definition_has_a_program_caller():
    texts = _caller_texts()
    unused = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text())
        own = _referenced_names(tree)
        for name in _public_definitions(tree):
            if name in ALLOWED or name in own:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in texts.items() if path != module):
                unused.append(f"{module.relative_to(REPO)}: {name}")
    assert not unused, "no program file names:\n" + "\n".join(unused)


def test_allowlist_names_live_definitions():
    defined = {
        name
        for module in PACKAGE.rglob("*.py")
        for name in _public_definitions(ast.parse(module.read_text()))
    }
    assert set(ALLOWED) <= defined
