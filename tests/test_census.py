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


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import statement."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names the code reads, including those inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_every_import_is_used():
    unused = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text())
        loaded = _loaded_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in loaded:
                unused.append(f"{module.relative_to(REPO)}:{line}: {name}")
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_unused_import_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .runtime import Checkpoint\n"
        "def f(c: 'Checkpoint | None') -> None:\n"
        "    return TYPE_CHECKING\n"
    )
    loaded = _loaded_names(tree)
    assert [n for n in _imported_names(tree) if n not in loaded] == ["np"]
