"""Every public definition in ``src/repro`` has a caller outside the tests.

A public top-level function or class, or a public method of a public
top-level class, counts as used when its own module's code names it or some
other program file names it as a whole word: a module under ``src/repro``
or a script under ``benchmarks/``, ``examples/`` or ``scripts/``.
``__init__`` re-exports do not count, so a name that only the tests call
fails here and is either deleted with its tests or tied to a product path.
The allowlist names the few exceptions (methods as ``Class.method``) and why
each stays.
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
    "RankingEngine.cached_candidates": (
        "test probe: TestEncoderForwardCounts inspects the embedding cache with it"
    ),
    "RankingEngine.clear_cache": (
        "the invalidation hook the module docstring and docs/comparator.md name "
        "for a comparator whose weights change under a live engine"
    ),
    "TrainResult.epochs_trained": "test probe: the early-stopping restore test reads it",
    "CorruptionResult.corrupted_fraction": "test probe: the injector tests read it",
    "StandardScaler.fit_transform": "test probe: the scaler round-trip tests use it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """``(allowlist key, name)`` of each public top-level function and class
    and of each public method of a public top-level class."""
    found = []
    for node in tree.body:
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{method.name}", method.name)
                for method in node.body
                if isinstance(method, _FUNCTIONS) and not method.name.startswith("_")
            ]
    return found


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
        for key, name in _public_definitions(tree):
            if key in ALLOWED or name in own:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in texts.items() if path != module):
                unused.append(f"{module.relative_to(REPO)}: {key}")
    assert not unused, "no program file names:\n" + "\n".join(unused)


def test_allowlist_names_live_definitions():
    defined = {
        key
        for module in PACKAGE.rglob("*.py")
        for key, _ in _public_definitions(ast.parse(module.read_text()))
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
