"""No module under ``src/repro`` keeps a top-level import it never uses.

An AST scan, so it needs no lint package.  A name counts as used when it
appears in code or in a string annotation (``"PathMatrixAnalysis | None"``);
a word in a docstring or comment does not.  Package ``__init__`` modules
re-export what they import and are skipped, as is any import line marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each top-level import of ``source`` never used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = used_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_scan_tells_code_and_annotations_from_docstrings():
    source = (
        '"""Mentions Path and Counter in prose only."""\n'
        "from __future__ import annotations\n"
        "import os\n"
        "from pathlib import Path\n"
        "from collections import Counter, OrderedDict\n"
        "from typing import Iterator  # noqa: F401\n"
        "def f(x: 'OrderedDict[str, int] | None') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["4: Path", "5: Counter"]


def test_src_has_no_unused_imports():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = {}
    for path in paths:
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert not found, f"unused imports: {found}"
