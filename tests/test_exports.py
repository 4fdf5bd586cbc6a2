"""Every name a qortho module exports exists, and every name it imports is used.

``from module import *`` raises AttributeError on a stale ``__all__``
entry, so a deleted function that is still listed fails here.  A
module-level import must be read in its module, listed in ``__all__`` or
named in a quoted annotation, so an import left behind by a deletion
fails here too.  And ``import qortho.cli``, the start of every CLI
request, loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qortho

MODULES = ["qortho"] + [f"qortho.{m.name}" for m in pkgutil.iter_modules(qortho.__path__)]
SOURCES = sorted(Path(qortho.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_yields_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert [n for n in exported if n not in namespace] == []


def _bound_names(node):
    """The names a module-level import binds, each with its statement's line."""
    for alias in node.names:
        yield (alias.asname or alias.name).split(".")[0], node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names read anywhere in the module, including inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module = importlib.import_module(f"qortho.{path.stem}" if path.stem != "__init__" else "qortho")
    exported = set(getattr(module, "__all__", ()))
    used = _used_names(tree)
    unused = [
        (name, line)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name, line in _bound_names(node)
        if name not in used and name not in exported
    ]
    assert unused == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # -S keeps the host's site hooks, which may import anything, out of the result
    probe = "import sys, qortho.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = Path(qortho.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
