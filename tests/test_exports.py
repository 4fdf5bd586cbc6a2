"""Every name a qortho module exports exists.

``from module import *`` raises AttributeError on a stale ``__all__``
entry, so a deleted function that is still listed fails here.
"""

import importlib
import pkgutil

import pytest

import qortho

MODULES = ["qortho"] + [f"qortho.{m.name}" for m in pkgutil.iter_modules(qortho.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_yields_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert [n for n in exported if n not in namespace] == []
