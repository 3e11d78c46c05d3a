"""The package export lists name only what exists.

A function deleted from a module must leave every ``__all__`` that lists it
too; otherwise ``from repro.core import *`` fails at import time.  Each
``repro`` module with an ``__all__`` is its own case, so a stale name fails
under that module's id.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules_with_export_lists():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module_name", _modules_with_export_lists())
def test_exported_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], module_name
