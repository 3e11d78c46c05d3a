"""The package export lists name only what exists.

A function deleted from a module must leave its package's ``__all__`` too;
otherwise ``from repro.core import *`` fails at import time.
"""

from __future__ import annotations

import repro
from repro import analysis, core


def test_exported_names_resolve():
    for module in (repro, core, analysis):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
