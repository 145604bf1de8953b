"""The benchmark's traced pass finds every call boundary it patches.

`perfbench/spans.py` replaces program functions by (module, attribute)
name, so renaming or moving one of them breaks the traced pass. This test
resolves each name the same way, so such a change fails here too.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import spans  # noqa: E402


@pytest.mark.parametrize("module, path", [*spans.TRACED, spans.OVERLAP])
def test_trace_point_resolves(module, path):
    owner = importlib.import_module(f"droptrack.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
