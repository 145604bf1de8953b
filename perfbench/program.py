"""Import the droptrack under test from the checkout's own ``src/``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("pipeline", "tracker", "metrics", "geometry", "cli")


class MissingProgram(Exception):
    """The checkout holds no droptrack sources to measure."""


def import_droptrack() -> dict:
    """Return droptrack's modules by short name, loaded from ``SRC``.

    Refuses a droptrack found anywhere else (an installed copy), so the
    benchmark never measures another version of the program.
    """
    if not (SRC / "droptrack" / "__init__.py").is_file():
        raise MissingProgram(f"no droptrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("droptrack")
    if Path(package.__file__).resolve().parent != SRC / "droptrack":
        raise MissingProgram(f"droptrack imported from {package.__file__}, "
                             f"not from {SRC}")
    return {name: importlib.import_module(f"droptrack.{name}") for name in MODULES}
