"""Locate the checkout the benchmark runs from and import keyswap from its source."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit with 1.

    The benchmark measures the code in this checkout, never an installed
    copy, so a checkout without ``src/keyswap`` is an error.
    """
    if not os.path.isfile(os.path.join(SRC, "keyswap", "__init__.py")):
        raise SystemExit(f"perfbench: no keyswap source under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def check_imported_from_checkout(module) -> None:
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: keyswap imported from {module.__file__}, not from {SRC}")
