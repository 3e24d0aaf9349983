"""Locate the faskit sources of the checkout the benchmark lives in.

The benchmark measures the program as it stands in this checkout, never a
copy installed elsewhere, so it imports `faskit` from `<checkout>/src`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_sources() -> None:
    """Put `<checkout>/src` first on the import path, or exit with code 2
    when the checkout holds no faskit sources."""
    if not (SRC / "faskit" / "__init__.py").is_file():
        sys.stderr.write(f"authbench: no faskit sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
