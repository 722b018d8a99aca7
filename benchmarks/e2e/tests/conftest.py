"""Make ``repro`` and ``benchmarks.e2e`` importable from any cwd."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
