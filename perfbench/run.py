"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> ...``.

Runs from the root of a checkout and imports the ``repro`` package from
that checkout's ``src/`` only; anywhere else it exits with an error
before measuring anything.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro
except ImportError:
    repro = None
if repro is None or Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"error: no repro package under {ROOT / 'src'}; run from a repository checkout")

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
