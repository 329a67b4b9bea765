"""Regenerate the committed expected outputs under ``expected/``.

    python3 perfbench/make_expected.py

Run it only at a commit whose outputs are known to be right: every
later run is checked against these files.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench import figures, refill  # noqa: E402
from pbench.common import require_repo  # noqa: E402

if __name__ == "__main__":
    require_repo()
    for scales in (figures.FULL_SCALES, figures.SHORT_SCALES):
        for isa, scale in scales.items():
            figures.write_expected(isa, scale)
    refill.write_expected()
