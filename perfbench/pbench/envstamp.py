"""The environment stamp every result carries.

Two results are comparable only when they ran the same codec tiers:
``fastpath_enabled()`` and every ``REPRO_*`` variable select code paths,
so :func:`tier` collects them and ``compare.py`` refuses a pair whose
tiers differ.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

from pbench.common import cpu_count


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def tier() -> Dict[str, object]:
    """The settings that choose which implementation of a codec runs."""
    from repro.fastpath import fastpath_enabled

    knobs = {
        name: value for name, value in sorted(os.environ.items())
        if name.startswith("REPRO_")
    }
    return {"fastpath_enabled": fastpath_enabled(), "env": knobs}


def stamp() -> Dict[str, object]:
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tier": tier(),
    }
