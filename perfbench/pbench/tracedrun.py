"""The tracing overhead, and the traced report.

The traced report names, for each end-to-end metric, the three layers
with the largest self time in the traced run, each with the base time
its share is taken of.
"""

from __future__ import annotations

import time
from typing import Dict, List

from pbench.common import Tracer, median, metric_units


#: Scale of the x86 sweeps the tracing overhead is measured on.
OVERHEAD_SCALE = 0.15


def trace_overhead(pairs: int = 3) -> float:
    """Relative slow-down the span wrappers add to the short x86 sweep.

    Untraced and traced sweeps alternate; the result is the ratio of
    their medians minus one.
    """
    from pbench.figures import program_order, sweep
    from pbench.layers import instrument_compression

    names = program_order(0)
    plain: List[float] = []
    traced: List[float] = []
    for _ in range(pairs):
        started = time.perf_counter()
        sweep("x86", OVERHEAD_SCALE, names)
        plain.append(time.perf_counter() - started)
        with instrument_compression(Tracer()):
            started = time.perf_counter()
            sweep("x86", OVERHEAD_SCALE, names)
            traced.append(time.perf_counter() - started)
    return median(traced) / median(plain) - 1.0


def report_lines(workload: str, breakdowns: Dict[str, dict]) -> List[str]:
    """One line per end-to-end metric: its top layers by self time."""
    lines = [f"traced run, workload {workload}: top layers by self time"]
    for metric in metric_units("end_to_end"):
        cell = breakdowns.get(metric)
        if cell is None:
            lines.append(f"  {metric}: not a time; no layer breakdown")
            continue
        parts = [
            f"{item['layer']} {item['self_s']:.4f}s "
            f"({100 * item['share']:.1f}% of {cell['base_s']:.4f}s)"
            for item in cell["top"]
        ]
        lines.append(f"  {metric}: " + "; ".join(parts))
    return lines
