"""The ``paper-figures`` stage: the Fig. 7-9 ratio sweep, timed per ISA.

:func:`run_suite_with_report` with all five algorithms over all
eighteen programs, one worker and no result cache: a warm cache would
time the cache, not the codecs.  The scale and the suite
seed are fixed so every ratio cell can be checked against the table
committed in ``expected/``; the run seed only permutes the program
order, which changes no ratio.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

from pbench.common import EXPECTED_DIR, StageResult, Tracer, breakdown
from pbench.layers import instrument_compression

ISAS = ("mips", "x86")
#: Suite seed of the committed tables (not the run seed).
SUITE_SEED = 0
#: Scale of each ISA's sweep: the full sweep ``paper-figures`` runs, and
#: the short one the other workloads run.  At equal scale the x86 sweep
#: costs about a seventh of the MIPS one, so it runs larger to measure
#: seconds of work rather than a fraction of one.
FULL_SCALES = {"mips": 0.2, "x86": 0.5}
SHORT_SCALES = {"mips": 0.15, "x86": 0.25}

#: Per-layer names this stage reports from a traced run.
LAYER_SPANS = {
    "workloads.generate_s": "workloads.generate",
    "sadc.mips.build_dictionary_s": "sadc.mips.build_dictionary",
    "sadc.mips.encode_s": "sadc.mips.encode",
    "sadc.x86.build_dictionary_s": "sadc.x86.build_dictionary",
    "sadc.x86.encode_s": "sadc.x86.encode",
    "samc.train_s": "samc.train",
    "samc.encode_s": "samc.encode",
    "baselines.lzw.compress_s": "baselines.lzw.compress",
    "baselines.lzss.tokenize_s": "baselines.lzss.tokenize",
    "baselines.gzipish.compress_s": "baselines.gzipish.compress",
    "baselines.byte_huffman.compress_s": "baselines.byte_huffman.compress",
}


def expected_path(isa: str, scale: float):
    return EXPECTED_DIR / f"figures_{isa}_scale{scale:g}.json"


def program_order(seed: int) -> List[str]:
    """The eighteen programs in a seed-determined order."""
    from repro.workloads.profiles import BENCHMARK_NAMES

    names = list(BENCHMARK_NAMES)
    random.Random(seed).shuffle(names)
    return names


def sweep(isa: str, scale: float, names: Sequence[str]):
    """One figure sweep exactly as ``repro suite --no-cache --jobs 1``."""
    from repro.analysis.experiments import ALL_ALGORITHMS, run_suite_with_report
    from repro.pipeline import NullCache

    return run_suite_with_report(
        isa, ALL_ALGORITHMS, scale=scale, names=names, seed=SUITE_SEED,
        jobs=1, cache=NullCache(),
    )


def ratio_table(rows) -> Dict[str, Dict[str, float]]:
    return {row.benchmark: dict(row.ratios) for row in rows}


def check_table(
    result: StageResult, isa: str, table: Dict[str, Dict[str, float]],
    expected: Dict[str, Dict[str, float]], failures: int,
) -> None:
    """Count every cell that is missing or differs from ``expected``."""
    for benchmark, cells in expected.items():
        for algorithm, ratio in cells.items():
            result.attempted += 1
            got = table.get(benchmark, {}).get(algorithm)
            if got != ratio:
                result.fail(
                    f"{isa}/{benchmark}/{algorithm}: ratio {got!r}, "
                    f"expected {ratio!r}"
                )
    if failures:  # their cells are missing, so already counted above
        result.note(f"{isa}: {failures} pipeline job(s) failed")


def split_jobs(seed: int, chunks: int) -> List[List[Tuple[str, str]]]:
    """The 36 ``(isa, program)`` sweeps, in the seed's program order,
    cut into ``chunks`` runs of consecutive sweeps whose lengths differ
    by at most one."""
    pairs = [(isa, name) for name in program_order(seed) for isa in ISAS]
    bounds = [len(pairs) * number // chunks for number in range(chunks + 1)]
    return [pairs[bounds[i]:bounds[i + 1]] for i in range(chunks)]


class Figures:
    """The sweep stage, run in chunks by :meth:`sweep_chunk`.

    The eighteen programs on both ISAs (in the seed's order) are split
    into ``chunks`` groups, and each call sweeps the next group.
    ``suite_<isa>_s`` is the sum over the groups: the time of one whole
    sweep, measured in many small pieces spread over the run so that it
    samples the machine's speed across the run instead of a few
    stretches of it.  It is
    CPU time: the sweep runs on one thread, so on an idle machine this
    equals its wall-clock, and time the host takes the CPU away for is
    left out.  Each piece is divided by the host's slowness measured
    right before it (see :mod:`pbench.hostspeed`).  A traced run reports
    each layer's self time (wall-clock) over the whole sweep.
    """

    def __init__(self, seed: int, scales: Dict[str, float], chunks: int,
                 trace: bool) -> None:
        self.scales = scales
        self.chunks = split_jobs(seed, chunks)
        self.expected = {
            isa: json.loads(expected_path(isa, scales[isa]).read_text())
            for isa in ISAS
        }
        self.result = StageResult()
        self.times: Dict[str, List[float]] = {isa: [] for isa in ISAS}
        #: The same times undivided: the base the traced layers' self
        #: times (also undivided) are shares of.
        self.raw_times: Dict[str, List[float]] = {isa: [] for isa in ISAS}
        self.tables: Dict[str, Dict[str, Dict[str, float]]] = {
            isa: {} for isa in ISAS
        }
        self.failures = {isa: 0 for isa in ISAS}
        self.tracers = {isa: Tracer() for isa in ISAS} if trace else None
        self.jobs = 0

    def sweep_chunk(self, number: int, slowness: float = 1.0) -> None:
        for isa in ISAS:
            names = [name for job_isa, name in self.chunks[number]
                     if job_isa == isa]
            if not names:
                continue
            tracer = self.tracers[isa] if self.tracers else Tracer()
            started = time.process_time()
            with instrument_compression(tracer) if self.tracers else (
                nullcontext()
            ), tracer.span("pipeline"):
                rows, report = sweep(isa, self.scales[isa], names)
            elapsed = time.process_time() - started
            self.times[isa].append(elapsed / slowness)
            self.raw_times[isa].append(elapsed)
            self.jobs += report.job_count
            self.tables[isa].update(ratio_table(rows))
            self.failures[isa] += len(report.failures)

    def finish(self) -> StageResult:
        result = self.result
        for isa in ISAS:
            check_table(result, isa, self.tables[isa], self.expected[isa],
                        self.failures[isa])
            result.metrics[f"suite_{isa}_s"] = sum(self.times[isa])
        if self.tracers is None:
            return result
        # Each ISA's tracer only sees its own SADC spans, so summing the
        # two keeps the per-ISA names apart.
        spans = dict(LAYER_SPANS, **{"pipeline.overhead_s": "pipeline"})
        for name, span in spans.items():
            result.layers[name] = sum(
                tracer.self_s(span) for tracer in self.tracers.values()
            )
        result.layers["pipeline.jobs"] = self.jobs
        result.layers["sadc.mips.dictionary_entries"] = self.tracers[
            "mips"
        ].counts.get("sadc.mips.dictionary_entries", 0)
        for isa, tracer in self.tracers.items():
            result.breakdown[f"suite_{isa}_s"] = breakdown(
                sum(self.raw_times[isa]), tracer.top_self()
            )
        return result


def write_expected(isa: str, scale: float) -> None:
    """Regenerate the committed ratio table of ``isa`` at ``scale``."""
    table = ratio_table(sweep(isa, scale, program_order(0))[0])
    expected_path(isa, scale).write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n"
    )
