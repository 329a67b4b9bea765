"""The ``refill`` stage: decompress-on-miss through a small I-cache.

Seeded :func:`generate_trace` fetch streams run through
:class:`CompressedFetchPort` over SAMC, SADC-MIPS and byte-Huffman
images of MIPS programs.  Every miss decodes one cache block with the
real codec, so per-block decode dominates; the images (and so every
SADC dictionary) are built in set-up.

Every fetched word is compared with the source program.  The refill
and hit counts of a fixed check stream must equal the committed values
in ``expected/refill.json``, and each seeded stream must give the same
counts through all three codecs (the cache model never sees the codec).
"""

from __future__ import annotations

import json
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

from pbench.common import (
    EXPECTED_DIR,
    StageResult,
    Tracer,
    breakdown,
    median,
    percentile,
)
from pbench.layers import REFILL_DECODE_SPANS, instrument_refill

#: Programs, scale and cache geometry: a 512-byte 2-way I-cache holds
#: 16 blocks, far below either program, so misses are steady.
PROGRAMS = ("compress", "m88ksim")
SCALE = 0.2
CACHE_SIZE = 512
ASSOCIATIVITY = 2
CODECS = ("samc", "sadc", "byte_huffman")
#: Stream shape: loops around the cache's size with few iterations give
#: many loop regions per stream, so the miss rate of a run hardly
#: depends on its seed.
TRACE_SHAPE = {"mean_loop_bytes": 512, "mean_iterations": 2}
#: Fetches per stream, and seeded streams made per program in set-up
#: (more than a run uses, so no stream repeats).
PASS_FETCHES = 4_000
STREAMS = 32
#: The fixed stream whose counts are committed.
CHECK_SEED = 0
CHECK_FETCHES = 5_000
EXPECTED_PATH = EXPECTED_DIR / "refill.json"
#: The block-decode spans (the fourth, decoder construction, nests in them).
DECODE_SPANS = REFILL_DECODE_SPANS[:3]


@dataclass
class RefillInputs:
    """Set-up output: programs, their images, and the seeded streams."""

    words: Dict[str, Tuple[int, ...]]
    images: Dict[Tuple[str, str], object]
    streams: Dict[str, List[List[int]]]


def _codec(label: str):
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.core.sadc import MipsSadcCodec
    from repro.core.samc import SamcCodec

    if label == "samc":
        return SamcCodec.for_mips()
    if label == "sadc":
        return MipsSadcCodec()
    return ByteHuffmanCodec()


def stream_seed(seed: int, program: str, index: int) -> int:
    return seed * 1_000_003 + PROGRAMS.index(program) * 101 + index


def setup(seed: int) -> RefillInputs:
    from repro.memory.trace import generate_trace
    from repro.workloads.suite import generate_benchmark

    words, images, streams = {}, {}, {}
    for program in PROGRAMS:
        code = generate_benchmark(program, "mips", scale=SCALE, seed=0).code
        words[program] = struct.unpack(f">{len(code) // 4}I", code)
        for label in CODECS:
            images[(program, label)] = _codec(label).compress(code)
        streams[program] = [
            list(generate_trace(
                len(code), PASS_FETCHES, seed=stream_seed(seed, program, i),
                **TRACE_SHAPE,
            ))
            for i in range(STREAMS)
        ]
    return RefillInputs(words, images, streams)


def run_pass(image, words, addresses, latencies: List[int]):
    """Fetch every address; returns ``(port, cpu_seconds, wrong_words)``.

    The wall-clock latency of each fetch that caused a refill is
    appended to ``latencies`` in nanoseconds.  The pass itself is timed
    in CPU time, which leaves out time the host takes the CPU away for.
    """
    from repro.memory.fetchsim import CompressedFetchPort

    port = CompressedFetchPort(
        image, cache_size=CACHE_SIZE, associativity=ASSOCIATIVITY
    )
    fetch = port.fetch
    clock = time.perf_counter_ns
    wrong = 0
    refills = 0
    started = time.process_time()
    for address in addresses:
        before = clock()
        word = fetch(address)
        after = clock()
        if port.refills != refills:
            refills = port.refills
            latencies.append(after - before)
        if word != words[address >> 2]:
            wrong += 1
    return port, time.process_time() - started, wrong


def port_counts(port) -> Dict[str, float]:
    return {
        "refills": port.refills,
        "hit_ratio": port.cache.stats.hit_ratio,
        "clb_hit_ratio": port.clb.stats.hit_ratio,
    }


def count_pass(result: StageResult, name: str, problems: List[str]) -> None:
    """Count one stream pass through one image as one operation, failed
    if anything about it was wrong."""
    result.attempted += 1
    if problems:
        result.fail(f"{name}: " + "; ".join(problems))


def check_counts(inputs: RefillInputs, result: StageResult) -> Dict[str, float]:
    """Run the fixed check stream through every image; compare counts."""
    expected = json.loads(EXPECTED_PATH.read_text())
    totals = {"refills": 0, "hits": 0, "fetches": 0, "clb_hits": 0,
              "clb_lookups": 0}
    for program in PROGRAMS:
        words = inputs.words[program]
        addresses = check_stream(words)
        for label in CODECS:
            port, _, wrong = run_pass(
                inputs.images[(program, label)], words, addresses, []
            )
            counts = port_counts(port)
            problems = []
            if wrong:
                problems.append(f"{wrong} wrong words")
            if counts != expected[program]:
                problems.append(
                    f"counts {counts}, expected {expected[program]}"
                )
            count_pass(result, f"{program}/{label}", problems)
        totals["refills"] += port.refills
        totals["hits"] += port.cache.stats.hits
        totals["fetches"] += port.cache.stats.accesses
        totals["clb_hits"] += port.clb.stats.hits
        totals["clb_lookups"] += port.clb.stats.lookups
    return {
        "memory.refills": totals["refills"],
        "memory.hit_ratio": totals["hits"] / totals["fetches"],
        "memory.clb_hit_ratio": totals["clb_hits"] / totals["clb_lookups"],
    }


class Refill:
    """The refill stage, run in slices by :meth:`run_for`.

    Slices walk one seeded pool of streams, alternating programs and
    running each stream through all three images, so every run weighs
    the codecs alike.  Latencies pool over all slices.  A slice's
    latencies and CPU time are divided by the host's slowness measured
    right before it (see :mod:`pbench.hostspeed`).
    """

    def __init__(self, inputs: RefillInputs, trace: bool) -> None:
        self.inputs = inputs
        self.result = StageResult()
        self.layers = check_counts(inputs, self.result)
        self.tracer = Tracer(keep=REFILL_DECODE_SPANS) if trace else None
        self.latencies: List[int] = []
        self.fetches = 0
        self.busy = 0.0
        #: ``busy`` undivided, as the traced decode spans are.
        self.raw_busy = 0.0
        self.cursor = 0
        self.slowness = 1.0

    def run_for(self, seconds: float, slowness: float = 1.0) -> None:
        """Run streams until ``seconds`` have passed (at least one)."""
        self.slowness = slowness
        deadline = time.perf_counter() + seconds
        with instrument_refill(self.tracer) if self.tracer else nullcontext():
            while True:
                program = PROGRAMS[self.cursor % len(PROGRAMS)]
                streams = self.inputs.streams[program]
                index = (self.cursor // len(PROGRAMS)) % len(streams)
                self._cycle(program, streams[index])
                self.cursor += 1
                if time.perf_counter() >= deadline:
                    break

    def _cycle(self, program: str, addresses: List[int]) -> None:
        """One stream through every codec's image of ``program``."""
        result = self.result
        words = self.inputs.words[program]
        seen = None
        for label in CODECS:
            latencies: List[int] = []
            port, elapsed, wrong = run_pass(
                self.inputs.images[(program, label)], words, addresses,
                latencies,
            )
            self.latencies.extend(
                value / self.slowness for value in latencies
            )
            self.busy += elapsed / self.slowness
            self.raw_busy += elapsed
            self.fetches += len(addresses)
            counts = port_counts(port)
            problems = []
            if wrong:
                problems.append(f"{wrong} wrong words")
            if seen is not None and counts != seen:
                problems.append(
                    f"counts {counts} differ from the other codecs' "
                    f"{seen} on one stream"
                )
            count_pass(result, f"{program}/{label}", problems)
            seen = counts

    def finish(self) -> StageResult:
        result = self.result
        result.metrics["refill_p50_us"] = median(self.latencies) / 1e3
        result.metrics["refill_p99_us"] = percentile(self.latencies, 99) / 1e3
        result.metrics["fetches_per_s"] = self.fetches / self.busy
        tracer = self.tracer
        if tracer is None:
            return result
        decode_s = sum(tracer.total_s(name) for name in DECODE_SPANS)
        overhead = self.raw_busy - decode_s
        result.layers.update(self.layers)
        result.layers["memory.fetch_overhead_s"] = overhead
        for name in REFILL_DECODE_SPANS:
            result.layers[f"{name}_us"] = tracer.median_us(name)
        top = sorted(
            tracer.top_self() + [("memory.fetch", overhead)],
            key=lambda item: -item[1],
        )[:3]
        for metric in ("refill_p50_us", "refill_p99_us", "fetches_per_s"):
            result.breakdown[metric] = breakdown(self.raw_busy, top)
        return result


def check_stream(words) -> List[int]:
    """The fixed stream whose refill counts are committed."""
    from repro.memory.trace import generate_trace

    return list(generate_trace(
        len(words) * 4, CHECK_FETCHES, seed=CHECK_SEED, **TRACE_SHAPE
    ))


def write_expected() -> None:
    """Regenerate the committed check-stream counts."""
    inputs = setup(0)
    table = {}
    for program in PROGRAMS:
        words = inputs.words[program]
        port, _, _ = run_pass(
            inputs.images[(program, "samc")], words, check_stream(words), []
        )
        table[program] = port_counts(port)
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
