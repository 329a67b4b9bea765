"""The served-mix stage: a ``repro serve`` daemon under open-loop load.

The daemon runs as its own process with one executor thread per CPU.
One client process drives it over at most one connection per CPU.
Requests are pipelined: each is written when it falls due, whatever is
still in flight, so a slow server faces a growing queue instead of a
politely slower client.  Latency is timed from each request's due
time, so a stall also charges the requests that were due behind it,
and the generator's own lateness (send time minus due time) is
reported beside it.

``repro loadgen`` is not the load generator here because it times each request from
its actual send and skips missed send slots
(``next_send = max(next_send + interval, now)``): a stall delays the
next sends instead of showing up as latency, so its p99 hides stalls.

The op/codec mix copies ``loadgen.build_workload`` here, so a later
change to loadgen cannot change this stage.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from pbench.common import (
    OUT_DIR,
    REPO_ROOT,
    SRC_DIR,
    SetupError,
    StageResult,
    breakdown,
    cpu_count,
    median,
    percentile,
)

#: (label, op, codec, input, weight), as in ``loadgen.build_workload``.
MIX = (
    ("gzipish-c", "compress", "gzipish", "mips", 5),
    ("gzipish-d", "decompress", "gzipish", "mips", 5),
    ("gzipish-c-x86", "compress", "gzipish", "x86", 2),
    ("lzw-c", "compress", "lzw", "tiny", 2),
    ("lzw-d", "decompress", "lzw", "tiny", 2),
    ("samc-bytes-c", "compress", "samc-bytes", "tiny", 1),
    ("samc-bytes-d", "decompress", "samc-bytes", "tiny", 1),
    ("byte-huffman-d", "decompress", "byte-huffman", "tiny", 1),
    ("health", "health", "", "", 1),
)

#: Offered rates (requests/s) at nominal host speed; each is divided by
#: the host's slowness when offered (see ``Serve.run_slice``).  The
#: daemon runs on one CPU.  On a 2-CPU Xeon its knee was about 1,300
#: requests/s of this mix, nominal: identical requests drained together
#: are coded once, so busier queues code less per request, and the knee
#: moves with how requests happen to group.  The ladder brackets the
#: knee; ``LOW_RPS`` and ``HIGH_RPS`` stay well below it, where latency
#: is the service time and not the queue.
LOW_RPS = 60.0
HIGH_RPS = 300.0
LADDER_RPS = (800.0, 1000.0, 1200.0, 1400.0)
#: Latency limit on p99 for a ladder step to count as sustained.
LIMIT_P99_MS = 100.0
#: Shares of the serving time for the two rates and the ladder.
LOW_SHARE = 0.45
HIGH_SHARE = 0.25
LADDER_SHARE = 0.3
#: The ladder is climbed this many times in a run.
CLIMBS = 4
#: Give up on a reply this long after its window's last send.
REPLY_TIMEOUT_S = 20.0
#: In traced runs one request in this many carries a trace id.
TRACE_EVERY = 4
SERVER_SEGMENTS = ("dispatch", "queue_wait", "group_assembly", "codec",
                   "reply")


@dataclass(frozen=True)
class Unit:
    label: str
    op: int
    codec: str
    payload: bytes
    original: bytes  # what a decompress must return / a compress encodes
    weight: int


def build_units() -> List[Unit]:
    """The mix's request templates.

    Payloads come from a fixed program seed, so every run seed prices
    the same bytes; the run seed orders the requests.
    """
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.baselines.gzipish import gzipish_compress
    from repro.baselines.lzw import lzw_compress
    from repro.core.samc import SamcCodec
    from repro.core.serialize import serialize_image
    from repro.service.protocol import OP_COMPRESS, OP_DECOMPRESS, OP_HEALTH
    from repro.workloads.suite import generate_benchmark

    mips = generate_benchmark("compress", "mips", scale=0.3, seed=0).code
    x86 = generate_benchmark("compress", "x86", scale=0.2, seed=0).code
    tiny = mips[: 512 - (512 % 4)]
    inputs = {"mips": mips, "x86": x86, "tiny": tiny, "": b""}
    encoders = {
        "gzipish": gzipish_compress,
        "lzw": lzw_compress,
        "samc-bytes": lambda data: serialize_image(
            SamcCodec.for_bytes().compress(data), framed=False
        ),
        "byte-huffman": lambda data: serialize_image(
            ByteHuffmanCodec().compress(data), framed=False
        ),
    }
    ops = {"compress": OP_COMPRESS, "decompress": OP_DECOMPRESS,
           "health": OP_HEALTH}
    units = []
    for label, op, codec, source, weight in MIX:
        original = inputs[source]
        payload = encoders[codec](original) if op == "decompress" else original
        units.append(Unit(label, ops[op], codec, payload, original, weight))
    return units


def decode_reply(codec: str, data: bytes) -> bytes:
    """Decode a compress reply with the package's public decoders."""
    from repro.baselines.gzipish import gzipish_decompress
    from repro.baselines.lzw import lzw_decompress
    from repro.core import decompress_image
    from repro.core.serialize import deserialize_image

    if codec == "gzipish":
        return gzipish_decompress(data)
    if codec == "lzw":
        return lzw_decompress(data)
    return decompress_image(deserialize_image(data))


def schedule(seed: int, rate: float, seconds: float,
             units: Sequence[Unit]) -> List[Tuple[float, int]]:
    """Evenly spaced arrivals at ``rate`` with a seeded op sequence.

    Returns ``(due offset, unit index)`` pairs.  The sequence is made of
    rounds holding each unit ``weight`` times, each round shuffled by
    the seed, so every window carries the mix's exact proportions.
    """
    rng = random.Random(seed)
    round_ = [index for index, unit in enumerate(units)
              for _ in range(unit.weight)]
    picks: List[int] = []
    count = int(rate * seconds)
    while len(picks) < count:
        rng.shuffle(round_)
        picks.extend(round_)
    return [(number / rate, index)
            for number, index in enumerate(picks[:count])]


# -- the daemon ---------------------------------------------------------------

class Daemon:
    """A ``repro serve`` child process on an ephemeral port.

    ``cpus`` pins the daemon (all its threads) to those CPUs.
    """

    def __init__(self, workers: int, cpus: Optional[Set[int]]) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"daemon-{os.getpid()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC_DIR), env.get("PYTHONPATH")))
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--workers", str(workers)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, cwd=str(REPO_ROOT), env=env,
                preexec_fn=(
                    (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
                ),
            )
        self.host = "127.0.0.1"
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        from repro.service.client import wait_for_service

        deadline = time.monotonic() + timeout
        pattern = re.compile(rb"repro service on [^:\s]+:(\d+)")
        while time.monotonic() < deadline:
            found = pattern.search(self.log_path.read_bytes())
            if found:
                port = int(found.group(1))
                if wait_for_service(self.host, port, timeout=deadline
                                    - time.monotonic()):
                    return port
                break
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise SetupError(
            "daemon did not come up: "
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def stop(self) -> None:
        """Drain and stop the daemon; kill it if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            self.log_path.unlink()
        except FileNotFoundError:
            pass


# -- the open-loop client -----------------------------------------------------

@dataclass
class Window:
    """One paced burst: what was due, and what came back."""

    name: str
    rate: float
    counts_failures: bool
    pending: Dict[int, Tuple[int, float, float]] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    by_label: Dict[str, List[float]] = field(default_factory=dict)
    sent: int = 0
    ok: int = 0
    shed: int = 0  # busy, deadline and timed-out replies
    wrong: int = 0
    #: Seconds from each burst's start to its last send or, if later,
    #: its last reply, summed over bursts, each divided by the host's
    #: slowness (as latencies are).
    elapsed: float = 0.0
    last_reply: float = 0.0
    sent_all: bool = False
    segments_ms: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def achieved_rps(self) -> float:
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0

    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99) if self.latencies_ms else 0.0

    def meets_limit(self) -> bool:
        return (not self.shed and not self.wrong and bool(self.latencies_ms)
                and self.p99_ms() <= LIMIT_P99_MS)


class Client:
    """Pipelined connections plus the reply checks."""

    def __init__(self, units: Sequence[Unit], trace: bool) -> None:
        self.units = list(units)
        self.trace = trace
        self.ids = itertools.count(1)
        self.window: Optional[Window] = None
        self.compressed: Dict[int, Dict[bytes, int]] = {}
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.readers: List[asyncio.Task] = []
        self.errors: List[str] = []
        self.stray = 0  # replies matching no request, or undecodable
        #: The host's slowness, which latencies are divided by.
        self.slowness = 1.0
        self.done: Optional[asyncio.Event] = None

    async def connect(self, host: str, port: int, count: int) -> None:
        """Open ``count`` connections (each :func:`asyncio.run` anew)."""
        self.done = asyncio.Event()
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port)
            self.conns.append((reader, writer))
            self.readers.append(asyncio.ensure_future(self._read(reader)))

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for _, writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        self.conns, self.readers = [], []

    async def _read(self, reader: asyncio.StreamReader) -> None:
        from repro.resilience.errors import CorruptedStreamError
        from repro.service.protocol import decode_response, read_message

        while True:
            try:
                body = await read_message(reader)
                if body is None:
                    return
                response = decode_response(body)
            except CorruptedStreamError as error:
                self.stray += 1  # a broken reply stream is a wrong output
                self._note(f"reply stream broken: {error}")
                return
            self._on_reply(response, time.perf_counter())

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def _on_reply(self, response, now: float) -> None:
        from repro.service.protocol import OP_COMPRESS, STATUS_OK

        window = self.window
        entry = window.pending.pop(response.request_id, None) if window else None
        if entry is None:
            self.stray += 1
            self._note(f"reply for unknown request {response.request_id}")
            return
        index, due, sent = entry
        unit = self.units[index]
        latency = (now - due) * 1e3 / self.slowness
        window.latencies_ms.append(latency)
        window.by_label.setdefault(unit.label, []).append(latency)
        window.last_reply = now
        if response.status != STATUS_OK:
            window.shed += 1
            self._note(f"{window.name}/{unit.label}: status "
                       f"{response.status} {response.message}")
        elif unit.op == OP_COMPRESS:
            seen = self.compressed.setdefault(index, {})
            seen[response.payload] = seen.get(response.payload, 0) + 1
            window.ok += 1
        elif unit.codec and response.payload != unit.original:
            window.wrong += 1
            self._note(f"{window.name}/{unit.label}: wrong payload")
        else:
            window.ok += 1
        annex = response.trace() if response.traced else None
        if annex is not None:
            total_ms = annex["total_ns"] / 1e6
            for segment in annex["segments"]:
                window.segments_ms.setdefault(segment["name"], []).append(
                    segment["dur_ns"] / 1e6
                )
            window.segments_ms.setdefault("client", []).append(
                (now - sent) * 1e3 - total_ms
            )
        if not window.pending and window.sent_all:
            self.done.set()

    async def run_window(self, window: Window, seconds: float,
                         plan: List[Tuple[float, int]]) -> None:
        """Send ``plan`` (a ``seconds``-long burst) and await every reply."""
        from repro.service.protocol import Request, encode_request, pack_message

        self.window = window
        window.sent_all = False
        self.done.clear()
        start = time.perf_counter() + 0.02
        for number, (offset, index) in enumerate(plan):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            unit = self.units[index]
            request_id = next(self.ids)
            traced = self.trace and request_id % TRACE_EVERY == 0
            body = encode_request(Request(
                op=unit.op, request_id=request_id, codec=unit.codec,
                payload=unit.payload, traced=traced,
                trace_id=request_id if traced else 0,
            ))
            _, writer = self.conns[number % len(self.conns)]
            sent = time.perf_counter()
            window.pending[request_id] = (index, due, sent)
            window.late_ms.append((sent - due) * 1e3)
            window.sent += 1
            writer.write(pack_message(body))
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()
        window.sent_all = True
        if window.pending:
            try:
                await asyncio.wait_for(self.done.wait(), REPLY_TIMEOUT_S)
            except asyncio.TimeoutError:
                window.shed += len(window.pending)
                self._note(f"{window.name}: {len(window.pending)} "
                           "replies timed out")
                window.pending.clear()
        window.elapsed += (
            max(seconds, window.last_reply - start) / self.slowness
        )
        self.window = None

    def check_compressed(self) -> int:
        """Decode every distinct compress reply; returns how many are wrong."""
        wrong = 0
        for index, replies in self.compressed.items():
            unit = self.units[index]
            for data, count in replies.items():
                try:
                    good = decode_reply(unit.codec, data) == unit.original
                except Exception as error:  # a corrupt reply is a wrong one
                    good = False
                    self._note(f"{unit.label}: reply does not decode: "
                               f"{type(error).__name__}: {error}")
                if not good:
                    wrong += count
                    self._note(f"{unit.label}: reply decodes wrongly")
        return wrong


# -- the stage ----------------------------------------------------------------

@dataclass
class ServeInputs:
    daemon: Daemon
    units: List[Unit]


def connections() -> int:
    """One per CPU this process may run on (call it once pinned)."""
    return min(cpu_count(), len(MIX))


def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(daemon CPUs, client CPUs)``: one CPU for the daemon, the rest
    for this process, so the generator's own work never runs on the
    server's CPU.  ``(None, None)`` on a single CPU.  Call it before
    this process is pinned to the client CPUs.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return {allowed[-1]}, set(allowed[:-1])


def setup(daemon_cpus: Optional[Set[int]]) -> ServeInputs:
    """Start a daemon on ``daemon_cpus`` (``None``: anywhere) with one
    executor thread per CPU it may use, build the mix, and warm it with
    one of each unit.  More threads than CPUs would only contend for
    the interpreter lock and the CPU."""
    from repro.service.client import ServiceClient

    daemon = Daemon(workers=len(daemon_cpus) if daemon_cpus else cpu_count(),
                    cpus=daemon_cpus)
    try:
        units = build_units()
        with ServiceClient(daemon.host, daemon.port, timeout=60) as client:
            for unit in units:
                client.request(unit.op, unit.codec, unit.payload)
    except BaseException:
        daemon.stop()
        raise
    return ServeInputs(daemon, units)


def max_rps(ladder: Sequence[Window]) -> float:
    """Highest achieved rate meeting the limit, interpolated on p99.

    Between the last step that meets the limit and the first that does
    not, the rate is interpolated where p99 crosses the limit, so the
    figure moves smoothly instead of by whole ladder steps.
    """
    best = None
    for step in ladder:
        if step.meets_limit():
            best = step
            continue
        if best is None:  # even the lowest step misses the limit
            return step.achieved_rps * LIMIT_P99_MS / max(
                step.p99_ms(), LIMIT_P99_MS
            )
        low_p99, high_p99 = best.p99_ms(), step.p99_ms()
        if step.shed or high_p99 <= low_p99:
            return best.achieved_rps
        share = (LIMIT_P99_MS - low_p99) / (high_p99 - low_p99)
        return best.achieved_rps + share * (
            step.achieved_rps - best.achieved_rps
        )
    return best.achieved_rps


@contextmanager
def collector_paused():
    """Pause the collector: a generator pause would be charged to the
    server."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Serve:
    """The served-mix stage, run in slices by :meth:`run_slice`.

    Every slice runs a ``low`` and a ``high`` window, and some slices
    also run one ladder step.  Latencies pool over all slices per window
    kind, so each figure samples the whole run.  The ladder is climbed
    ``CLIMBS`` times, one step per ladder slice, and ``serve.max_rps``
    is the median climb's: the knee moves from climb to climb with how
    requests happen to group, and one host stall during a step fails
    that step.
    """

    def __init__(self, inputs: ServeInputs, seed: int, trace: bool) -> None:
        self.inputs = inputs
        self.seed = seed
        self.client = Client(inputs.units, trace)
        self.low = Window("low", LOW_RPS, True)
        self.high = Window("high", HIGH_RPS, True)
        self.climbs: List[List[Window]] = []
        self.windows_run = 0

    def _run(self, windows: Sequence[Tuple[Window, float]]) -> None:
        async def drive() -> None:
            await self.client.connect(
                self.inputs.daemon.host, self.inputs.daemon.port,
                connections(),
            )
            try:
                for window, seconds in windows:
                    plan = schedule(
                        self.seed * 7919 + self.windows_run,
                        window.rate / self.client.slowness, seconds,
                        self.inputs.units,
                    )
                    self.windows_run += 1
                    await self.client.run_window(window, seconds, plan)
            finally:
                await self.client.close()

        with collector_paused():
            asyncio.run(drive())

    def run_slice(self, number: int, slices: int, seconds: float,
                  slowness: float = 1.0) -> None:
        """Slice ``number`` of ``slices``; ``seconds`` is the whole
        stage's serving time, split between the windows by their shares.
        The ladder's steps run in evenly spaced slices, one step each, so
        its ``CLIMBS`` climbs spread over the whole run.

        ``slowness`` is the host's, measured right before.  The server
        gets the same share of a slower host's capacity: requests are
        offered at each window's rate divided by it, and latencies and
        elapsed time are divided by it, so every figure reads as on the
        host at nominal speed.  (Dividing latencies alone would not do:
        at the same offered rate a slower server is busier, and queueing
        grows faster than its service time.)
        """
        self.client.slowness = slowness
        steps = CLIMBS * len(LADDER_RPS)
        windows = [
            (self.low, LOW_SHARE * seconds / slices),
            (self.high, HIGH_SHARE * seconds / slices),
        ]
        if number * steps // slices != (number - 1) * steps // slices:
            if not self.climbs or len(self.climbs[-1]) == len(LADDER_RPS):
                self.climbs.append([])
            rate = LADDER_RPS[len(self.climbs[-1])]
            step = Window(f"ladder{rate:g}", rate, False)
            self.climbs[-1].append(step)
            windows.append((step, LADDER_SHARE * seconds / steps))
        self._run(windows)

    def finish(self) -> StageResult:
        from repro.service.client import ServiceClient

        result = StageResult()
        client, low, high = self.client, self.low, self.high
        # Only whole climbs count towards the capacity.
        climbs = [climb for climb in self.climbs
                  if len(climb) == len(LADDER_RPS)] or self.climbs
        windows = [low, high] + [step for climb in self.climbs
                                 for step in climb]
        result.wrong = client.check_compressed() + client.stray + sum(
            window.wrong for window in windows
        )
        result.failed = result.wrong + sum(
            window.shed for window in windows if window.counts_failures
        )
        result.attempted = sum(window.sent for window in windows)
        for message in client.errors:
            result.note(message)
        result.metrics.update({
            "serve.low.p50_ms": median(low.latencies_ms),
            "serve.high.p50_ms": median(high.latencies_ms),
        })
        # The tails are stall-bound on a shared host, and the knee moves
        # with how requests group (see README.md), so they are reported
        # per layer, without a bound.
        result.layers["serve.max_rps"] = median(
            [max_rps(climb) for climb in climbs]
        )
        result.layers["serve.low.p99_ms"] = low.p99_ms()
        result.layers["serve.high.p99_ms"] = high.p99_ms()
        late = [value for window in windows for value in window.late_ms]
        result.layers["loadgen.late_p99_ms"] = percentile(late, 99)
        for unit in self.inputs.units:
            samples = low.by_label.get(unit.label, []) + high.by_label.get(
                unit.label, []
            )
            result.layers[f"serve.op.{unit.label}.p50_ms"] = median(samples)
        if not client.trace:
            return result
        segments: Dict[str, List[float]] = {}
        for window in (low, high):
            for name, values in window.segments_ms.items():
                segments.setdefault(name, []).extend(values)
        for name in SERVER_SEGMENTS + ("client",):
            result.layers[f"service.{name}_ms"] = median(segments[name])
        daemon = self.inputs.daemon
        with ServiceClient(daemon.host, daemon.port, timeout=60) as stats_client:
            stats = stats_client.stats()
        registry = stats["registry"]
        lookups = registry["hits"] + registry["trained"]
        result.layers["service.registry_hit_ratio"] = registry["hits"] / lookups
        result.layers["service.batch_size_mean"] = stats["batch"]["mean"]
        counters = stats["counters"]
        grouped = counters.get("service.batch_grouped", 0)
        singleton = counters.get("service.batch_singleton", 0)
        result.layers["service.grouped_share"] = grouped / (grouped + singleton)
        for name, window in (("serve.low", low), ("serve.high", high)):
            sums = sorted(
                ((f"service.{segment}",
                  sum(window.segments_ms.get(segment, [])) / 1e3)
                 for segment in SERVER_SEGMENTS + ("client",)),
                key=lambda item: -item[1],
            )
            traced_total = sum(seconds for _, seconds in sums)
            result.breakdown[f"{name}.p50_ms"] = breakdown(
                traced_total, sums[:3]
            )
        return result
