"""Run the repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload refill --seed 3 --seconds 30 --trace 0

Every run executes all three stages -- the Fig. 7-9 sweep, the
decompress-on-miss refill stream, and the served request mix -- so
every end-to-end metric is measured on every workload.  The workload
names the stage that runs at full size (see ``README.md``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public calls in spans and reports the per-layer metrics.  The
last line of standard output is the result object; progress, the
environment stamp and the traced-run report go to standard error, and
the full document is written under ``perfbench/out/``.  The exit code
is non-zero when any output is wrong or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench.common import (  # noqa: E402
    OUT_DIR,
    SetupError,
    StageResult,
    Tracer,
    breakdown,
    median,
    metric_units,
    require_repo,
)

WORKLOADS = ("paper-figures", "refill")
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: The stages run interleaved in this many rounds, so that every metric
#: samples the whole run rather than a few stretches of it (the
#: machine's speed drifts by 10-20% over seconds).
ROUNDS = 24
#: Seconds of refill stream as a share of ``--seconds``, on the
#: ``refill`` workload and on the other; seconds of served mix, on both.
REFILL_SHARE = {"focus": 0.5, "other": 0.3}
SERVE_SHARE = 0.7


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def setup(seed: int, trace: bool, cleanup: ExitStack, host, daemon_cpus):
    """Build every stage's inputs ``SETUP_REPEATS`` times.

    Returns the last inputs, the median set-up seconds (each divided by
    the host's slowness), the median undivided, and the last
    repetition's tracer.  Earlier daemons are stopped at once; every
    daemon is also registered with ``cleanup``, which stops it however
    the run ends.
    """
    from pbench import refill, serve
    from pbench.layers import instrument_compression

    times, raw, inputs, tracer = [], [], None, None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            inputs[1].daemon.stop()
        slowness = host.slowness("setup")
        tracer = Tracer()
        started = time.perf_counter()
        with instrument_compression(tracer) if trace else nullcontext():
            refill_inputs = refill.setup(seed)
            with tracer.span("service.setup"):
                serve_inputs = serve.setup(daemon_cpus)
            cleanup.callback(serve_inputs.daemon.stop)
        raw.append(time.perf_counter() - started)
        times.append(raw[-1] / slowness)
        inputs = (refill_inputs, serve_inputs)
    return inputs, median(times), median(raw), tracer


def success_rate(stages) -> float:
    """The worst stage's share of operations that succeeded, so that a
    stage with few operations (the served requests) is not drowned by
    one with many."""
    return min(1.0 - stage.failed / stage.attempted for stage in stages)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        cleanup: ExitStack) -> dict:
    from pbench import envstamp, figures, hostspeed, refill, serve

    require_repo()
    stamp = envstamp.stamp()
    log(f"env {json.dumps(stamp, sort_keys=True)}")
    # This process keeps off the daemon's CPU, so each stage runs on the
    # CPU its host-speed probe measured, and the generator's own work
    # never runs on the server's CPU.
    daemon_cpus, client_cpus = serve.cpu_split()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    host = hostspeed.Host({
        "setup": [client_cpus, daemon_cpus],
        "sweep": [client_cpus],
        "refill": [client_cpus],
        "serve": [client_cpus, daemon_cpus],
    })

    inputs, setup_s, raw_setup_s, setup_tracer = setup(
        seed, trace, cleanup, host, daemon_cpus
    )
    refill_inputs, serve_inputs = inputs
    log(f"setup {setup_s:.3f}s (median of {SETUP_REPEATS})")
    try:
        sweeps = figures.Figures(
            seed,
            figures.FULL_SCALES if workload == "paper-figures"
            else figures.SHORT_SCALES,
            ROUNDS, trace,
        )
        fetches = refill.Refill(refill_inputs, trace)
        refill_s = seconds * REFILL_SHARE[
            "focus" if workload == "refill" else "other"
        ]
        served = serve.Serve(serve_inputs, seed, trace)
        for number in range(ROUNDS):
            sweeps.sweep_chunk(number, host.slowness("sweep"))
            fetches.run_for(refill_s / ROUNDS, host.slowness("refill"))
            served.run_slice(number, ROUNDS, SERVE_SHARE * seconds,
                             host.slowness("serve"))
            log(f"round {number + 1} of {ROUNDS} done")
        results = [sweeps.finish(), fetches.finish(), served.finish()]
    finally:
        serve_inputs.daemon.stop()
    total = StageResult()
    for part in results:
        total.merge(part)
    total.metrics["setup_s"] = setup_s
    total.metrics["peak_rss_mb"] = peak_rss_mb()
    total.metrics["success_rate"] = success_rate(results)
    if trace:
        total.layers["workloads.generate_s"] += setup_tracer.self_s(
            "workloads.generate"
        )
        total.breakdown["setup_s"] = breakdown(
            raw_setup_s, setup_tracer.top_self()
        )
    log("host slowness by stage " + json.dumps(host.summary()))
    return {"stamp": stamp, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace,
            "slowness": host.summary(), "result": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with ExitStack() as cleanup:
            doc = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), cleanup)
    except SetupError as error:
        log(f"cannot run: {error}")
        return 2
    result: StageResult = doc.pop("result")
    if args.trace:
        from pbench import tracedrun

        result.layers["obs.trace_overhead"] = tracedrun.trace_overhead()
        for line in tracedrun.report_lines(args.workload, result.breakdown):
            log(line)
    kind, source = (
        ("per_layer", result.layers) if args.trace
        else ("end_to_end", result.metrics)
    )
    metrics = {
        name: {"value": source[name], "unit": unit}
        for name, unit in metric_units(kind).items()
    }
    doc.update(attempted=result.attempted, failed=result.failed,
               wrong=result.wrong, errors=result.errors, metrics=metrics,
               breakdown=result.breakdown)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for message in result.errors:
        log(f"note: {message}")
    correct = result.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
