"""Tests of the benchmark itself: metric names, checks, determinism.

    python -m pytest perfbench/tests -q

The two end-to-end runs at the bottom take about half a minute each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from pbench import figures, refill, serve  # noqa: E402
from pbench.common import StageResult, require_repo  # noqa: E402

require_repo()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# -- planted wrong outputs ----------------------------------------------------

def _expected(isa):
    path = figures.expected_path(isa, figures.SHORT_SCALES[isa])
    return json.loads(path.read_text())


def test_altered_ratio_is_a_failure():
    expected = _expected("x86")
    table = json.loads(json.dumps(expected))
    table["gcc"]["SADC"] += 1e-12
    result = StageResult()
    figures.check_table(result, "x86", table, expected, 0)
    assert result.attempted == 18 * 5
    assert (result.failed, result.wrong) == (1, 1)


def test_missing_ratio_is_a_failure():
    expected = _expected("mips")
    table = json.loads(json.dumps(expected))
    del table["go"]["gzip"]
    result = StageResult()
    figures.check_table(result, "mips", table, expected, 1)
    assert result.failed == 1


def test_served_failures_show_in_success_rate():
    import run

    cells = StageResult(attempted=180)
    passes = StageResult(attempted=60)
    served = StageResult(attempted=3000, failed=1500)
    assert run.success_rate([cells, passes, served]) == 0.5
    passes.failed = 3
    assert run.success_rate([cells, passes]) == 0.95


@pytest.fixture(scope="module")
def refill_inputs():
    return refill.setup(7)


def test_wrong_fetched_word_is_a_failure(refill_inputs):
    words = list(refill_inputs.words["compress"])
    address = refill_inputs.streams["compress"][0][0]
    words[address >> 2] ^= 1
    image = refill_inputs.images[("compress", "sadc")]
    _, _, wrong = refill.run_pass(
        image, words, refill_inputs.streams["compress"][0][:50], []
    )
    assert wrong >= 1
    _, _, clean = refill.run_pass(
        image, refill_inputs.words["compress"],
        refill_inputs.streams["compress"][0][:50], [],
    )
    assert clean == 0


def test_committed_refill_counts_hold(refill_inputs):
    result = StageResult()
    layers = refill.check_counts(refill_inputs, result)
    assert result.failed == 0, result.errors
    assert layers["memory.refills"] > 0


def _reply(client, window, unit_index, payload):
    from repro.service.protocol import STATUS_OK, Response

    request_id = next(client.ids)
    window.pending[request_id] = (unit_index, 0.0, 0.0)
    client._on_reply(Response(
        op=client.units[unit_index].op, status=STATUS_OK,
        request_id=request_id, payload=payload,
    ), 0.001)


@pytest.fixture(scope="module")
def units():
    return serve.build_units()


def test_flipped_reply_byte_is_a_failure(units):
    from repro.baselines.gzipish import gzipish_compress

    client = serve.Client(units, trace=False)
    window = serve.Window("test", 1.0, True)
    client.window = window
    labels = [unit.label for unit in units]
    decompress = labels.index("gzipish-d")
    flipped = bytearray(units[decompress].original)
    flipped[10] ^= 0x40
    _reply(client, window, decompress, units[decompress].original)
    _reply(client, window, decompress, bytes(flipped))
    assert (window.ok, window.wrong) == (1, 1)

    compress = labels.index("gzipish-c")
    good = gzipish_compress(units[compress].original)
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    _reply(client, window, compress, good)
    _reply(client, window, compress, bytes(bad))
    assert client.check_compressed() == 1


# -- host speed ---------------------------------------------------------------

def test_host_slowness_is_probed_per_stage():
    from pbench import hostspeed

    host = hostspeed.Host({"sweep": [None], "serve": [None, None]})
    assert 0 < host.slowness("sweep") < 100
    host.slowness("serve")
    host.slowness("serve")
    assert set(host.summary()) == {"sweep", "serve"}
    assert len(host.probes["serve"]) == 2


def test_latencies_are_divided_by_host_slowness(units):
    client = serve.Client(units, trace=False)
    window = serve.Window("test", 1.0, True)
    client.window = window
    client.slowness = 2.0
    health = [unit.label for unit in units].index("health")
    _reply(client, window, health, b"")  # 1 ms after its due time
    assert window.latencies_ms == [pytest.approx(0.5)]


def test_sweep_jobs_cover_every_program_once():
    chunks = figures.split_jobs(3, 24)
    jobs = [job for chunk in chunks for job in chunk]
    assert len(jobs) == 36 and len(set(jobs)) == 36
    assert {len(chunk) for chunk in chunks} == {1, 2}


# -- determinism in the seed --------------------------------------------------

def test_inputs_are_deterministic_in_the_seed(refill_inputs):
    assert figures.program_order(3) == figures.program_order(3)
    assert figures.program_order(3) != figures.program_order(4)
    assert refill.setup(7).streams == refill_inputs.streams
    assert refill.setup(8).streams != refill_inputs.streams
    units = serve.build_units()
    assert units == serve.build_units()
    assert serve.schedule(5, 100.0, 2.0, units) == serve.schedule(
        5, 100.0, 2.0, units
    )
    assert serve.schedule(5, 100.0, 2.0, units) != serve.schedule(
        6, 100.0, 2.0, units
    )


def test_schedule_keeps_the_mix_proportions(units):
    plan = serve.schedule(1, 200.0, 1.0, units)
    assert len(plan) == 200
    counts = [0] * len(units)
    for _, index in plan:
        counts[index] += 1
    assert counts == [unit.weight * 10 for unit in units]


def test_compare_refuses_different_tiers():
    import compare

    base = {"stamp": {"tier": {"fastpath_enabled": True, "env": {}}},
            "workload": "refill", "trace": False,
            "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    other = json.loads(json.dumps(base))
    other["stamp"]["tier"]["env"]["REPRO_FASTPATH"] = "0"
    assert compare.compare([base], [other], SPEC)[1] == 2
    assert compare.compare([base, other], [base], SPEC)[1] == 2
    slower = json.loads(json.dumps(base))
    slower["metrics"]["setup_s"]["value"] = 2.0
    assert compare.compare([base], [slower], SPEC)[1] == 1
    # Medians: one slow run among three is not a regression.
    assert compare.compare([base], [base, slower, base], SPEC)[1] == 0
    assert compare.compare([base], [base], SPEC)[1] == 0


# -- whole runs ---------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "refill",
         "--seed", "1", "--seconds", "6", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed
    }
