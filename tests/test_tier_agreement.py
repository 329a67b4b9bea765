"""Every decode tier gives the same outcome on corrupted input.

The fuzz driver checks that each corrupted artifact round-trips or
raises :class:`CorruptedStreamError`, but only under whichever tier the
environment selects.  Here every seeded raw fault of every fuzz target
decodes under all three tiers:

* reference — ``REPRO_FASTPATH=0``;
* scalar fastpath — batch threshold above any block count;
* lockstep batch — ``REPRO_BATCH_MIN=1``.

They must agree exactly: identical output bytes, or
``CorruptedStreamError`` with the same category.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest

from repro.resilience.errors import CorruptedStreamError
from repro.resilience.fuzz import build_targets
from repro.resilience.inject import duplicate_span, sample_fault

TIERS = {
    "reference": {"REPRO_FASTPATH": "0"},
    "scalar": {"REPRO_FASTPATH": "1", "REPRO_BATCH_MIN": "1000000"},
    "batch": {"REPRO_FASTPATH": "1", "REPRO_BATCH_MIN": "1"},
}

TARGETS = ["samc-mips", "sadc-mips", "sadc-x86", "byte-huffman", "lzw", "gzipish"]

#: Seeded raw faults per target (``random.Random(5)``, as the fuzz
#: driver draws them).
FAULTS_PER_TARGET = 32


@contextmanager
def _env(overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _outcomes(target, data):
    outcomes = {}
    for tier, overrides in TIERS.items():
        with _env(overrides):
            try:
                outcomes[tier] = ("ok", target.decode(data))
            except CorruptedStreamError as error:
                outcomes[tier] = ("corrupt", error.category)
    return outcomes


@pytest.fixture(scope="module")
def targets():
    return {target.name: target for target in build_targets()}


def test_targets_cover_the_fuzz_driver(targets):
    assert sorted(targets) == sorted(TARGETS)


@pytest.mark.parametrize("name", TARGETS)
def test_tiers_agree_on_seeded_faults(targets, name):
    target = targets[name]
    rng = random.Random(5)
    for _ in range(FAULTS_PER_TARGET):
        fault, data = sample_fault(rng, target.data)
        outcomes = _outcomes(target, data)
        assert len(set(outcomes.values())) == 1, (name, fault, outcomes)


def test_samc_batch_reads_zeros_past_its_block(targets):
    # A duplicated span leaves a block whose range decoder renormalises
    # far past its payload: every tier must read zeros there, never the
    # next block's bytes or past the batch buffer.
    target = targets["samc-mips"]
    outcomes = _outcomes(target, duplicate_span(target.data, 1222, 12))
    assert outcomes["batch"] == outcomes["reference"] == outcomes["scalar"]
    assert outcomes["batch"][0] == "ok"
