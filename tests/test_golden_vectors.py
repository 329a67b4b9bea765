"""Golden compressed-output vectors: bit-exactness pinned forever.

The hex blobs and digests below were produced by the *reference*
implementations (``REPRO_FASTPATH=0``) on a fixed-seed workload
(``generate_benchmark("compress", "mips", scale=0.1, seed=1998)``).
Every test asserts against them under **both** ``REPRO_FASTPATH``
settings, so three properties are pinned at once:

1. the reference coders never drift from their historical output,
2. the fastpath kernels never drift from the reference,
3. the workload generator stays deterministic.

If an intentional format change ever breaks these, regenerate the
vectors with the reference path *and* bump
:data:`repro.fastpath.FASTPATH_VERSION` (or ``CODEC_SCHEMA_VERSION``)
so cached pipeline results are invalidated alongside.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.gzipish import gzipish_compress
from repro.baselines.lzw import lzw_compress
from repro.core.sadc import sadc_compress
from repro.core.samc import SamcCodec
from repro.workloads.suite import generate_benchmark

# -- the fixed-seed workload ------------------------------------------------

WORKLOAD_BYTES = 512

# First 128 bytes of the workload: small enough to check in the full
# compressed payload, byte for byte.
TINY_BYTES = 128

SAMC_TINY = (
    "3e2281d20c50ec64dee2594608b5686609f7f71f0c684f2a5ed0076868acfab9"
    "cb3519bc9f94cc2125fe63"
)
SAMC_BLOCK_LENGTHS = (10, 10, 12, 11)

SADC_TINY = (
    "475f2b8977010455e8bb80822ae1ec3f99002ae109dca867b91e7cf871ecfaee"
    "78208aa86e18"
)
SADC_BLOCK_LENGTHS = (9, 9, 10, 10)

GZIPISH_TINY = (
    "1800628000280003000030000000000000000000018000000530000300003000"
    "0000000000030000000c00180030000000000000000000000003000000000000"
    "0000000300000000000000000000000000000000000000001804000000000000"
    "0000000000000018000000000004318000000000000010060000000000000000"
    "0000300000000000000000003000000000300000000030000000000000000006"
    "30c0601800300003140000000000000000000000000001806018c20000000000"
    "000000000008375b2ea295cc518de26461819b85dc4e675c6aedff5a1fe84783"
    "0aa4dc3cafc95e538deba07783e5ef3b3e6fb0"
)

LZW_TINY = (
    "0000008013af5fed057afc002c57ac0002846970001047af4006c84800080024"
    "3a04311000f21b0f8e45215178cc6e251e22c8225228b462351c1e23e142847c"
    "185901000c006e00002202ff78414000c8a8215eb18b47e20a589c562e4297c9"
    "e940"
)

# SHA-256 of the compressed output over the full 512-byte workload.
SAMC_FULL_DIGEST = "e24723678ed1e0869ddf1abd6a2477184b27152d765734e1fe4a259620d9f4b3"
SADC_FULL_DIGEST = "91543f6a4466122ec12fd3f25b45ddc1013e52728cbdd85c7d14418f0b6bb61e"
GZIPISH_FULL_DIGEST = "d8d66e0e684b06c525d9ff98298ba36ada0f67c59b728cc261611927391bf2cb"
LZW_FULL_DIGEST = "2e8da66834854a434ca37ee3d0a2531ea6ec95e4cb91237f0af8370e64160e8a"

# SADC at dictionary scale: gcc (seed 0) grows the MIPS dictionary to
# its 256-entry cap and the x86 one to 206 entries, so these pin the
# builder's gain tie-breaking and insertion order, which the 512-byte
# workload above never reaches.  Each row: (isa, scale, SHA-256 of the
# compressed blocks, SHA-256 of ``repr(dictionary.entries)``, entries).
SADC_CAP_VECTORS = (
    (
        "mips", 0.2,
        "fa8c90a7fa5441051ce74cea7ba486f66879fd901db44d09fc32e4f0778e5242",
        "fba845d4a3b871f2be1d06993254665ff88099c9dbe4ab8e3c29bef3872af205",
        256,
    ),
    (
        "x86", 0.5,
        "3ac1fcf963b8b5e2981bfae2d9721ae6b39ebf5704c6b8650a17cd412c0d41ef",
        "71ad4dff12daa3a006fa1b0cb36fe0e39c600e5586a8b5dacc59b15fcc15d366",
        206,
    ),
)


@pytest.fixture(scope="module")
def workload() -> bytes:
    code = generate_benchmark("compress", "mips", scale=0.1, seed=1998).code
    assert len(code) == WORKLOAD_BYTES, "workload generator drifted"
    return code


@pytest.fixture(params=["0", "1"], ids=["reference", "fastpath"])
def coding_path(request, monkeypatch) -> str:
    """Run each golden check under both REPRO_FASTPATH settings."""
    monkeypatch.setenv("REPRO_FASTPATH", request.param)
    return request.param


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_samc_golden(coding_path, workload):
    tiny = workload[:TINY_BYTES]
    image = SamcCodec.for_mips().compress(tiny)
    assert tuple(len(block) for block in image.blocks) == SAMC_BLOCK_LENGTHS
    assert b"".join(image.blocks).hex() == SAMC_TINY
    full = SamcCodec.for_mips().compress(workload)
    assert _sha256(b"".join(full.blocks)) == SAMC_FULL_DIGEST
    assert SamcCodec.for_mips().decompress(full) == workload


def test_samc_golden_batch(coding_path, workload, monkeypatch):
    """Batch decode reproduces the pinned vectors under both paths.

    ``REPRO_BATCH_MIN=1`` forces the lockstep vectorised decoder even
    at this tiny block count, so the golden digests pin the batch
    engine too (under ``REPRO_FASTPATH=0`` the batch API is the
    reference per-block loop).
    """
    monkeypatch.setenv("REPRO_BATCH_MIN", "1")
    codec = SamcCodec.for_mips()
    full = codec.compress(workload)
    assert _sha256(b"".join(full.blocks)) == SAMC_FULL_DIGEST
    decoded = codec.decompress_blocks(full, range(full.block_count()))
    assert b"".join(decoded) == workload


def test_sadc_golden(coding_path, workload):
    tiny = workload[:TINY_BYTES]
    image = sadc_compress(tiny, isa="mips")
    assert tuple(len(block) for block in image.blocks) == SADC_BLOCK_LENGTHS
    assert b"".join(image.blocks).hex() == SADC_TINY
    full = sadc_compress(workload, isa="mips")
    assert _sha256(b"".join(full.blocks)) == SADC_FULL_DIGEST


@pytest.mark.parametrize(
    "isa,scale,blocks_digest,dictionary_digest,entries",
    SADC_CAP_VECTORS,
    ids=[row[0] for row in SADC_CAP_VECTORS],
)
def test_sadc_golden_at_cap(
    coding_path, isa, scale, blocks_digest, dictionary_digest, entries
):
    code = generate_benchmark("gcc", isa, scale=scale, seed=0).code
    image = sadc_compress(code, isa=isa)
    dictionary = image.metadata["dictionary"]
    assert len(dictionary.entries) == entries
    assert _sha256(repr(dictionary.entries).encode()) == dictionary_digest
    assert _sha256(b"".join(image.blocks)) == blocks_digest


def test_gzipish_golden(coding_path, workload):
    assert gzipish_compress(workload[:TINY_BYTES]).hex() == GZIPISH_TINY
    assert _sha256(gzipish_compress(workload)) == GZIPISH_FULL_DIGEST


def test_lzw_golden(coding_path, workload):
    assert lzw_compress(workload[:TINY_BYTES]).hex() == LZW_TINY
    assert _sha256(lzw_compress(workload)) == LZW_FULL_DIGEST
