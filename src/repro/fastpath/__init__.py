"""Hot-path codec kernels (the performance layer).

The reference implementations in :mod:`repro.core` and
:mod:`repro.baselines` are written for clarity: bit-at-a-time loops over
Python objects, one method call per coded bit.  This package holds the
*fast paths* — table-compiled, batch-oriented rewrites of the same
algorithms that are **bit-identical by construction and by test**:

* :mod:`repro.fastpath.samc_kernel` — compiles a frozen
  :class:`~repro.core.samc.model.SamcModel` into flat integer tables,
  vectorises training with :func:`numpy.bincount`, and fuses the Markov
  walk with the range coder into single tight loops.
* :mod:`repro.fastpath.lz_kernel` — memoryview/chunked match extension
  for LZSS and integer-keyed dictionary lookups for LZW.
* :mod:`repro.fastpath.huffman_kernel` — lockstep batch byte-Huffman
  decode over :class:`~repro.entropy.huffman.HuffmanDecoder`'s table.

Selection is dynamic: every dispatch site calls :func:`fastpath_enabled`
so the environment variable ``REPRO_FASTPATH=0`` is an *escape hatch*
that reinstates the reference implementations at any point, even
mid-process (the differential tests flip it per-case); the lockstep
batch kernels engage from :func:`batch_min` blocks up.  The reference
code is the oracle — golden-vector and hypothesis differential tests pin
the two paths to byte equality.

``FASTPATH_VERSION`` tags the pipeline's codec-config fingerprints
(:mod:`repro.pipeline.fingerprint`): bump it if a kernel change could
ever alter coded output, so cached results from older kernels are
orphaned rather than served.
"""

from __future__ import annotations

import os

#: Version of the fastpath kernels, folded into pipeline fingerprints.
#: The kernels are bit-identical to the reference today, so this only
#: needs bumping if that ever stops being true — but the tag means a
#: stale cache can never silently mix kernel generations.
FASTPATH_VERSION = 1


#: Measured crossover below which the lockstep batch kernels lose to the
#: scalar loops (each numpy call costs ~1µs regardless of batch size).
DEFAULT_BATCH_MIN = 96


def fastpath_enabled() -> bool:
    """True unless the ``REPRO_FASTPATH=0`` escape hatch is set.

    Read from the environment on every call (it is one dict lookup) so
    tests and CI can flip paths without re-importing anything.
    """
    return os.environ.get("REPRO_FASTPATH", "1") != "0"


def batch_min() -> int:
    """Batch size at which the lockstep kernels engage.

    ``REPRO_BATCH_MIN`` overrides the measured default — set it to ``1``
    to force the vectorised path (the differential tests do, so small
    ragged batches exercise the lockstep code), or very high to pin the
    scalar loops.
    """
    raw = os.environ.get("REPRO_BATCH_MIN")
    if raw is None:
        return DEFAULT_BATCH_MIN
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_BATCH_MIN


__all__ = ["DEFAULT_BATCH_MIN", "FASTPATH_VERSION", "batch_min",
           "fastpath_enabled"]
