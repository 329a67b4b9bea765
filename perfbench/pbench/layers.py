"""Traced-run instrumentation: spans around each layer's public calls.

Only the traced run (``--trace 1``) installs these wrappers, and it
removes them before the stage returns; the untraced run calls the
package exactly as a user would.  Wrapping happens here, from the
benchmark's own files, so the package itself carries no benchmark
tracing.
"""

from __future__ import annotations

from pbench.common import Patches, Tracer

#: Per-call samples kept for medians (the rest keep sums only).
REFILL_DECODE_SPANS = (
    "refill.samc.decode",
    "refill.sadc.decode",
    "refill.byte_huffman.decode",
    "entropy.huffman.decoder_build",
)


def instrument_compression(tracer: Tracer) -> Patches:
    """Spans for the figure sweep: generation, codecs, baselines."""
    from repro.analysis import experiments
    from repro.baselines import gzipish, lzss, lzw
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.core.sadc import MipsSadcCodec, X86SadcCodec
    from repro.core.samc import SamcCodec
    from repro.workloads import suite

    def count_entries(dictionary) -> None:
        tracer.count("sadc.mips.dictionary_entries", len(dictionary.entries))

    patches = Patches(tracer)
    patches.function(suite, "generate_benchmark", "workloads.generate")
    patches.function(
        experiments, "compression_ratio", "analysis.compression_ratio"
    )
    patches.method(
        MipsSadcCodec, "build_dictionary", "sadc.mips.build_dictionary",
        after=count_entries,
    )
    patches.method(MipsSadcCodec, "compress", "sadc.mips.encode")
    patches.method(
        X86SadcCodec, "build_dictionary", "sadc.x86.build_dictionary"
    )
    patches.method(X86SadcCodec, "compress", "sadc.x86.encode")
    patches.method(SamcCodec, "train", "samc.train")
    patches.method(SamcCodec, "compress_with_model", "samc.encode")
    patches.function(lzw, "lzw_compress", "baselines.lzw.compress")
    patches.function(lzss, "tokenize", "baselines.lzss.tokenize")
    patches.function(
        gzipish, "gzipish_compress", "baselines.gzipish.compress"
    )
    patches.method(
        ByteHuffmanCodec, "compress", "baselines.byte_huffman.compress"
    )
    return patches


def instrument_refill(tracer: Tracer) -> Patches:
    """Spans for the decompress-on-miss path: block decoders."""
    from repro.baselines.byte_huffman import ByteHuffmanCodec
    from repro.core.sadc import MipsSadcCodec
    from repro.core.samc import SamcCodec
    from repro.entropy.huffman import HuffmanDecoder

    patches = Patches(tracer)
    patches.method(SamcCodec, "decompress_block", "refill.samc.decode")
    patches.method(MipsSadcCodec, "decompress_block", "refill.sadc.decode")
    patches.method(
        ByteHuffmanCodec, "decompress_block", "refill.byte_huffman.decode"
    )
    patches.method(
        HuffmanDecoder, "__init__", "entropy.huffman.decoder_build"
    )
    return patches
