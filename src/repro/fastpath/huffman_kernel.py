"""Lockstep batch byte-Huffman decode.

:class:`repro.entropy.huffman.HuffmanDecoder` decodes a symbol by one
lookup of the next ``L``-bit window in a flat ``2**L`` table.  Cache
blocks all hold the same number of symbols (bar the tail), so a batch
of blocks sharing one code runs that lookup as one vectorised
gather/advance step per symbol position across every block, reading
the decoder's table through numpy views.  The numpy calls cost about
the same for any batch, so this only pays from
:func:`repro.fastpath.batch_min` blocks up.  A non-byte symbol, a window
no codeword covers, or a cursor overrun hands the batch back to the
scalar decoder, which raises the exact error.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.entropy.huffman import HuffmanDecoder


def decode_blocks_fast(
    decoder: HuffmanDecoder,
    payloads: Sequence[bytes],
    counts: Sequence[int],
) -> Optional[List[bytes]]:
    """Lockstep batch decode; ``None`` when any block (or a code with no
    flat table) needs the scalar decoder.

    Per symbol step: gather each live block's next L-bit window, look
    up symbol and length, store the symbol, advance the cursor by the
    length.
    """
    table = decoder.table
    if table is None:
        return None
    symbols = np.frombuffer(table[0], dtype=np.int64)
    spans = np.frombuffer(table[1], dtype=np.uint8)
    max_length = table[2]
    batch = len(payloads)
    max_count = max(counts)
    # A cursor moves at most L bits a step, so no window of any block
    # reaches past its own stripe (and an overrun is caught at the end).
    longest = max(len(p) for p in payloads)
    stride = max(longest, (max_count * max_length) >> 3) + 3
    padded = bytearray(batch * stride)
    for i, payload in enumerate(payloads):
        padded[i * stride : i * stride + len(payload)] = payload
    flat = np.frombuffer(bytes(padded), dtype=np.uint8).astype(np.int64)
    # The 24 bits starting at each byte: one gather covers any window.
    flat = (flat[:-2] << 16) | (flat[1:-1] << 8) | flat[2:]
    bit_limit = np.asarray([len(p) * 8 for p in payloads], dtype=np.int64)
    cn = np.asarray(counts, dtype=np.int64)
    base = np.arange(batch, dtype=np.int64) * stride

    cursor = np.zeros(batch, dtype=np.int64)
    out = np.zeros((batch, max_count), dtype=np.int64)
    window_mask = (1 << max_length) - 1
    pos = np.empty(batch, dtype=np.int64)
    window = np.empty(batch, dtype=np.int64)
    t1 = np.empty(batch, dtype=np.int64)
    step = np.empty(batch, dtype=np.uint8)
    live = np.empty(batch, dtype=bool)
    bad = np.empty(batch, dtype=bool)

    for position in range(max_count):
        np.greater(cn, position, out=live)
        np.right_shift(cursor, 3, out=pos)
        pos += base
        np.take(flat, pos, out=window)
        # Align the window: drop the bits already consumed within the
        # first byte, keep the top ``max_length``.
        np.bitwise_and(cursor, 7, out=t1)
        np.subtract(24 - max_length, t1, out=t1)
        np.right_shift(window, t1, out=window)
        window &= window_mask
        np.take(spans, window, out=step)
        np.equal(step, 0, out=bad)
        np.logical_and(bad, live, out=bad)
        if bad.any():
            return None
        np.take(symbols, window, out=t1)
        out[:, position] = t1
        np.multiply(step, live, out=step)
        cursor += step
    if bool((cursor > bit_limit).any()):
        return None
    decoded = np.arange(max_count) < cn[:, None]
    if bool(((out < 0) | (out > 255))[decoded].any()):
        return None
    return [
        out[i, : counts[i]].astype(np.uint8).tobytes() for i in range(batch)
    ]
