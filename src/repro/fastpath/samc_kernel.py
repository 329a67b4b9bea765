"""Table-compiled SAMC kernels: vectorised training, fused coding loops.

The reference SAMC path costs three Python method calls and a numpy
scalar index *per coded bit* (``walk_encode`` → ``p0_quantized`` →
``encode_bit``).  This module removes all of it:

* **Training** (:func:`train_model_fast`) — the Markov walk is fully
  determined by the data, so the (context, node, bit) triple of every
  training observation is computed for the *whole program at once* with
  numpy array arithmetic, and the per-stream count tables accumulate via
  one :func:`numpy.bincount` per stream.
* **Encoding** (:meth:`CompiledSamcModel.encode_blocks`) — the per-bit
  quantised probabilities are gathered with one fancy-index per stream,
  then each block runs a single tight Python loop that fuses the Markov
  walk with the carry-less range coder, appending renormalisation bytes
  straight into a ``bytearray``.  The final flush is the *same function*
  the reference encoder uses (:func:`repro.entropy.arith.flush_interval`).
* **Decoding** (:meth:`CompiledSamcModel.decode_block`) — inherently
  sequential (each decoded bit steers the walk), so the win comes from
  compiling the frozen model into flat Python integer lists indexed by
  ``context * nodes + node`` and inlining the range decoder: zero
  attribute lookups or method calls per bit.
* **Batch decoding** (:meth:`CompiledSamcModel.decode_blocks`) — blocks
  are independent by construction (coder state, Markov context, and tree
  pointers all reset at block boundaries), and every block follows the
  *same* (stream, depth) bit schedule; only the per-block coder state
  differs.  The lockstep decoder therefore runs the range decoder across
  the whole batch at once: one vectorised split/branch/renormalisation
  step over all live blocks per scheduled bit, with numpy boolean masks
  selecting the blocks that renormalise (or have already finished) at
  each step.  Masked blocks simply do not advance their read pointers or
  shift their coder registers, so every block's state trajectory is
  bit-for-bit the trajectory the scalar loop would have produced — which
  is why the batch path is byte-identical, not merely equivalent.
* **Batch encoding** (:meth:`CompiledSamcModel.encode_blocks` above a
  batch threshold) — the same lockstep structure in reverse: the bit and
  probability matrices from :func:`_walk_arrays` are transposed to
  bit-major order and all blocks' range coders advance together, with
  renormalisation bytes scattered into per-block output rows.

The lockstep step has a fixed numpy-call cost per scheduled bit that is
(nearly) independent of the batch size, while the scalar loops scale
linearly in it — so vectorisation only wins above a crossover batch
(:func:`repro.fastpath.batch_min` blocks).  Below the
threshold the batch entry points fall back to the fused scalar loops, so
small batches never regress.

Every loop is a line-for-line port of the reference control flow, so the
output is bit-identical; the golden-vector and differential tests pin it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.entropy.arith import PROB_BITS, flush_interval
from repro.core.samc.model import SamcModel
from repro.fastpath import batch_min
from repro.obs import get_recorder

_MASK = 0xFFFFFFFF
_TOP = 1 << 24
_BOT = 1 << 16

#: Streams deeper than this would need oversized prefix-deposit LUTs
#: (2**k entries); no real configuration comes close, but stay safe.
_MAX_LUT_DEPTH = 12


def _walk_arrays(
    width: int,
    specs: Sequence,
    connect_bits: int,
    words: Sequence[int],
    words_per_block: int,
) -> Tuple[list, list]:
    """Vectorised Markov walk over a whole program.

    Returns, per stream, the ``(n_words, k)`` bit and node-index matrices
    plus the ``(n_words,)`` context vector — exactly the (context, node,
    bit) triples the reference walk visits, with the context reset at
    every cache-block boundary.
    """
    arr = np.asarray(words, dtype=np.int64)
    n = arr.shape[0]
    per_stream = []
    for spec in specs:
        k = spec.k
        shifts = np.array([width - 1 - p for p in spec.positions], dtype=np.int64)
        bits = (arr[:, None] >> shifts[None, :]) & 1
        prefix = np.zeros((n, k), dtype=np.int64)
        for depth in range(1, k):
            prefix[:, depth] = (prefix[:, depth - 1] << 1) | bits[:, depth - 1]
        node = ((1 << np.arange(k, dtype=np.int64)) - 1)[None, :] + prefix
        value = (prefix[:, k - 1] << 1) | bits[:, k - 1]
        mask = (1 << min(connect_bits, k)) - 1 if connect_bits else 0
        per_stream.append((bits, node, value & mask))
    contexts = []
    for index in range(len(specs)):
        if index == 0:
            ctx = np.empty(n, dtype=np.int64)
            if n:
                ctx[0] = 0
                ctx[1:] = per_stream[-1][2][:-1]
                ctx[::words_per_block] = 0  # context resets at block starts
        else:
            ctx = per_stream[index - 1][2]
        contexts.append(ctx)
    return per_stream, contexts


def train_model_fast(  # repro: noqa dual-path-drift (oracle is SamcModel.train_block; bit-identity is covered by the fastpath differential tests)
    model: SamcModel, words: Sequence[int], words_per_block: int
) -> None:
    """Accumulate all training counts for ``words`` into ``model``.

    Bit-identical to calling :meth:`SamcModel.train_block` per cache
    block: the same (context, node, bit) events are counted, just via
    one bincount per stream instead of one numpy scalar ``+=`` per bit.
    """
    if not len(words):
        return
    per_stream, contexts = _walk_arrays(
        model.width, model.specs, model.connect_bits, words, words_per_block
    )
    for stream_model, (bits, node, _tail), ctx in zip(
        model.stream_models, per_stream, contexts
    ):
        nodes = stream_model.node_count
        flat = ((ctx[:, None] * nodes + node) * 2 + bits).ravel()
        counts = np.bincount(flat, minlength=stream_model.contexts * nodes * 2)
        stream_model.observe_counts(
            counts.reshape(stream_model.contexts, nodes, 2)
        )


class CompiledSamcModel:
    """A frozen :class:`SamcModel` compiled to flat integer tables.

    Construction converts every stream's quantised-probability table to a
    flat Python list (``p0[context * nodes + node]``) and precomputes the
    bit-placement shifts and context masks, so the coding loops touch
    only local integers.  Quantisation happened once at freeze time;
    nothing here ever re-quantises.
    """

    def __init__(self, model: SamcModel) -> None:
        self.width = model.width
        self.connect_bits = model.connect_bits
        self.specs = model.specs
        self._tables = [sm.frozen_table for sm in model.stream_models]
        self._streams = []
        prob_one = 1 << PROB_BITS
        for spec, stream_model in zip(model.specs, model.stream_models):
            k = spec.k
            shifts = tuple(model.width - 1 - p for p in spec.positions)
            mask = (1 << min(model.connect_bits, k)) - 1 if model.connect_bits else 0
            p0_flat = stream_model.frozen_table.ravel().tolist()
            # A probability of 0 (or PROB_ONE) collapses the range
            # coder's split to nothing and the decode renormalisation
            # loop below would never terminate; tables reaching this
            # point from deserialisation are untrusted, so reject here.
            if p0_flat and not (1 <= min(p0_flat) and max(p0_flat) <= prob_one - 1):
                from repro.resilience.errors import (
                    CATEGORY_STRUCTURE,
                    CorruptedStreamError,
                )

                raise CorruptedStreamError(
                    "compiled SAMC table holds probabilities outside "
                    f"[1, {prob_one - 1}]",
                    category=CATEGORY_STRUCTURE,
                )
            self._streams.append(
                (shifts, stream_model.node_count, p0_flat, mask)
            )
        # Lockstep batch tables ((depth views, deposit LUT, ...) per
        # stream) are built lazily on the first batch call.
        self._batch_streams: Optional[list] = None

    def _compile_batch(self) -> Optional[list]:
        """Per-stream arrays for the lockstep batch coders (cached).

        For each stream: the quantised-probability table sliced into one
        view per tree depth (folding the ``(1 << depth) - 1`` node base
        into the view offset, so the per-bit gather is a single ``take``)
        and a prefix→word-bits deposit LUT that places a whole stream's
        decoded bits with one gather instead of one shift-or per bit.
        """
        if self._batch_streams is not None:
            return self._batch_streams
        if any(len(shifts) > _MAX_LUT_DEPTH for shifts, *_ in self._streams):
            return None
        compiled = []
        for shifts, nodes, p0_flat, ctx_mask in self._streams:
            table = np.asarray(p0_flat, dtype=np.int64)
            k = len(shifts)
            lut = np.zeros(1 << k, dtype=np.int64)
            for prefix in range(1 << k):
                word = 0
                for depth, shift in enumerate(shifts):
                    if (prefix >> (k - 1 - depth)) & 1:
                        word |= 1 << shift
                lut[prefix] = word
            views = [table[(1 << depth) - 1:] for depth in range(k)]
            compiled.append((k, nodes, views, lut, ctx_mask))
        self._batch_streams = compiled
        return compiled

    # -- encode --------------------------------------------------------

    def encode_blocks(  # repro: noqa dual-path-drift (whole-program vectorised encode; oracle is the per-block reference encoder in core/samc, differential-tested)
        self, words: Sequence[int], words_per_block: int
    ) -> List[bytes]:
        """Encode a whole program, one payload per cache block."""
        n = len(words)
        if n == 0:
            return []
        per_stream, contexts = _walk_arrays(
            self.width, self.specs, self.connect_bits, words, words_per_block
        )
        bit_cols = []
        prob_cols = []
        for table, (bits, node, _tail), ctx in zip(
            self._tables, per_stream, contexts
        ):
            bit_cols.append(bits)
            prob_cols.append(table[ctx[:, None], node])
        width = self.width
        bits_mat = np.concatenate(bit_cols, axis=1)
        probs_mat = np.concatenate(prob_cols, axis=1)
        rec = get_recorder()
        if rec.enabled:
            return self._encode_blocks_instrumented(
                rec,
                bits_mat.ravel().tolist(),
                probs_mat.ravel().tolist(),
                n,
                words_per_block,
            )
        n_blocks = -(-n // words_per_block)
        if n_blocks >= batch_min():
            return _encode_blocks_vec(bits_mat, probs_mat, n, words_per_block)
        bits_flat = bits_mat.ravel().tolist()
        probs_flat = probs_mat.ravel().tolist()
        return [
            _encode_span(
                bits_flat[start * width : min(n, start + words_per_block) * width],
                probs_flat[start * width : min(n, start + words_per_block) * width],
            )
            for start in range(0, n, words_per_block)
        ]

    def _encode_blocks_instrumented(
        self, rec, bits_flat, probs_flat, n, words_per_block
    ) -> List[bytes]:
        """Obs-on encode path: same spans through :func:`_encode_span_obs`,
        which attributes renormalisation bytes to the (stream, depth) bit
        that forced them — output stays byte-identical."""
        width = self.width
        labels = [
            (index, depth)
            for index, spec in enumerate(self.specs)
            for depth in range(spec.k)
        ]
        per_label: dict = {}
        flush_bits = 0
        payloads: List[bytes] = []
        for start in range(0, n, words_per_block):
            payload, block_flush = _encode_span_obs(
                bits_flat[start * width : min(n, start + words_per_block) * width],
                probs_flat[start * width : min(n, start + words_per_block) * width],
                labels,
                per_label,
            )
            flush_bits += block_flush
            payloads.append(payload)
        for (stream, depth), bits in sorted(per_label.items()):
            rec.add_bits(f"stream{stream}", bits)
            rec.count(f"samc.stream{stream}.depth{depth}.bits", bits)
        rec.add_bits("flush", flush_bits)
        rec.count("samc.blocks_encoded", len(payloads))
        rec.count("samc.words_encoded", n)
        return payloads

    # -- decode --------------------------------------------------------

    def decode_block(self, payload: bytes, word_count: int) -> List[int]:
        """Decode one cache block: fused Markov walk + range decoder."""
        word_mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
        data = payload
        dlen = len(data)
        low = 0
        rng = word_mask
        code = 0
        pos = 0
        for _ in range(4):
            code = ((code << 8) | (data[pos] if pos < dlen else 0)) & word_mask
            pos += 1
        streams = self._streams
        words: List[int] = []
        context = 0
        for _ in range(word_count):
            word = 0
            for shifts, nodes, p0_flat, ctx_mask in streams:
                base = context * nodes
                prefix = 0
                node_base = 0  # (1 << depth) - 1, tracked incrementally
                for shift in shifts:
                    p0 = p0_flat[base + node_base + prefix]
                    split = (rng >> prob_bits) * p0
                    if ((code - low) & word_mask) < split:
                        rng = split
                        prefix <<= 1
                    else:
                        low = (low + split) & word_mask
                        rng -= split
                        prefix = (prefix << 1) | 1
                        word |= 1 << shift
                    while True:  # repro: noqa loop-progress (pos advances every iteration; exits once the block's word count is met - differential-tested)
                        if ((low ^ (low + rng)) & word_mask) < top:
                            pass
                        elif rng < bot:
                            rng = (-low) & (bot - 1)
                        else:
                            break
                        code = ((code << 8) | (data[pos] if pos < dlen else 0)) & word_mask
                        pos += 1
                        low = (low << 8) & word_mask
                        rng = (rng << 8) & word_mask
                    node_base = node_base + node_base + 1
                context = prefix & ctx_mask
            words.append(word)
        return words

    def decode_blocks(
        self, payloads: Sequence[bytes], word_counts: Sequence[int]
    ) -> List[List[int]]:
        """Decode a batch of independent cache blocks.

        Byte-identical to calling :meth:`decode_block` per element; above
        :func:`batch_min` blocks the lockstep vectorised decoder runs,
        below it the fused scalar loop (which is faster there) does.
        """
        if len(payloads) != len(word_counts):
            raise ValueError("payloads and word_counts must align")
        if len(payloads) >= batch_min():
            compiled = self._compile_batch()
            if compiled is not None:
                return self._decode_blocks_vec(compiled, payloads, word_counts)
        return [
            self.decode_block(payload, count)
            for payload, count in zip(payloads, word_counts)
        ]

    def _decode_blocks_vec(
        self,
        compiled: list,
        payloads: Sequence[bytes],
        word_counts: Sequence[int],
    ) -> List[List[int]]:
        """The lockstep batch range decoder.

        All blocks share one bit schedule — (stream, depth) pairs in
        coding order — so the only per-block state is the coder triple
        and the Markov prefix/context, held as length-``batch`` arrays.
        Instead of the coder's ``code`` register we track
        ``D = (code - low) & MASK`` (the branch test needs only ``D``,
        saving one vector op per bit); finished blocks (past their word
        count) are masked out of renormalisation, so their read pointers
        freeze and live blocks march through *exactly* the scalar byte
        sequence.  Payload bytes live in one flat array with a per-block
        stride, each payload followed by at least one zero byte; every
        gather index is clamped to that byte, so however far a corrupt
        block renormalises, reads past its own payload see zeros — the
        scalar loop's convention — and never its neighbour's bytes.
        """
        batch = len(payloads)
        if batch == 0:
            return []
        max_words = max(word_counts)
        if max_words == 0:
            return [[] for _ in payloads]
        stride = max(len(p) for p in payloads) + 1
        padded = bytearray(batch * stride)
        for i, payload in enumerate(payloads):
            padded[i * stride : i * stride + len(payload)] = payload
        flat = np.frombuffer(bytes(padded), dtype=np.uint8).astype(np.int64)
        wc = np.asarray(word_counts, dtype=np.int64)

        low = np.zeros(batch, dtype=np.int64)
        rng = np.full(batch, _MASK, dtype=np.int64)
        D = np.zeros(batch, dtype=np.int64)
        pos = np.arange(batch, dtype=np.int64) * stride
        # Index of the zero byte after each payload: reads clamp to it.
        end = pos + np.asarray([len(p) for p in payloads], dtype=np.int64)
        gather = np.empty(batch, dtype=np.int64)
        for _ in range(4):
            D <<= 8
            np.minimum(pos, end, out=gather)
            D |= flat.take(gather)
            pos += 1
        context = np.zeros(batch, dtype=np.int64)
        words = np.zeros((batch, max_words), dtype=np.int64)

        # Preallocated scratch: the per-bit step runs allocation-free.
        idx = np.empty(batch, dtype=np.int64)
        ctx_base = np.empty(batch, dtype=np.int64)
        p0 = np.empty(batch, dtype=np.int64)
        split = np.empty(batch, dtype=np.int64)
        t1 = np.empty(batch, dtype=np.int64)
        t2 = np.empty(batch, dtype=np.int64)
        bs = np.empty(batch, dtype=np.int64)
        prefix = np.empty(batch, dtype=np.int64)
        bit = np.empty(batch, dtype=bool)
        under = np.empty(batch, dtype=bool)
        need = np.empty(batch, dtype=bool)
        shift_in = np.empty(batch, dtype=bool)
        word = np.empty(batch, dtype=np.int64)
        live = np.empty(batch, dtype=bool)

        for w in range(max_words):
            np.greater(wc, w, out=live)
            word[:] = 0
            for k, nodes, views, lut, ctx_mask in compiled:
                np.multiply(context, nodes, out=ctx_base)
                prefix[:] = 0
                for depth in range(k):
                    np.add(ctx_base, prefix, out=idx)
                    np.take(views[depth], idx, out=p0)
                    np.right_shift(rng, PROB_BITS, out=t1)
                    np.multiply(t1, p0, out=split)
                    np.greater_equal(D, split, out=bit)
                    np.multiply(split, bit, out=bs)
                    D -= bs
                    # `low` stays unmasked: every consumer below is
                    # invariant mod 2**32, and int64 cannot overflow
                    # within a block's 2**32-bounded additions.
                    low += bs
                    np.subtract(rng, split, out=t1)
                    np.copyto(rng, split)
                    np.copyto(rng, t1, where=bit)
                    prefix += prefix
                    prefix += bit
                    while True:
                        # Carry-less renorm condition, vectorised: a
                        # block shifts a byte when its top byte settled
                        # (low and low+rng agree) or its range
                        # underflowed below 2**16.
                        np.add(low, rng, out=t1)
                        np.bitwise_xor(t1, low, out=t1)
                        t1 &= _MASK
                        np.greater_equal(t1, _TOP, out=need)  # unsettled
                        np.less(rng, _BOT, out=under)
                        np.logical_not(need, out=shift_in)    # settled
                        np.logical_or(shift_in, under, out=shift_in)
                        np.logical_and(shift_in, live, out=shift_in)
                        if not shift_in.any():
                            break
                        np.logical_and(need, under, out=need)  # underflow
                        np.logical_and(need, live, out=need)
                        if need.any():
                            np.negative(low, out=t1)
                            t1 &= _BOT - 1
                            np.copyto(rng, t1, where=need)
                        np.left_shift(D, 8, out=t1)
                        np.minimum(pos, end, out=gather)
                        t1 |= flat.take(gather)
                        t1 &= _MASK
                        np.copyto(D, t1, where=shift_in)
                        pos += shift_in
                        np.left_shift(low, 8, out=t1)
                        t1 &= _MASK
                        np.copyto(low, t1, where=shift_in)
                        np.left_shift(rng, 8, out=t1)
                        t1 &= _MASK
                        np.copyto(rng, t1, where=shift_in)
                np.take(lut, prefix, out=t2)
                word |= t2
                np.bitwise_and(prefix, ctx_mask, out=context)
            words[:, w] = word
        return [
            words[i, : word_counts[i]].tolist() for i in range(batch)
        ]


def _encode_blocks_vec(
    bits_mat: np.ndarray,
    probs_mat: np.ndarray,
    n_words: int,
    words_per_block: int,
) -> List[bytes]:
    """Lockstep batch range encoder: all blocks advance one bit at a time.

    The mirror image of ``_decode_blocks_vec`` — the bit/probability
    matrices from ``_walk_arrays`` are reshaped to (block, bit) and
    transposed to bit-major order, so per scheduled bit the inputs are
    contiguous row views and the only work is the vectorised coder step.
    Renormalisation bytes scatter into one ``uint8`` row per block
    (capacity 2 bytes per coded bit — a hard bound, since quantised
    probabilities are at least 2**-16); a short tail block is masked out
    once its own bits run dry.  Each block finishes with the *same*
    :func:`flush_interval` the scalar encoders use, so payloads are
    byte-identical to ``_encode_span``'s.
    """
    width = bits_mat.shape[1]
    n_blocks = -(-n_words // words_per_block)
    block_bits = words_per_block * width
    padded_words = n_blocks * words_per_block
    if padded_words != n_words:
        pad = np.zeros((padded_words - n_words, width), dtype=np.int64)
        bits_mat = np.concatenate([bits_mat, pad])
        probs_mat = np.concatenate([probs_mat, pad])
    bits_bm = np.ascontiguousarray(
        bits_mat.reshape(n_blocks, block_bits).T
    )
    probs_bm = np.ascontiguousarray(
        probs_mat.reshape(n_blocks, block_bits).T
    )
    bools_bm = bits_bm.astype(bool)
    nbits = np.full(n_blocks, block_bits, dtype=np.int64)
    tail_words = n_words - (n_blocks - 1) * words_per_block
    nbits[-1] = tail_words * width

    cap = 2 * block_bits + 8
    out = np.zeros(n_blocks * cap, dtype=np.uint8)
    opos = np.arange(n_blocks, dtype=np.int64) * cap
    low = np.zeros(n_blocks, dtype=np.int64)
    rng = np.full(n_blocks, _MASK, dtype=np.int64)
    split = np.empty(n_blocks, dtype=np.int64)
    t1 = np.empty(n_blocks, dtype=np.int64)
    bs = np.empty(n_blocks, dtype=np.int64)
    need = np.empty(n_blocks, dtype=bool)
    under = np.empty(n_blocks, dtype=bool)
    emit = np.empty(n_blocks, dtype=bool)
    live = np.empty(n_blocks, dtype=bool)

    for j in range(block_bits):
        np.greater(nbits, j, out=live)
        np.right_shift(rng, PROB_BITS, out=t1)
        np.multiply(t1, probs_bm[j], out=split)
        np.multiply(split, bits_bm[j], out=bs)
        low += bs  # bs is 0 past a tail block's end (padded bits are 0)
        # split becomes the candidate new rng; a finished block's rng
        # must stay frozen (its padded probability is 0, which would
        # zero rng and poison the final flush), hence the live mask.
        np.subtract(rng, split, out=t1)
        np.copyto(split, t1, where=bools_bm[j])
        np.copyto(rng, split, where=live)
        while True:
            np.add(low, rng, out=t1)
            np.bitwise_xor(t1, low, out=t1)
            t1 &= _MASK
            np.greater_equal(t1, _TOP, out=need)  # unsettled
            np.less(rng, _BOT, out=under)
            np.logical_not(need, out=emit)        # settled
            np.logical_or(emit, under, out=emit)
            np.logical_and(emit, live, out=emit)
            if not emit.any():
                break
            np.logical_and(need, under, out=need)  # underflow
            np.logical_and(need, live, out=need)
            if need.any():
                np.negative(low, out=t1)
                t1 &= _BOT - 1
                np.copyto(rng, t1, where=need)
            np.right_shift(low, 24, out=t1)
            t1 &= 0xFF
            out[opos[emit]] = t1[emit]
            opos += emit
            np.left_shift(low, 8, out=t1)
            t1 &= _MASK
            np.copyto(low, t1, where=emit)
            np.left_shift(rng, 8, out=t1)
            t1 &= _MASK
            np.copyto(rng, t1, where=emit)
    payloads: List[bytes] = []
    for i in range(n_blocks):
        base = i * cap
        buf = bytearray(out[base : opos[i]].tobytes())
        flush_interval(int(low[i]) & _MASK, int(rng[i]), buf)
        payloads.append(bytes(buf))
    return payloads


def _encode_span(bits: List[int], probs: List[int]) -> bytes:
    """Range-encode one block's bit/probability span.

    A line-for-line inlining of ``BinaryArithmeticEncoder.encode_bit`` +
    ``_normalize`` with the state in locals and renormalisation bytes
    appended directly to the output ``bytearray``; terminated by the
    shared :func:`flush_interval`, so the payload matches the reference
    encoder byte for byte.
    """
    mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
    low = 0
    rng = mask
    out = bytearray()
    append = out.append
    for bit, p0 in zip(bits, probs):
        split = (rng >> prob_bits) * p0
        if bit:
            low = (low + split) & mask
            rng -= split
        else:
            rng = split
        while True:
            if ((low ^ (low + rng)) & mask) < top:
                pass
            elif rng < bot:
                rng = (-low) & (bot - 1)
            else:
                break
            append((low >> 24) & 0xFF)
            low = (low << 8) & mask
            rng = (rng << 8) & mask
    flush_interval(low, rng, out)
    return bytes(out)


def _encode_span_obs(
    bits: List[int], probs: List[int], labels: List[tuple], per_label: dict
) -> Tuple[bytes, int]:
    """:func:`_encode_span` with bit attribution (obs-on path only).

    Identical coding loop; after each coded bit the renormalisation
    bytes just appended are charged (as bits) to that bit's
    ``(stream, depth)`` label in ``per_label``.  Returns the payload and
    the flush size in bits, which the caller accounts separately.
    """
    mask, top, bot, prob_bits = _MASK, _TOP, _BOT, PROB_BITS
    low = 0
    rng = mask
    out = bytearray()
    append = out.append
    n_labels = len(labels)
    position = 0
    for bit, p0 in zip(bits, probs):
        before = len(out)
        split = (rng >> prob_bits) * p0
        if bit:
            low = (low + split) & mask
            rng -= split
        else:
            rng = split
        while True:
            if ((low ^ (low + rng)) & mask) < top:
                pass
            elif rng < bot:
                rng = (-low) & (bot - 1)
            else:
                break
            append((low >> 24) & 0xFF)
            low = (low << 8) & mask
            rng = (rng << 8) & mask
        emitted = len(out) - before
        if emitted:
            label = labels[position % n_labels]
            per_label[label] = per_label.get(label, 0) + emitted * 8
        position += 1
    coded = len(out)
    flush_interval(low, rng, out)
    return bytes(out), (len(out) - coded) * 8


def compiled_model(model: SamcModel) -> CompiledSamcModel:
    """Compile ``model`` once and cache the result on the instance.

    Random-access block decompression calls this per refill; the cache
    makes repeat compilation free while keying on the model object
    itself, so a retrained model can never serve stale tables.
    """
    cached = getattr(model, "_fastpath_compiled", None)
    if cached is None:
        cached = CompiledSamcModel(model)
        model._fastpath_compiled = cached
    return cached
