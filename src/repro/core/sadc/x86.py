"""SADC for x86: dictionary compression over the three byte streams.

The Pentium configuration in Section 5: instructions split into
**opcode** (prefixes + opcode bytes), **ModRM + SIB**, and
**immediate + displacement** streams, all byte-wide.  The dictionary
covers the opcode stream; because x86 opcode entries are variable-length
byte strings, a base symbol here is the whole prefixes+opcode byte string
of one instruction.  Groups combine adjacent instructions' opcode
entries.  Register/immediate binding does not apply (registers live in
ModRM, which stays a separate stream) — one reason the paper's x86
ratios trail its MIPS ratios.

The dictionary grows as on MIPS (see :mod:`repro.core.sadc.mips`):
each gain cycle inserts the best pair and triple groups, and parses and
candidate counts carry over between cycles.  A block is reparsed, from
the first token a new entry would replace, only when a new entry that
is strictly longer than the chosen one matches at one of its token
starts.  Equal gains are walked pairs first, then triples, each in
order of first occurrence.

Block handling: an instruction belongs to the cache block in which it
*starts*.  Real hardware would decompress exactly 32 original bytes per
block (splitting an instruction across blocks); assigning whole
instructions to blocks preserves the same random-access granularity
while keeping the streams well-formed, and changes per-block sizes by at
most one instruction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage
from repro.core.sadc.growth import CandidateCounts, GainLevels, Key
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.isa.x86.formats import X86Instruction, decode_all
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_BUDGET,
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
    decode_guard,
)
from repro.resilience.frame import block_payload

DEFAULT_BLOCK_SIZE = 32

#: A dictionary entry: a tuple of opcode-entry byte strings.
X86Entry = Tuple[bytes, ...]


def _entry_storage_bits(entry: X86Entry) -> int:
    """Dictionary storage: the raw bytes plus a 2-bit length tag each."""
    return sum(8 * len(part) + 2 for part in entry)


class X86Dictionary:
    """Capacity-limited dictionary over opcode-entry strings."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.entries: List[X86Entry] = []
        self._known: Dict[X86Entry, int] = {}
        #: first opcode string -> entry indices, longest first; equal
        #: lengths keep insertion order.
        self._by_first: Dict[bytes, List[int]] = {}
        #: the negated lengths of each ``_by_first`` bucket, for bisection.
        self._bucket_keys: Dict[bytes, List[int]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entry: X86Entry) -> bool:
        return entry in self._known

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.max_entries

    def add(self, entry: X86Entry) -> int:
        if entry in self._known:
            return self._known[entry]
        if self.is_full:
            raise ValueError("dictionary is full")
        index = len(self.entries)
        self.entries.append(entry)
        self._known[entry] = index
        # A new entry goes after its equals (see Dictionary.add).
        keys = self._bucket_keys.setdefault(entry[0], [])
        at = bisect_right(keys, -len(entry))
        keys.insert(at, -len(entry))
        self._by_first.setdefault(entry[0], []).insert(at, index)
        return index

    def candidates_starting_with(self, first: bytes) -> List[int]:
        return self._by_first.get(first, [])

    @property
    def storage_bits(self) -> int:
        return sum(_entry_storage_bits(entry) for entry in self.entries)


def _opcode_entry(instruction: X86Instruction) -> bytes:
    return instruction.prefixes + instruction.opcode


def parse_block(
    dictionary: X86Dictionary, entries_in_block: Sequence[bytes], start: int = 0
) -> List[int]:
    """Greedy longest-match parse of one block's opcode entries.

    ``start`` resumes the parse at that instruction, which must be a
    token start of an earlier parse of the same block.
    """
    block = tuple(entries_in_block)
    entries = dictionary.entries
    tokens: List[int] = []
    pos = start
    while pos < len(block):
        chosen = None
        for index in dictionary.candidates_starting_with(block[pos]):
            entry = entries[index]
            if block[pos : pos + len(entry)] == entry:
                chosen = index
                break
        if chosen is None:
            raise ValueError("no dictionary entry matches — seed singles first")
        tokens.append(chosen)
        pos += len(entries[chosen])
    return tokens


class X86SadcCodec:
    """SADC compressor/decompressor for x86 code images."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_entries: int = 256,
        batch_inserts: int = 8,
        max_cycles: int = 64,
        max_group_tokens: int = 3,
    ) -> None:
        self.block_size = block_size
        self.max_entries = max_entries
        self.batch_inserts = max(1, batch_inserts)
        self.max_cycles = max_cycles
        self.max_group_tokens = max_group_tokens

    # -- decomposition --------------------------------------------------

    def _decode_blocks(self, code: bytes) -> List[List[X86Instruction]]:
        """Instructions grouped by the block where each one starts."""
        instructions = decode_all(code)
        block_count = max(1, (len(code) + self.block_size - 1) // self.block_size)
        blocks: List[List[X86Instruction]] = [[] for _ in range(block_count)]
        offset = 0
        for instruction in instructions:
            blocks[offset // self.block_size].append(instruction)
            offset += instruction.length
        return blocks

    # -- dictionary generation -------------------------------------------

    def build_dictionary(
        self, blocks: Sequence[Sequence[X86Instruction]]
    ) -> X86Dictionary:
        """Gain-driven dictionary generation over opcode-entry groups.

        The same incremental cycle as the MIPS builder, with pair and
        triple candidates only: parses and counts carry over, and a
        block is reparsed from the first token a new, strictly longer
        entry would replace.
        """
        dictionary = X86Dictionary(self.max_entries)
        per_block_entries = [
            tuple(_opcode_entry(i) for i in block) for block in blocks
        ]
        for entries in per_block_entries:
            for entry_bytes in entries:
                single = (entry_bytes,)
                if single not in dictionary and not dictionary.is_full:
                    dictionary.add(single)
        if dictionary.is_full:
            return dictionary

        parses = [
            parse_block(dictionary, entries) for entries in per_block_entries
        ]
        counts = CandidateCounts(2)
        for tokens in parses:
            counts.append_block(self._candidate_keys(tokens))
        bits = [_entry_storage_bits(entry) for entry in dictionary.entries]
        added: List[int] = []
        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            if added:
                self._reparse(dictionary, per_block_entries, parses, counts, added)
            added = []
            for _category, key in counts.in_walk_order(
                self._gain_levels(bits, counts)
            ):
                if dictionary.is_full:
                    break
                entry = tuple(
                    part for index in key for part in dictionary.entries[index]
                )
                if entry in dictionary:
                    continue
                added.append(dictionary.add(entry))
                bits.append(sum(bits[index] for index in key))
                if len(added) >= self.batch_inserts:
                    break
            if not added:
                break
        return dictionary

    def _candidate_keys(
        self, tokens: Sequence[int]
    ) -> Tuple[List[Key], List[Key]]:
        """One block's pair and triple occurrences, in parse order."""
        pairs: List[Key] = list(zip(tokens, tokens[1:]))
        triples: List[Key] = []
        if self.max_group_tokens >= 3:
            triples = list(zip(tokens, tokens[1:], tokens[2:]))
        return pairs, triples

    @staticmethod
    def _gain_levels(bits: Sequence[int], counts: CandidateCounts) -> GainLevels:
        """Positive-gain candidates grouped by gain (category 0 pairs,
        1 triples); storage adds up over concatenation."""
        levels: GainLevels = {}
        pairs, triples = counts.totals
        for key, f in pairs.items():
            gain = f * 8 - bits[key[0]] - bits[key[1]]
            if gain > 0:
                levels.setdefault(gain, []).append((0, key))
        for key, f in triples.items():
            gain = f * 16 - bits[key[0]] - bits[key[1]] - bits[key[2]]
            if gain > 0:
                levels.setdefault(gain, []).append((1, key))
        return levels

    def _reparse(
        self,
        dictionary: X86Dictionary,
        per_block_entries: Sequence[Tuple[bytes, ...]],
        parses: List[List[int]],
        counts: CandidateCounts,
        added: Sequence[int],
    ) -> None:
        """Bring ``parses`` and ``counts`` up to date with ``added``
        (the rule of :meth:`MipsSadcCodec._reparse`, ranked by length)."""
        entries = dictionary.entries
        rivals_by_first: Dict[bytes, List[X86Entry]] = {}
        for index in added:
            entry = entries[index]
            rivals_by_first.setdefault(entry[0], []).append(entry)
        for b, (block, tokens) in enumerate(zip(per_block_entries, parses)):
            pos = 0
            for i, index in enumerate(tokens):
                length = len(entries[index])
                rivals = rivals_by_first.get(block[pos])
                if rivals is not None and any(
                    len(rival) > length
                    and block[pos : pos + len(rival)] == rival
                    for rival in rivals
                ):
                    tokens[i:] = parse_block(dictionary, block, pos)
                    counts.replace_block(b, self._candidate_keys(tokens))
                    break
                pos += length

    # -- coding -----------------------------------------------------------

    def _encode_block_instrumented(self, rec, codes, block, tokens) -> bytes:
        """Obs-on block encode: identical writes to the inline loop in
        :meth:`compress`, with ``writer.bit_length`` deltas charged to
        the ``tokens`` / ``modrm_sib`` / ``imm_disp`` streams."""
        writer = BitWriter()
        token_encoder = HuffmanEncoder(codes["tokens"])
        modrm_encoder = HuffmanEncoder(codes["modrm_sib"])
        imm_encoder = HuffmanEncoder(codes["imm_disp"])
        mark = writer.bit_length
        token_encoder.encode_to(writer, tokens)
        token_bits = writer.bit_length - mark
        modrm_bits = 0
        imm_bits = 0
        for instruction in block:
            mark = writer.bit_length
            if instruction.modrm is not None:
                modrm_encoder.encode_to(writer, [instruction.modrm])
            if instruction.sib is not None:
                modrm_encoder.encode_to(writer, [instruction.sib])
            modrm_bits += writer.bit_length - mark
            mark = writer.bit_length
            imm_encoder.encode_to(writer, list(instruction.disp))
            imm_encoder.encode_to(writer, list(instruction.imm))
            imm_bits += writer.bit_length - mark
        payload = writer.getvalue()
        if token_bits:
            rec.add_bits("tokens", token_bits)
        if modrm_bits:
            rec.add_bits("modrm_sib", modrm_bits)
        if imm_bits:
            rec.add_bits("imm_disp", imm_bits)
        pad = len(payload) * 8 - writer.bit_length
        if pad:
            rec.add_bits("padding", pad)
        rec.count("sadc.tokens_emitted", len(tokens))
        rec.count("sadc.blocks_encoded")
        return payload

    def compress(self, code: bytes) -> CompressedImage:
        rec = get_recorder()
        blocks = self._decode_blocks(code)
        with rec.span("sadc.build_dictionary", isa="x86"):
            dictionary = self.build_dictionary(blocks)
        per_block_entries = [
            [_opcode_entry(i) for i in block] for block in blocks
        ]
        parses = [
            parse_block(dictionary, entries) for entries in per_block_entries
        ]

        token_counts: Counter = Counter()
        modrm_counts: Counter = Counter()
        imm_counts: Counter = Counter()
        for block, tokens in zip(blocks, parses):
            token_counts.update(tokens)
            for instruction in block:
                if instruction.modrm is not None:
                    modrm_counts[instruction.modrm] += 1
                if instruction.sib is not None:
                    modrm_counts[instruction.sib] += 1
                imm_counts.update(instruction.disp)
                imm_counts.update(instruction.imm)
        codes = {
            "tokens": build_code(token_counts),
            "modrm_sib": build_code(modrm_counts),
            "imm_disp": build_code(imm_counts),
        }

        if rec.enabled:
            with rec.span("sadc.encode", isa="x86"):
                payload = [
                    self._encode_block_instrumented(rec, codes, block, tokens)
                    for block, tokens in zip(blocks, parses)
                ]
        else:
            payload = []
            for block, tokens in zip(blocks, parses):
                writer = BitWriter()
                token_encoder = HuffmanEncoder(codes["tokens"])
                modrm_encoder = HuffmanEncoder(codes["modrm_sib"])
                imm_encoder = HuffmanEncoder(codes["imm_disp"])
                token_encoder.encode_to(writer, tokens)
                for instruction in block:
                    if instruction.modrm is not None:
                        modrm_encoder.encode_to(writer, [instruction.modrm])
                    if instruction.sib is not None:
                        modrm_encoder.encode_to(writer, [instruction.sib])
                    imm_encoder.encode_to(writer, list(instruction.disp))
                    imm_encoder.encode_to(writer, list(instruction.imm))
                payload.append(writer.getvalue())

        model_bits = (
            dictionary.storage_bits
            + codes["tokens"].table_bits(8)
            + codes["modrm_sib"].table_bits(8)
            + codes["imm_disp"].table_bits(8)
        )
        image = CompressedImage(
            algorithm="SADC",
            original_size=len(code),
            block_size=self.block_size,
            blocks=payload,
            model_bytes=(model_bits + 7) // 8,
            metadata={
                "isa": "x86",
                "dictionary": dictionary,
                "codes": codes,
                "block_instruction_counts": [len(b) for b in blocks],
            },
        )
        if rec.enabled:
            rec.add_bits("model.dictionary", dictionary.storage_bits)
            rec.add_bits("model.tables", model_bits - dictionary.storage_bits)
            model_pad = image.model_bytes * 8 - model_bits
            if model_pad:
                rec.add_bits("model.pad", model_pad)
            rec.add_bits("lat", image.compact_lat.storage_bytes * 8)
            rec.gauge("sadc.dictionary_entries", len(dictionary.entries))
        return image

    # repro: contract decode-entry
    def decompress(self, image: CompressedImage) -> bytes:
        return b"".join(
            self.decompress_blocks(image, range(image.block_count()))
        )

    # repro: contract decode-entry
    def decompress_blocks(
        self, image: CompressedImage, indices
    ) -> List[bytes]:
        """Batch form of :meth:`decompress_block` (uniform batch API).

        x86 reassembly is grammar-driven and has no vectorised kernel;
        the batch is simply the per-block loop.
        """
        return [self.decompress_block(image, index) for index in indices]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Expand one block back into instruction bytes.

        The token stream is decoded first; each token expands to
        prefixes+opcode strings whose grammar then dictates how many
        ModRM/SIB and disp/imm bytes to pull from the operand streams —
        the software mirror of the paper's control-logic unit.
        """
        from repro.core.sadc.x86_reassemble import reassemble_instruction

        dictionary: X86Dictionary = image.metadata["dictionary"]
        codes: Dict[str, HuffmanCode] = image.metadata["codes"]
        with decode_guard("sadc.x86.decompress_block"):
            expected = image.metadata["block_instruction_counts"][block_index]
            if expected > image.block_size:
                # The per-block instruction count is a wire-declared
                # u16; x86 instructions are at least one byte, so a
                # count beyond block_size is a forged length that would
                # otherwise drive allocation before the reader runs dry.
                raise CorruptedStreamError(
                    f"block {block_index} declares {expected} instructions "
                    f"for a {image.block_size}-byte block",
                    category=CATEGORY_BUDGET,
                )
            reader = BitReader(block_payload(image, block_index))
            token_decoder = HuffmanDecoder(codes["tokens"])
            modrm_decoder = HuffmanDecoder(codes["modrm_sib"])
            imm_decoder = HuffmanDecoder(codes["imm_disp"])

            opcode_entries: List[bytes] = []
            while len(opcode_entries) < expected:
                token = token_decoder.decode_symbol(reader)
                expansion = dictionary.entries[token]
                if not expansion or not all(expansion):
                    # A token must expand to at least one non-empty
                    # opcode string or the loop cannot advance; only a
                    # corrupted deserialised dictionary gets here.
                    raise CorruptedStreamError(
                        f"dictionary entry {token} is empty",
                        category=CATEGORY_STRUCTURE,
                    )
                opcode_entries.extend(expansion)
            if len(opcode_entries) != expected:
                raise ValueError(
                    f"block {block_index}: group crossed block boundary"
                )
            out = bytearray()
            for entry_bytes in opcode_entries:
                instruction = reassemble_instruction(
                    entry_bytes,
                    lambda: modrm_decoder.decode_symbol(reader),
                    lambda n: bytes(imm_decoder.decode_from(reader, n)),
                )
                out.extend(instruction.encode())
            return bytes(out)
