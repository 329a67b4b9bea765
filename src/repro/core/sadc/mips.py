"""SADC for MIPS: dictionary compression over the four operand streams.

Pipeline (Section 4 of the paper):

1. Decode the program into instruction records; split the streams
   (opcode / register / 16-bit immediate / 26-bit immediate).
2. **Dictionary generation + parsing** — start from all single opcodes;
   parse every block greedily, count candidates (adjacent token pairs
   and triples; register-value and immediate-value specialisations),
   insert those with the largest gain, and repeat until the 256-entry
   cap or no positive gain remains.
3. **Final entropy coding** — Huffman-code the dictionary-index stream
   and the surviving operand streams ("The final step of our compression
   is to encode all resulting compressed streams by using Huffman
   encoding").

Every cache block parses and encodes independently: dictionary groups
never cross block boundaries, so the refill engine can expand any block
in isolation.

Deviations from the paper, both documented in DESIGN.md:

* Gains are computed in *bits* with the true current token count
  (``g = f·(t−1)·8 − entry_storage``) rather than the paper's byte
  approximation ``g = f(n−1) − n``; same greedy spirit, slightly more
  accurate bookkeeping.
* Instead of erasing and regrowing the dictionary each cycle, we keep it
  — equivalent outcome, far fewer passes; a ``batch_inserts`` knob
  trades generator fidelity for speed.

The builder is incremental.  Parses and candidate counts carry over
from cycle to cycle, the counts as per-block contributions.  After a
cycle's inserts, a block is reparsed only if a new entry matches at one
of its token starts and strictly outranks, by (length, bindings), the
entry chosen there; the reparse starts at that token.  This is exact
because :meth:`Dictionary.add` puts a new entry after every entry of
equal rank.  Candidates are walked by gain (descending), then category
(pair, triple, reg, imm16, imm26), then first occurrence in block,
token, instruction and slot order: the order of recounting everything
from scratch, so the dictionary comes out entry for entry the same.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream.fields import chunk_words, words_to_bytes
from repro.bitstream.io import BitReader, BitWriter
from repro.core.lat import CompressedImage
from repro.core.sadc.entry import (
    BOUND_IMM16_BITS,
    BOUND_IMM26_BITS,
    BOUND_REG_BITS,
    DictEntry,
    Dictionary,
)
from repro.core.sadc.growth import CandidateCounts, GainLevels, Key
from repro.entropy.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
)
from repro.isa.mips.formats import Instruction, decode
from repro.isa.mips.streams import (
    ID_TO_SPEC,
    OPCODE_IDS,
    register_slots,
    uses_imm16,
    uses_imm26,
)
from repro.obs import get_recorder
from repro.resilience.errors import (
    CATEGORY_STRUCTURE,
    CorruptedStreamError,
    decode_guard,
)
from repro.resilience.frame import block_payload

DEFAULT_BLOCK_SIZE = 32


@dataclass(frozen=True)
class InstrRec:
    """One instruction, pre-split into SADC stream components."""

    opcode_id: int
    regs: Tuple[int, ...]
    imm16: Optional[int]
    imm26: Optional[int]

    @classmethod
    def from_word(cls, word: int) -> "InstrRec":
        instruction = decode(word)
        spec = instruction.spec
        regs = tuple(
            getattr(instruction, slot) for slot in register_slots(spec)
        )
        rec = cls(
            opcode_id=OPCODE_IDS[spec.mnemonic],
            regs=regs,
            imm16=instruction.imm if uses_imm16(spec) else None,
            imm26=instruction.target if uses_imm26(spec) else None,
        )
        # The stream split only keeps fields the opcode declares; a word
        # with stray bits in undeclared fields would not survive the
        # round trip, so reject it up front rather than corrupt silently.
        if rec.to_word() != word:
            raise ValueError(
                f"word {word:#010x} ({spec.mnemonic}) is non-canonical: "
                "it sets fields the opcode does not encode"
            )
        return rec

    def to_word(self) -> int:
        spec = ID_TO_SPEC[self.opcode_id]
        fields = {"rs": 0, "rt": 0, "rd": 0, "shamt": 0, "imm": 0, "target": 0}
        for slot, value in zip(register_slots(spec), self.regs):
            fields[slot] = value
        if self.imm16 is not None:
            fields["imm"] = self.imm16
        if self.imm26 is not None:
            fields["target"] = self.imm26
        return Instruction(spec, **fields).encode()


#: A parsed token: (dictionary index, start position in the block).
ParsedToken = Tuple[int, int]


def _entry_matches(
    entry: DictEntry, instrs: Sequence[InstrRec], ops: Tuple[int, ...], pos: int
) -> bool:
    """Whether ``entry`` matches ``instrs`` at ``pos``; ``ops`` holds
    the instructions' opcode ids."""
    if ops[pos : pos + entry.length] != entry.opcodes:
        return False
    for j, slot, value in entry.bound_regs:
        if instrs[pos + j].regs[slot] != value:
            return False
    for j, value in entry.bound_imm16:
        if instrs[pos + j].imm16 != value:
            return False
    for j, value in entry.bound_imm26:
        if instrs[pos + j].imm26 != value:
            return False
    return True


def parse_block(
    dictionary: Dictionary, instrs: Sequence[InstrRec], start: int = 0
) -> List[ParsedToken]:
    """Greedy longest-match parse of one block's instructions.

    ``start`` resumes the parse at that instruction, which must be a
    token start of an earlier parse of the same block.
    """
    ops = tuple(rec.opcode_id for rec in instrs)
    entries = dictionary.entries
    tokens: List[ParsedToken] = []
    pos = start
    while pos < len(ops):
        chosen = None
        for index in dictionary.candidates_starting_with(ops[pos]):
            if _entry_matches(entries[index], instrs, ops, pos):
                chosen = index
                break
        if chosen is None:
            raise ValueError(
                f"no dictionary entry matches opcode id "
                f"{ops[pos]} — singles must be seeded first"
            )
        tokens.append((chosen, pos))
        pos += entries[chosen].length
    return tokens


#: Candidate categories, numbered in walk order for equal gains.
_PAIR, _TRIPLE, _REG, _IMM16, _IMM26 = range(5)


class MipsSadcCodec:
    """SADC compressor/decompressor for MIPS code images."""

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_entries: int = 256,
        batch_inserts: int = 8,
        max_cycles: int = 64,
        enable_groups: bool = True,
        enable_reg_binding: bool = True,
        enable_imm_binding: bool = True,
        max_group_tokens: int = 3,
    ) -> None:
        if block_size % 4 != 0:
            raise ValueError("block_size must hold whole MIPS instructions")
        self.block_size = block_size
        self.max_entries = max_entries
        self.batch_inserts = max(1, batch_inserts)
        self.max_cycles = max_cycles
        self.enable_groups = enable_groups
        self.enable_reg_binding = enable_reg_binding
        self.enable_imm_binding = enable_imm_binding
        self.max_group_tokens = max_group_tokens

    # -- program decomposition ------------------------------------------

    def _decode_blocks(self, code: bytes) -> List[List[InstrRec]]:
        instrs = [InstrRec.from_word(w) for w in chunk_words(code, 4)]
        per_block = self.block_size // 4
        return [
            instrs[i : i + per_block] for i in range(0, len(instrs), per_block)
        ]

    # -- dictionary generation ------------------------------------------

    def build_dictionary(
        self,
        blocks: Sequence[Sequence[InstrRec]],
        seed_all_opcodes: bool = False,
    ) -> Dictionary:
        """Iterative gain-driven dictionary generation (Section 4.1).

        ``seed_all_opcodes`` inserts a single-opcode entry for *every*
        mnemonic in the ISA (not just those observed), which a *static*
        dictionary needs so it can parse programs it was not trained on.

        Each cycle inserts the ``batch_inserts`` best-gain candidates.
        The parses and candidate counts carry over between cycles: a
        block is reparsed, from the first token a new entry would
        replace, only when a new entry matches at one of its token
        starts and outranks the entry chosen there.
        """
        dictionary = Dictionary(self.max_entries)
        if seed_all_opcodes:
            for opcode_id in ID_TO_SPEC:
                if not dictionary.is_full:
                    dictionary.add(DictEntry(opcodes=(opcode_id,)))
        for block in blocks:
            for rec in block:
                entry = DictEntry(opcodes=(rec.opcode_id,))
                if entry not in dictionary and not dictionary.is_full:
                    dictionary.add(entry)
        if dictionary.is_full:
            return dictionary

        entries = dictionary.entries
        block_ops = [tuple(rec.opcode_id for rec in block) for block in blocks]
        parses = [parse_block(dictionary, block) for block in blocks]
        counts = CandidateCounts(5)
        for block, tokens in zip(blocks, parses):
            counts.append_block(self._candidate_keys(entries, block, tokens))
        added: List[int] = []
        for _cycle in range(self.max_cycles):
            if dictionary.is_full:
                break
            if added:
                self._reparse(
                    dictionary, blocks, block_ops, parses, counts, added
                )
            added = []
            levels = self._gain_levels(entries, counts)
            for category, key in counts.in_walk_order(levels):
                if dictionary.is_full:
                    break
                entry = self._candidate_entry(entries, category, key)
                if entry in dictionary:
                    continue
                added.append(dictionary.add(entry))
                if len(added) >= self.batch_inserts:
                    break
            if not added:
                break
        return dictionary

    def _candidate_keys(
        self,
        entries: Sequence[DictEntry],
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
    ) -> Tuple[List[Key], List[Key], List[Key], List[Key], List[Key]]:
        """One block's candidate occurrences, per category, in parse order."""
        pairs: List[Key] = []
        triples: List[Key] = []
        regs: List[Key] = []
        imm16s: List[Key] = []
        imm26s: List[Key] = []
        if self.enable_groups:
            indices = [index for index, _pos in tokens]
            pairs = list(zip(indices, indices[1:]))
            if self.max_group_tokens >= 3:
                triples = list(zip(indices, indices[1:], indices[2:]))
        reg_binding = self.enable_reg_binding
        imm_binding = self.enable_imm_binding
        for index, pos in tokens:
            entry = entries[index]
            for j in range(entry.length):
                rec = block[pos + j]
                if reg_binding:
                    for slot, value in enumerate(rec.regs):
                        if entry.reg_binding(j, slot) is None:
                            regs.append((index, j, slot, value))
                if imm_binding:
                    if rec.imm16 is not None and entry.imm16_binding(j) is None:
                        imm16s.append((index, j, rec.imm16))
                    if rec.imm26 is not None and entry.imm26_binding(j) is None:
                        imm26s.append((index, j, rec.imm26))
        return pairs, triples, regs, imm16s, imm26s

    @staticmethod
    def _gain_levels(
        entries: Sequence[DictEntry], counts: CandidateCounts
    ) -> GainLevels:
        """Positive-gain candidates grouped by gain.

        A gain is the stream bits an entry saves minus its storage,
        ``f·saved − storage_bits``; storage adds up over concatenation
        and binding, so it comes from the cached bits of the entries a
        candidate is made of, without building the candidate.
        """
        bits = [entry.storage_bits for entry in entries]
        levels: GainLevels = {}
        pairs, triples, regs, imm16s, imm26s = counts.totals
        for key, f in pairs.items():
            gain = f * 8 - bits[key[0]] - bits[key[1]]
            if gain > 0:
                levels.setdefault(gain, []).append((_PAIR, key))
        for key, f in triples.items():
            gain = f * 16 - bits[key[0]] - bits[key[1]] - bits[key[2]]
            if gain > 0:
                levels.setdefault(gain, []).append((_TRIPLE, key))
        for key, f in regs.items():
            gain = f * 5 - bits[key[0]] - BOUND_REG_BITS
            if gain > 0:
                levels.setdefault(gain, []).append((_REG, key))
        for key, f in imm16s.items():
            gain = f * 16 - bits[key[0]] - BOUND_IMM16_BITS
            if gain > 0:
                levels.setdefault(gain, []).append((_IMM16, key))
        for key, f in imm26s.items():
            gain = f * 26 - bits[key[0]] - BOUND_IMM26_BITS
            if gain > 0:
                levels.setdefault(gain, []).append((_IMM26, key))
        return levels

    @staticmethod
    def _candidate_entry(
        entries: Sequence[DictEntry], category: int, key: Key
    ) -> DictEntry:
        if category == _PAIR:
            return entries[key[0]].concat(entries[key[1]])
        if category == _TRIPLE:
            a, b, c = key
            return entries[a].concat(entries[b]).concat(entries[c])
        if category == _REG:
            index, j, slot, value = key
            return entries[index].bind_reg(j, slot, value)
        index, j, value = key
        if category == _IMM16:
            return entries[index].bind_imm16(j, value)
        return entries[index].bind_imm26(j, value)

    def _reparse(
        self,
        dictionary: Dictionary,
        blocks: Sequence[Sequence[InstrRec]],
        block_ops: Sequence[Tuple[int, ...]],
        parses: List[List[ParsedToken]],
        counts: CandidateCounts,
        added: Sequence[int],
    ) -> None:
        """Bring ``parses`` and ``counts`` up to date with ``added``.

        Equal ranks keep insertion order in the dictionary, so a new
        entry changes a parse only at a token start where it matches
        and strictly outranks the chosen entry; the parse up to that
        token stays as it was.
        """
        entries = dictionary.entries
        rivals_by_opcode: Dict[int, List[DictEntry]] = {}
        for index in added:
            entry = entries[index]
            rivals_by_opcode.setdefault(entry.opcodes[0], []).append(entry)
        for b, (block, tokens) in enumerate(zip(blocks, parses)):
            ops = block_ops[b]
            for i, (index, pos) in enumerate(tokens):
                rivals = rivals_by_opcode.get(ops[pos])
                if rivals is None:
                    continue
                rank = entries[index].rank
                if any(
                    rival.rank > rank and _entry_matches(rival, block, ops, pos)
                    for rival in rivals
                ):
                    tokens[i:] = parse_block(dictionary, block, pos)
                    counts.replace_block(
                        b, self._candidate_keys(entries, block, tokens)
                    )
                    break

    # -- entropy coding ---------------------------------------------------

    def _collect_symbols(
        self,
        dictionary: Dictionary,
        blocks: Sequence[Sequence[InstrRec]],
        parses: Sequence[Sequence[ParsedToken]],
    ) -> Dict[str, Counter]:
        """Final-parse symbol statistics per stream, for Huffman tables."""
        counters = {
            "tokens": Counter(),
            "regs": Counter(),
            "imm16_hi": Counter(),
            "imm16_lo": Counter(),
            "imm26_hi": Counter(),
            "imm26_lo": Counter(),
        }
        for block, tokens in zip(blocks, parses):
            for index, pos in tokens:
                counters["tokens"][index] += 1
                entry = dictionary.entries[index]
                for j in range(entry.length):
                    rec = block[pos + j]
                    for slot, value in enumerate(rec.regs):
                        if entry.reg_binding(j, slot) is None:
                            counters["regs"][value] += 1
                    if rec.imm16 is not None and entry.imm16_binding(j) is None:
                        counters["imm16_hi"][rec.imm16 >> 8] += 1
                        counters["imm16_lo"][rec.imm16 & 0xFF] += 1
                    if rec.imm26 is not None and entry.imm26_binding(j) is None:
                        counters["imm26_hi"][rec.imm26 >> 16] += 1
                        counters["imm26_lo"][(rec.imm26 >> 8) & 0xFF] += 1
                        counters["imm26_lo"][rec.imm26 & 0xFF] += 1
        return counters

    def _encode_block(
        self,
        dictionary: Dictionary,
        codes: Dict[str, HuffmanCode],
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
    ) -> bytes:
        writer = BitWriter()
        encoders = {name: HuffmanEncoder(code) for name, code in codes.items()}
        for index, pos in tokens:
            encoders["tokens"].encode_to(writer, [index])
            entry = dictionary.entries[index]
            for j in range(entry.length):
                rec = block[pos + j]
                for slot, value in enumerate(rec.regs):
                    if entry.reg_binding(j, slot) is None:
                        encoders["regs"].encode_to(writer, [value])
                if rec.imm16 is not None and entry.imm16_binding(j) is None:
                    encoders["imm16_hi"].encode_to(writer, [rec.imm16 >> 8])
                    encoders["imm16_lo"].encode_to(writer, [rec.imm16 & 0xFF])
                if rec.imm26 is not None and entry.imm26_binding(j) is None:
                    encoders["imm26_hi"].encode_to(writer, [rec.imm26 >> 16])
                    encoders["imm26_lo"].encode_to(writer, [(rec.imm26 >> 8) & 0xFF])
                    encoders["imm26_lo"].encode_to(writer, [rec.imm26 & 0xFF])
        return writer.getvalue()

    def _encode_block_instrumented(
        self,
        rec_obs,
        dictionary: Dictionary,
        codes: Dict[str, HuffmanCode],
        block: Sequence[InstrRec],
        tokens: Sequence[ParsedToken],
    ) -> bytes:
        """Obs-on variant of :meth:`_encode_block`: identical writes,
        with ``writer.bit_length`` deltas charged per stream (the two
        immediate halves fold into ``imm16`` / ``imm26``)."""
        writer = BitWriter()
        encoders = {name: HuffmanEncoder(code) for name, code in codes.items()}
        per_stream = {"tokens": 0, "regs": 0, "imm16": 0, "imm26": 0}

        def write(stream: str, encoder_name: str, symbol: int) -> None:
            before = writer.bit_length
            encoders[encoder_name].encode_to(writer, [symbol])
            per_stream[stream] += writer.bit_length - before

        for index, pos in tokens:
            write("tokens", "tokens", index)
            entry = dictionary.entries[index]
            for j in range(entry.length):
                instr = block[pos + j]
                for slot, value in enumerate(instr.regs):
                    if entry.reg_binding(j, slot) is None:
                        write("regs", "regs", value)
                if instr.imm16 is not None and entry.imm16_binding(j) is None:
                    write("imm16", "imm16_hi", instr.imm16 >> 8)
                    write("imm16", "imm16_lo", instr.imm16 & 0xFF)
                if instr.imm26 is not None and entry.imm26_binding(j) is None:
                    write("imm26", "imm26_hi", instr.imm26 >> 16)
                    write("imm26", "imm26_lo", (instr.imm26 >> 8) & 0xFF)
                    write("imm26", "imm26_lo", instr.imm26 & 0xFF)
        payload = writer.getvalue()
        for stream, bits in per_stream.items():
            if bits:
                rec_obs.add_bits(stream, bits)
        pad = len(payload) * 8 - writer.bit_length
        if pad:
            rec_obs.add_bits("padding", pad)
        rec_obs.count("sadc.tokens_emitted", len(tokens))
        rec_obs.count("sadc.blocks_encoded")
        return payload

    def _table_bits(self, codes: Dict[str, HuffmanCode]) -> int:
        widths = {
            "tokens": 8,
            "regs": 5,
            "imm16_hi": 8,
            "imm16_lo": 8,
            "imm26_hi": 10,
            "imm26_lo": 8,
        }
        return sum(codes[name].table_bits(widths[name]) for name in codes)

    # -- public API -------------------------------------------------------

    def build_static_dictionary(
        self, training_codes: Sequence[bytes]
    ) -> Dictionary:
        """Build one dictionary from a training corpus (Section 4's
        "static dictionaries are built once and used for all programs").

        Every ISA mnemonic is seeded so the result can parse programs
        outside the corpus; groups and bindings come from corpus gains.
        """
        blocks: List[List[InstrRec]] = []
        for code in training_codes:
            blocks.extend(self._decode_blocks(code))
        return self.build_dictionary(blocks, seed_all_opcodes=True)

    def compress(
        self, code: bytes, dictionary: Optional[Dictionary] = None
    ) -> CompressedImage:
        """Compress a MIPS code image.

        With ``dictionary`` supplied the codec runs in *static* mode:
        the dictionary is used as-is (it must cover every opcode; use
        :meth:`build_static_dictionary`) and only the Huffman tables are
        fit to this program.  Default is the paper's semiadaptive mode —
        a fresh dictionary grown for this program.
        """
        rec = get_recorder()
        blocks = self._decode_blocks(code)
        if dictionary is None:
            with rec.span("sadc.build_dictionary", isa="mips"):
                dictionary = self.build_dictionary(blocks)
        parses = [parse_block(dictionary, block) for block in blocks]
        counters = self._collect_symbols(dictionary, blocks, parses)
        codes = {name: build_code(counter) for name, counter in counters.items()}
        if rec.enabled:
            with rec.span("sadc.encode", isa="mips"):
                payload = [
                    self._encode_block_instrumented(
                        rec, dictionary, codes, block, tokens
                    )
                    for block, tokens in zip(blocks, parses)
                ]
        else:
            payload = [
                self._encode_block(dictionary, codes, block, tokens)
                for block, tokens in zip(blocks, parses)
            ]
        model_bits = dictionary.storage_bits + self._table_bits(codes)
        image = CompressedImage(
            algorithm="SADC",
            original_size=len(code),
            block_size=self.block_size,
            blocks=payload,
            model_bytes=(model_bits + 7) // 8,
            metadata={
                "isa": "mips",
                "dictionary": dictionary,
                "codes": codes,
            },
        )
        if rec.enabled:
            rec.add_bits("model.dictionary", dictionary.storage_bits)
            rec.add_bits("model.tables", self._table_bits(codes))
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

        The stream decoders compile once per code, so the batch is
        simply the per-block loop.
        """
        return [self.decompress_block(image, index) for index in indices]

    def decompress_block(self, image: CompressedImage, block_index: int) -> bytes:
        """Random-access expansion of one cache block."""
        dictionary: Dictionary = image.metadata["dictionary"]
        codes: Dict[str, HuffmanCode] = image.metadata["codes"]
        decoders = {name: HuffmanDecoder(code) for name, code in codes.items()}
        expected = self._original_block_bytes(image, block_index) // 4
        with decode_guard("sadc.mips.decompress_block"):
            reader = BitReader(block_payload(image, block_index), pad=False)
            words: List[int] = []
            while len(words) < expected:
                index = decoders["tokens"].decode_symbol(reader)
                entry = dictionary.entries[index]
                if not entry.opcodes:
                    # An empty entry decodes zero instructions: the loop
                    # would never advance — only reachable from a corrupted
                    # deserialised dictionary.
                    raise CorruptedStreamError(
                        f"dictionary entry {index} is empty",
                        category=CATEGORY_STRUCTURE,
                    )
                for j, opcode_id in enumerate(entry.opcodes):
                    spec = ID_TO_SPEC[opcode_id]
                    regs: List[int] = []
                    for slot in range(len(register_slots(spec))):
                        bound = entry.reg_binding(j, slot)
                        if bound is None:
                            regs.append(decoders["regs"].decode_symbol(reader))
                        else:
                            regs.append(bound)
                    imm16 = None
                    if uses_imm16(spec):
                        imm16 = entry.imm16_binding(j)
                        if imm16 is None:
                            hi = decoders["imm16_hi"].decode_symbol(reader)
                            lo = decoders["imm16_lo"].decode_symbol(reader)
                            imm16 = (hi << 8) | lo
                    imm26 = None
                    if uses_imm26(spec):
                        imm26 = entry.imm26_binding(j)
                        if imm26 is None:
                            hi = decoders["imm26_hi"].decode_symbol(reader)
                            mid = decoders["imm26_lo"].decode_symbol(reader)
                            lo = decoders["imm26_lo"].decode_symbol(reader)
                            imm26 = (hi << 16) | (mid << 8) | lo
                    rec = InstrRec(opcode_id, tuple(regs), imm16, imm26)
                    words.append(rec.to_word())
            if len(words) != expected:
                raise ValueError(
                    f"block {block_index}: dictionary group crossed the block "
                    f"boundary ({len(words)} != {expected} instructions)"
                )
            return words_to_bytes(words, 4)

    def _original_block_bytes(self, image: CompressedImage, block_index: int) -> int:
        full_blocks, tail = divmod(image.original_size, image.block_size)
        if block_index < full_blocks:
            return image.block_size
        if block_index == full_blocks and tail:
            return tail
        raise IndexError(f"block {block_index} out of range")
