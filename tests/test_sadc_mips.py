"""Tests for MIPS SADC: records, parsing, dictionary build, codec."""

import pytest

from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.sadc.mips import InstrRec, MipsSadcCodec, parse_block
from repro.isa.mips.asm import assemble_one, assemble_to_bytes
from repro.isa.mips.streams import OPCODE_IDS


def _rec(text: str) -> InstrRec:
    return InstrRec.from_word(assemble_one(text).encode())


class TestInstrRec:
    def test_roundtrip(self):
        for text in ("addu $v0, $a0, $a1", "lw $t0, 4($sp)", "jal 0x400",
                     "sll $t0, $t1, 2", "jr $ra", "add.d $f0, $f2, $f4"):
            word = assemble_one(text).encode()
            assert InstrRec.from_word(word).to_word() == word

    def test_fields(self):
        rec = _rec("lw $t0, 8($sp)")
        assert rec.opcode_id == OPCODE_IDS["lw"]
        assert rec.regs == (8, 29)
        assert rec.imm16 == 8
        assert rec.imm26 is None

    def test_jump_fields(self):
        rec = _rec("jal 0x400")
        assert rec.imm26 == 0x100
        assert rec.regs == ()

    def test_non_canonical_rejected(self):
        # blez with a non-zero rt field is not producible by the encoder.
        bad = (0x06 << 26) | (5 << 21) | (7 << 16) | 4
        with pytest.raises(ValueError):
            InstrRec.from_word(bad)


class TestParse:
    def _instrs(self):
        return [_rec(t) for t in (
            "addiu $sp, $sp, -24",
            "sw $ra, 20($sp)",
            "lw $ra, 20($sp)",
            "jr $ra",
        )]

    def _dictionary_with_singles(self, instrs):
        dictionary = Dictionary()
        for rec in instrs:
            entry = DictEntry(opcodes=(rec.opcode_id,))
            if entry not in dictionary:
                dictionary.add(entry)
        return dictionary

    def test_singles_parse(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        tokens = parse_block(dictionary, instrs)
        assert len(tokens) == 4
        assert [pos for _i, pos in tokens] == [0, 1, 2, 3]

    def test_group_preferred(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        group = DictEntry(opcodes=(instrs[2].opcode_id, instrs[3].opcode_id))
        group_index = dictionary.add(group)
        tokens = parse_block(dictionary, instrs)
        assert tokens[-1][0] == group_index
        assert len(tokens) == 3

    def test_bound_entry_only_matches_binding(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        jr_id = instrs[3].opcode_id
        bound = dictionary.add(DictEntry(opcodes=(jr_id,)).bind_reg(0, 0, 31))
        tokens = parse_block(dictionary, instrs)
        assert tokens[-1][0] == bound  # jr $ra matches the bound form
        other = [_rec("jr $t9")]
        dictionary2 = self._dictionary_with_singles(instrs + other)
        dictionary2.add(DictEntry(opcodes=(jr_id,)).bind_reg(0, 0, 31))
        tokens2 = parse_block(dictionary2, other)
        assert dictionary2.entries[tokens2[0][0]].bound_regs == ()

    def test_resumed_parse_is_the_tail_of_the_full_parse(self):
        instrs = self._instrs()
        dictionary = self._dictionary_with_singles(instrs)
        group = DictEntry(opcodes=(instrs[2].opcode_id, instrs[3].opcode_id))
        dictionary.add(group)
        full =parse_block(dictionary, instrs)
        for i, (_index, pos) in enumerate(full):
            assert parse_block(dictionary, instrs, pos) == full[i:]

    def test_missing_single_raises(self):
        with pytest.raises(ValueError):
            parse_block(Dictionary(), self._instrs())


class TestCodec:
    def test_roundtrip(self, mips_program):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_random_access_every_block(self, mips_program):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program)
        for index in range(image.block_count()):
            want = mips_program[index * 32 : (index + 1) * 32]
            assert codec.decompress_block(image, index) == want

    def test_dictionary_capped_at_256(self, mips_program_large):
        codec = MipsSadcCodec()
        image = codec.compress(mips_program_large)
        assert len(image.metadata["dictionary"]) <= 256

    def test_groups_never_cross_blocks(self, mips_program):
        # Implied by random access, but check the parse directly.
        codec = MipsSadcCodec()
        blocks = codec._decode_blocks(mips_program)
        dictionary = codec.build_dictionary(blocks)
        for block in blocks:
            tokens = parse_block(dictionary, block)
            covered = sum(
                dictionary.entries[i].length for i, _pos in tokens
            )
            assert covered == len(block)

    def test_ablation_groups_off(self, mips_program):
        codec = MipsSadcCodec(enable_groups=False)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert all(
            entry.length == 1
            for entry in image.metadata["dictionary"].entries
        )

    def test_ablation_bindings_off(self, mips_program):
        codec = MipsSadcCodec(enable_reg_binding=False,
                              enable_imm_binding=False)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert all(
            not entry.bound_regs and not entry.bound_imm16
            and not entry.bound_imm26
            for entry in image.metadata["dictionary"].entries
        )

    def test_single_insert_mode(self, mips_program):
        # batch_inserts=1 is the paper's one-candidate-per-cycle loop.
        codec = MipsSadcCodec(batch_inserts=1, max_cycles=6)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program

    def test_small_dictionary(self, mips_program):
        codec = MipsSadcCodec(max_entries=64)
        image = codec.compress(mips_program)
        assert codec.decompress(image) == mips_program
        assert len(image.metadata["dictionary"]) <= 64

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            MipsSadcCodec(block_size=30)

    def test_compresses(self, mips_program_large):
        image = MipsSadcCodec().compress(mips_program_large)
        assert image.payload_ratio < 0.7

    def test_beats_plain_singles(self, mips_program_large):
        rich = MipsSadcCodec().compress(mips_program_large)
        plain = MipsSadcCodec(
            enable_groups=False, enable_reg_binding=False,
            enable_imm_binding=False,
        ).compress(mips_program_large)
        assert rich.payload_ratio < plain.payload_ratio

    def test_block_size_variants(self, mips_program):
        for block_size in (16, 64):
            codec = MipsSadcCodec(block_size=block_size)
            image = codec.compress(mips_program)
            assert codec.decompress(image) == mips_program


class TestStaticDictionary:
    def test_covers_unseen_programs(self, mips_program, mips_program_large):
        codec = MipsSadcCodec()
        static = codec.build_static_dictionary([mips_program])
        # A dictionary trained on one program must still parse another.
        image = codec.compress(mips_program_large, dictionary=static)
        assert codec.decompress(image) == mips_program_large

    def test_seeds_every_mnemonic(self, mips_program):
        from repro.core.sadc.entry import DictEntry
        from repro.isa.mips.streams import ID_TO_SPEC

        codec = MipsSadcCodec(max_entries=512)
        static = codec.build_static_dictionary([mips_program])
        for opcode_id in ID_TO_SPEC:
            assert DictEntry(opcodes=(opcode_id,)) in static

    def test_semiadaptive_beats_static_on_held_out(
        self, mips_program, mips_program_large
    ):
        codec = MipsSadcCodec()
        static = codec.build_static_dictionary([mips_program])
        semiadaptive = codec.compress(mips_program_large).payload_ratio
        held_out = codec.compress(
            mips_program_large, dictionary=static
        ).payload_ratio
        assert semiadaptive <= held_out + 1e-9
