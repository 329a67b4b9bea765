"""Tests for SADC dictionary entries and the dictionary container."""

import pytest

from repro.core.sadc.entry import (
    BOUND_IMM16_BITS,
    BOUND_REG_BITS,
    OPCODE_BITS,
    DictEntry,
    Dictionary,
)


class TestDictEntry:
    def test_single_opcode_storage(self):
        entry = DictEntry(opcodes=(5,))
        assert entry.length == 1
        assert entry.storage_bits == OPCODE_BITS

    def test_concat_shifts_bindings(self):
        left = DictEntry(opcodes=(1,), bound_regs=((0, 0, 31),))
        right = DictEntry(opcodes=(2, 3), bound_imm16=((1, 0x10),))
        merged = left.concat(right)
        assert merged.opcodes == (1, 2, 3)
        assert merged.bound_regs == ((0, 0, 31),)
        assert merged.bound_imm16 == ((2, 0x10),)  # shifted by left length

    def test_bind_reg(self):
        entry = DictEntry(opcodes=(7,)).bind_reg(0, 1, 29)
        assert entry.reg_binding(0, 1) == 29
        assert entry.reg_binding(0, 0) is None
        assert entry.storage_bits == OPCODE_BITS + BOUND_REG_BITS

    def test_double_bind_rejected(self):
        entry = DictEntry(opcodes=(7,)).bind_reg(0, 1, 29)
        with pytest.raises(ValueError):
            entry.bind_reg(0, 1, 30)

    def test_bind_imm16(self):
        entry = DictEntry(opcodes=(7,)).bind_imm16(0, 0xFFF8)
        assert entry.imm16_binding(0) == 0xFFF8
        assert entry.storage_bits == OPCODE_BITS + BOUND_IMM16_BITS
        with pytest.raises(ValueError):
            entry.bind_imm16(0, 0)

    def test_bind_imm26(self):
        entry = DictEntry(opcodes=(7,)).bind_imm26(0, 0x40)
        assert entry.imm26_binding(0) == 0x40
        with pytest.raises(ValueError):
            entry.bind_imm26(0, 1)

    def test_hashable_for_dedup(self):
        a = DictEntry(opcodes=(1, 2))
        b = DictEntry(opcodes=(1, 2))
        assert a == b and hash(a) == hash(b)

    def test_cached_fields_leave_identity_alone(self):
        entry = DictEntry(opcodes=(1, 2)).bind_reg(1, 0, 29).bind_imm16(0, 4)
        assert entry.length == 2
        assert entry.rank == (2, 2)
        assert entry.storage_bits == (
            2 * OPCODE_BITS + BOUND_REG_BITS + BOUND_IMM16_BITS
        )
        fields = (entry.opcodes, entry.bound_regs, entry.bound_imm16, ())
        assert hash(entry) == hash(fields)
        assert repr(entry) == (
            "DictEntry(opcodes=(1, 2), bound_regs=((1, 0, 29),), "
            "bound_imm16=((0, 4),), bound_imm26=())"
        )


class TestDictionary:
    def test_add_and_lookup(self):
        dictionary = Dictionary()
        index = dictionary.add(DictEntry(opcodes=(3,)))
        assert index == 0
        assert DictEntry(opcodes=(3,)) in dictionary
        assert len(dictionary) == 1

    def test_add_idempotent(self):
        dictionary = Dictionary()
        first = dictionary.add(DictEntry(opcodes=(3,)))
        second = dictionary.add(DictEntry(opcodes=(3,)))
        assert first == second
        assert len(dictionary) == 1

    def test_capacity_enforced(self):
        dictionary = Dictionary(max_entries=2)
        dictionary.add(DictEntry(opcodes=(0,)))
        dictionary.add(DictEntry(opcodes=(1,)))
        assert dictionary.is_full
        with pytest.raises(ValueError):
            dictionary.add(DictEntry(opcodes=(2,)))

    def test_candidates_longest_first(self):
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(5,)))
        dictionary.add(DictEntry(opcodes=(5, 6, 7)))
        dictionary.add(DictEntry(opcodes=(5, 6)))
        candidates = dictionary.candidates_starting_with(5)
        lengths = [dictionary.entries[i].length for i in candidates]
        assert lengths == sorted(lengths, reverse=True)

    def test_bound_entries_before_plain_of_same_length(self):
        dictionary = Dictionary()
        plain = dictionary.add(DictEntry(opcodes=(5,)))
        bound = dictionary.add(DictEntry(opcodes=(5,)).bind_reg(0, 0, 31))
        candidates = dictionary.candidates_starting_with(5)
        assert candidates.index(bound) < candidates.index(plain)

    def test_equal_rank_keeps_insertion_order(self):
        # A new entry goes after every entry of equal rank: a parse that
        # chose an entry is never changed by a later equal-rank one.
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(5,)))
        first = dictionary.add(DictEntry(opcodes=(5, 6)))
        bound = dictionary.add(DictEntry(opcodes=(5, 6)).bind_reg(0, 0, 31))
        second = dictionary.add(DictEntry(opcodes=(5, 7)))
        longer = dictionary.add(DictEntry(opcodes=(5, 6, 7)))
        third = dictionary.add(DictEntry(opcodes=(5, 8)))
        plain = dictionary.add(DictEntry(opcodes=(5,)).bind_imm16(0, 1))
        assert dictionary.candidates_starting_with(5) == [
            longer, bound, first, second, third, plain, 0,
        ]

    def test_storage_bits_sums_entries(self):
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(1,)))
        dictionary.add(DictEntry(opcodes=(1, 2)))
        assert dictionary.storage_bits == OPCODE_BITS * 3

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(max_entries=0)

    def test_candidates_for_unknown_opcode(self):
        assert Dictionary().candidates_starting_with(9) == []
