"""Differential test: the incremental SADC dictionary builders against
the reparse-everything reference loop.

The two ``oracle_*`` functions below are the original Section 4.1
builders, kept verbatim: every gain cycle reparses every block, recounts
every candidate, builds and sorts one ``DictEntry`` per candidate, and
inserts the best ``batch_inserts``.  The codecs' ``build_dictionary``
must produce the same entries in the same order (indices are wire
format) for every program and every builder setting exercised here.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import List, Sequence, Tuple

import pytest

from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.sadc.mips import InstrRec, MipsSadcCodec
from repro.core.sadc.mips import parse_block as mips_parse_block
from repro.core.sadc.x86 import (
    X86Dictionary,
    X86Entry,
    X86SadcCodec,
    _entry_storage_bits,
    _opcode_entry,
)
from repro.core.sadc.x86 import parse_block as x86_parse_block
from repro.isa.mips.streams import ID_TO_SPEC
from repro.workloads.profiles import BENCHMARK_NAMES
from repro.workloads.suite import generate_benchmark

SCALE = {"mips": 0.05, "x86": 0.1}
SEED = 3


# -- the reference builders --------------------------------------------------


def oracle_mips_build(
    self: MipsSadcCodec,
    blocks: Sequence[Sequence[InstrRec]],
    seed_all_opcodes: bool = False,
) -> Dictionary:
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

    for _cycle in range(self.max_cycles):
        if dictionary.is_full:
            break
        parses = [mips_parse_block(dictionary, block) for block in blocks]
        candidates = oracle_mips_gather(self, dictionary, blocks, parses)
        inserted = 0
        for gain, entry in candidates:
            if gain <= 0 or dictionary.is_full:
                break
            if entry in dictionary:
                continue
            dictionary.add(entry)
            inserted += 1
            if inserted >= self.batch_inserts:
                break
        if inserted == 0:
            break
    return dictionary


def oracle_mips_gather(self, dictionary, blocks, parses):
    entries = dictionary.entries
    pair_counts: Counter = Counter()
    triple_counts: Counter = Counter()
    reg_counts: Counter = Counter()
    imm16_counts: Counter = Counter()
    imm26_counts: Counter = Counter()

    for block, tokens in zip(blocks, parses):
        if self.enable_groups:
            for i in range(len(tokens) - 1):
                pair_counts[(tokens[i][0], tokens[i + 1][0])] += 1
            if self.max_group_tokens >= 3:
                for i in range(len(tokens) - 2):
                    triple_counts[
                        (tokens[i][0], tokens[i + 1][0], tokens[i + 2][0])
                    ] += 1
        for index, pos in tokens:
            entry = entries[index]
            for j in range(entry.length):
                rec = block[pos + j]
                if self.enable_reg_binding:
                    for slot, value in enumerate(rec.regs):
                        if entry.reg_binding(j, slot) is None:
                            reg_counts[(index, j, slot, value)] += 1
                if self.enable_imm_binding:
                    if rec.imm16 is not None and entry.imm16_binding(j) is None:
                        imm16_counts[(index, j, rec.imm16)] += 1
                    if rec.imm26 is not None and entry.imm26_binding(j) is None:
                        imm26_counts[(index, j, rec.imm26)] += 1

    scored: List[Tuple[int, DictEntry]] = []
    for (a, b), f in pair_counts.items():
        entry = entries[a].concat(entries[b])
        scored.append((f * 8 - entry.storage_bits, entry))
    for (a, b, c), f in triple_counts.items():
        entry = entries[a].concat(entries[b]).concat(entries[c])
        scored.append((f * 16 - entry.storage_bits, entry))
    for (index, j, slot, value), f in reg_counts.items():
        entry = entries[index].bind_reg(j, slot, value)
        scored.append((f * 5 - entry.storage_bits, entry))
    for (index, j, value), f in imm16_counts.items():
        entry = entries[index].bind_imm16(j, value)
        scored.append((f * 16 - entry.storage_bits, entry))
    for (index, j, value), f in imm26_counts.items():
        entry = entries[index].bind_imm26(j, value)
        scored.append((f * 26 - entry.storage_bits, entry))
    scored.sort(key=lambda item: item[0], reverse=True)
    return scored


def oracle_x86_build(self: X86SadcCodec, blocks) -> X86Dictionary:
    dictionary = X86Dictionary(self.max_entries)
    per_block_entries = [
        [_opcode_entry(i) for i in block] for block in blocks
    ]
    for entries in per_block_entries:
        for entry_bytes in entries:
            single = (entry_bytes,)
            if single not in dictionary and not dictionary.is_full:
                dictionary.add(single)

    for _cycle in range(self.max_cycles):
        if dictionary.is_full:
            break
        parses = [
            x86_parse_block(dictionary, entries) for entries in per_block_entries
        ]
        pair_counts: Counter = Counter()
        triple_counts: Counter = Counter()
        for tokens in parses:
            for i in range(len(tokens) - 1):
                pair_counts[(tokens[i], tokens[i + 1])] += 1
            if self.max_group_tokens >= 3:
                for i in range(len(tokens) - 2):
                    triple_counts[(tokens[i], tokens[i + 1], tokens[i + 2])] += 1
        scored: List[Tuple[int, X86Entry]] = []
        for (a, b), f in pair_counts.items():
            entry = dictionary.entries[a] + dictionary.entries[b]
            scored.append((f * 8 - _entry_storage_bits(entry), entry))
        for (a, b, c), f in triple_counts.items():
            entry = (
                dictionary.entries[a]
                + dictionary.entries[b]
                + dictionary.entries[c]
            )
            scored.append((f * 16 - _entry_storage_bits(entry), entry))
        scored.sort(key=lambda item: item[0], reverse=True)
        inserted = 0
        for gain, entry in scored:
            if gain <= 0 or dictionary.is_full:
                break
            if entry in dictionary:
                continue
            dictionary.add(entry)
            inserted += 1
            if inserted >= self.batch_inserts:
                break
        if inserted == 0:
            break
    return dictionary


# -- the differential checks -------------------------------------------------


@lru_cache(maxsize=None)
def _code(name: str, isa: str) -> bytes:
    return generate_benchmark(name, isa, scale=SCALE[isa], seed=SEED).code


MIPS_CONFIGS = {
    "defaults": {},
    "batch1": {"batch_inserts": 1},
    "cap64": {"max_entries": 64},
    "no-groups": {"enable_groups": False},
    "no-bindings": {"enable_reg_binding": False, "enable_imm_binding": False},
    "pairs-only": {"max_group_tokens": 2},
    "block16": {"block_size": 16},
    "block64": {"block_size": 64},
}

X86_CONFIGS = {
    "defaults": {},
    "batch1": {"batch_inserts": 1},
    "cap64": {"max_entries": 64},
    "pairs-only": {"max_group_tokens": 2},
    "block64": {"block_size": 64},
}


@pytest.mark.parametrize("config", sorted(MIPS_CONFIGS))
def test_mips_builder_matches_oracle(config):
    codec = MipsSadcCodec(**MIPS_CONFIGS[config])
    for name in BENCHMARK_NAMES:
        blocks = codec._decode_blocks(_code(name, "mips"))
        expected = oracle_mips_build(codec, blocks).entries
        assert codec.build_dictionary(blocks).entries == expected, name


def test_mips_static_builder_matches_oracle():
    codec = MipsSadcCodec()
    corpus = [_code(name, "mips") for name in BENCHMARK_NAMES[:6]]
    blocks = [block for code in corpus for block in codec._decode_blocks(code)]
    expected = oracle_mips_build(codec, blocks, seed_all_opcodes=True).entries
    assert codec.build_static_dictionary(corpus).entries == expected


@pytest.mark.parametrize("config", sorted(X86_CONFIGS))
def test_x86_builder_matches_oracle(config):
    codec = X86SadcCodec(**X86_CONFIGS[config])
    for name in BENCHMARK_NAMES:
        blocks = codec._decode_blocks(_code(name, "x86"))
        expected = oracle_x86_build(codec, blocks).entries
        assert codec.build_dictionary(blocks).entries == expected, name
