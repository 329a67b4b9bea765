"""Tests for Huffman coding: optimality, canonical form, codec."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.io import BitReader, BitWriter
from repro.entropy.huffman import (
    MAX_TABLE_BITS,
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    build_code,
    build_code_from_symbols,
    canonical_codewords,
    code_lengths,
)
from repro.entropy.stats import entropy_bits
from repro.resilience.errors import CorruptedStreamError


class TestCodeLengths:
    def test_empty(self):
        assert code_lengths({}) == {}

    def test_single_symbol_gets_one_bit(self):
        assert code_lengths({42: 100}) == {42: 1}

    def test_two_symbols(self):
        assert code_lengths({0: 9, 1: 1}) == {0: 1, 1: 1}

    def test_uniform_four_symbols(self):
        lengths = code_lengths({i: 5 for i in range(4)})
        assert all(length == 2 for length in lengths.values())

    def test_skewed_lengths(self):
        lengths = code_lengths({0: 8, 1: 4, 2: 2, 3: 1, 4: 1})
        assert lengths[0] == 1
        assert lengths[1] == 2
        assert lengths[3] == 4 and lengths[4] == 4

    def test_zero_counts_excluded(self):
        lengths = code_lengths({0: 10, 1: 0})
        assert 1 not in lengths

    def test_deterministic(self):
        counts = {i: (i * 7) % 5 + 1 for i in range(20)}
        assert code_lengths(counts) == code_lengths(dict(counts))


@given(st.dictionaries(st.integers(0, 63), st.integers(1, 500),
                       min_size=2, max_size=32))
def test_kraft_equality(counts):
    # Huffman codes are complete: Kraft sum is exactly 1.
    lengths = code_lengths(counts)
    assert sum(2.0 ** -l for l in lengths.values()) == pytest.approx(1.0)


@given(st.dictionaries(st.integers(0, 63), st.integers(1, 500),
                       min_size=2, max_size=32))
def test_huffman_within_one_bit_of_entropy(counts):
    code = build_code(counts)
    mean = code.mean_length(counts)
    h = entropy_bits(counts)
    assert h - 1e-9 <= mean <= h + 1.0


class TestCanonical:
    def test_prefix_free(self):
        counts = {i: (i % 7) + 1 for i in range(30)}
        code = build_code(counts)
        words = [
            format(code.codewords[s], f"0{code.lengths[s]}b")
            for s in code.lengths
        ]
        for a in words:
            for b in words:
                if a is not b:
                    assert not b.startswith(a)

    def test_sorted_by_length_then_symbol(self):
        lengths = {0: 2, 1: 1, 2: 3, 3: 3}
        codewords = canonical_codewords(lengths)
        assert codewords[1] == 0b0
        assert codewords[0] == 0b10
        assert codewords[2] == 0b110
        assert codewords[3] == 0b111


class TestCodec:
    def test_roundtrip(self):
        symbols = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        code = build_code_from_symbols(symbols)
        encoder = HuffmanEncoder(code)
        decoder = HuffmanDecoder(code)
        assert decoder.decode(encoder.encode(symbols), len(symbols)) == symbols

    def test_encoded_bits_exact(self):
        symbols = [0, 0, 0, 1]
        code = build_code_from_symbols(symbols)
        encoder = HuffmanEncoder(code)
        assert encoder.encoded_bits(symbols) == 4  # 3*1 + 1*1

    def test_unknown_symbol_rejected(self):
        code = build_code({0: 1, 1: 1})
        with pytest.raises(KeyError):
            HuffmanEncoder(code).encode([2])

    def test_invalid_bits_rejected(self):
        code = build_code({0: 3, 1: 2, 2: 1})
        decoder = HuffmanDecoder(code)
        # An all-ones stream longer than the max code length that maps to
        # nothing must raise rather than loop.
        max_len = max(code.lengths.values())
        bad = int("1" * (max_len + 2), 2)
        writer = BitWriter()
        writer.write_bits(bad, max_len + 2)
        reader = BitReader(writer.getvalue(), pad=True)
        try:
            decoder.decode_from(reader, 4)
        except (ValueError, EOFError):
            pass  # either is acceptable termination

    def test_shared_writer_interleaving(self):
        # SADC interleaves several Huffman streams in one writer.
        code_a = build_code({0: 3, 1: 1})
        code_b = build_code({7: 1, 9: 1})
        writer = BitWriter()
        HuffmanEncoder(code_a).encode_to(writer, [0, 1])
        HuffmanEncoder(code_b).encode_to(writer, [9])
        reader = BitReader(writer.getvalue())
        assert HuffmanDecoder(code_a).decode_from(reader, 2) == [0, 1]
        assert HuffmanDecoder(code_b).decode_from(reader, 1) == [9]


@given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
def test_codec_roundtrip_property(symbols):
    code = build_code_from_symbols(symbols)
    encoded = HuffmanEncoder(code).encode(symbols)
    assert HuffmanDecoder(code).decode(encoded, len(symbols)) == symbols


def test_table_bits_accounting():
    code = build_code({0: 1, 1: 2, 2: 4})
    assert code.table_bits(8) == 3 * 13


def test_mean_length_empty_counts():
    code = build_code({0: 1})
    assert code.mean_length({}) == 0.0


# -- flat table vs bit walk ---------------------------------------------------
#
# The table decoder's private bit walk is its specification: on any
# table — overfull, non-prefix, duplicate codewords, codewords wider
# than their length, deeper than the flat table — and any bytes, the
# table must decode the same symbols, stop at the same bit position,
# and fail with the same exception (type, category, offset).


@st.composite
def _codes(draw):
    lengths = draw(st.dictionaries(
        st.integers(0, 300), st.integers(1, 20), max_size=24,
    ))
    if draw(st.booleans()):
        codewords = canonical_codewords(lengths)
    else:
        # Arbitrary words: duplicates, collisions, words too wide or
        # negative.
        codewords = {
            symbol: draw(st.integers(-1, (1 << (length + 1)) - 1))
            for symbol, length in lengths.items()
        }
    return HuffmanCode(lengths=lengths, codewords=codewords)


_ops = st.lists(
    st.one_of(st.just(0), st.integers(1, 13)), min_size=1, max_size=40,
)


def _run(code, data, pad, ops, oracle):
    """Apply ``ops`` (0 = one symbol, k > 0 = ``read_bits(k)``)."""
    decoder = HuffmanDecoder(code)
    reader = BitReader(data, pad=pad)
    results = []
    try:
        for op in ops:
            if op:
                results.append(("bits", reader.read_bits(op)))
            elif oracle:
                results.append(("sym", decoder._walk_symbol(reader)))
            else:
                results.append(("sym", decoder.decode_symbol(reader)))
    except CorruptedStreamError as error:
        results.append(("corrupt", error.category, error.offset))
    except EOFError as error:
        results.append(("eof", str(error)))
    return results, reader.bit_position


@settings(max_examples=400, deadline=None)
@given(_codes(), st.binary(max_size=12), st.booleans(), _ops)
def test_table_matches_walk_interleaved(code, data, pad, ops):
    assert _run(code, data, pad, ops, oracle=False) == _run(
        code, data, pad, ops, oracle=True
    )


@settings(max_examples=200, deadline=None)
@given(_codes(), st.binary(max_size=12), st.integers(0, 30))
def test_decode_from_matches_walk(code, data, count):
    def run(oracle):
        decoder = HuffmanDecoder(code)
        reader = BitReader(data)
        try:
            if oracle:
                out = [decoder._walk_symbol(reader) for _ in range(count)]
            else:
                out = decoder.decode_from(reader, count)
        except CorruptedStreamError as error:
            out = ("corrupt", error.category, error.offset)
        except EOFError:
            out = "eof"
        return out, reader.bit_position

    assert run(oracle=False) == run(oracle=True)


def test_table_edge_cases():
    # Single symbol, empty table, deeper than the flat table.
    single = build_code({5: 1})
    assert HuffmanDecoder(single).decode(b"\x00", 8) == [5] * 8
    assert HuffmanDecoder(single).table is not None
    empty = HuffmanCode(lengths={}, codewords={})
    assert HuffmanDecoder(empty).table is None
    with pytest.raises(CorruptedStreamError):
        HuffmanDecoder(empty).decode(b"\x00", 1)
    deep_lengths = {s: s + 1 for s in range(MAX_TABLE_BITS + 1)}
    deep_lengths[MAX_TABLE_BITS + 1] = MAX_TABLE_BITS + 1
    deep = HuffmanCode(deep_lengths, canonical_codewords(deep_lengths))
    assert HuffmanDecoder(deep).table is None
    symbols = [0, MAX_TABLE_BITS + 1, 3, MAX_TABLE_BITS]
    encoded = HuffmanEncoder(deep).encode(symbols)
    assert HuffmanDecoder(deep).decode(encoded, 4) == symbols


def test_shortest_duplicate_and_wide_codewords_follow_walk():
    # 0 -> "0" shadows 1 -> "01"; 2 and 3 share "11" (the walk's dict
    # keeps the last); 4's word does not fit its length.
    code = HuffmanCode(
        lengths={0: 1, 1: 2, 2: 2, 3: 2, 4: 2},
        codewords={0: 0b0, 1: 0b01, 2: 0b11, 3: 0b11, 4: 0b100},
    )
    reader = BitReader(bytes([0b01111000]))
    assert HuffmanDecoder(code).decode_from(reader, 4) == [0, 3, 3, 0]
    assert HuffmanDecoder(code).decode_from(BitReader(b"\xc0"), 1) == [3]


def test_compiled_once_and_invisible():
    code = build_code({i: i + 1 for i in range(40)})
    twin = build_code({i: i + 1 for i in range(40)})
    before = repr(code)
    first = HuffmanDecoder(code).table
    assert HuffmanDecoder(code).table[0] is first[0]
    assert repr(code) == before
    assert code == twin
    with pytest.raises(TypeError):
        hash(code)  # dict fields: unhashable before and after


def test_truncated_codeword_raises_eof_at_walk_position():
    code = build_code({0: 1, 1: 1, 2: 1, 3: 1, 4: 8})
    long_symbol = max(code.lengths, key=code.lengths.get)
    writer = BitWriter()
    HuffmanEncoder(code).encode_to(writer, [long_symbol] * 3)
    data = writer.getvalue()[:-1]
    reader = BitReader(data)
    with pytest.raises(EOFError):
        HuffmanDecoder(code).decode_from(reader, 3)
    assert reader.bit_position == 8 * len(data)
