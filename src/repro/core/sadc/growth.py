"""Candidate bookkeeping shared by the SADC dictionary builders.

Each gain cycle of Section 4.1 inserts a handful of entries, and most
blocks parse the same way before and after.  :class:`CandidateCounts`
therefore keeps every candidate count as the sum of per-block
contributions: when a builder reparses a block it hands over the
block's new candidate keys, and only that block's old contribution is
subtracted and the new one added.

The builders walk candidates in a fixed order: gain (descending), then
category (the order the builder numbers them in), then first
occurrence in block order and, within a block, in the order the
builder lists the keys.  That is the order a stable sort by gain gives
when every candidate is recounted from scratch in block order, so an
incremental build inserts the same entries at the same indices.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

#: A candidate key: the dictionary indices (and, for a binding, the
#: instruction, slot and value) a candidate entry is made from.
Key = Tuple[int, ...]
#: One block's contribution: per category, its keys in first-seen order
#: (a key appears once per occurrence).
BlockKeys = Sequence[List[Key]]
#: Positive gain -> the ``(category, key)`` candidates with that gain.
GainLevels = Dict[int, List[Tuple[int, Key]]]


class CandidateCounts:
    """Candidate counts over all blocks, kept as per-block deltas."""

    def __init__(self, categories: int) -> None:
        self.totals: List[Dict[Key, int]] = [
            {} for _ in range(categories)
        ]
        self._blocks: List[BlockKeys] = []

    def append_block(self, keys: BlockKeys) -> None:
        """Count the contribution of the next block."""
        self._blocks.append(keys)
        for totals, block_keys in zip(self.totals, keys):
            for key in block_keys:
                totals[key] = totals.get(key, 0) + 1

    def replace_block(self, block: int, keys: BlockKeys) -> None:
        """Swap block ``block``'s contribution for ``keys``."""
        old = self._blocks[block]
        self._blocks[block] = keys
        for totals, old_keys, new_keys in zip(self.totals, old, keys):
            for key in old_keys:
                count = totals[key] - 1
                if count:
                    totals[key] = count
                else:
                    del totals[key]
            for key in new_keys:
                totals[key] = totals.get(key, 0) + 1

    def first_seen(self, category: int, key: Key) -> Tuple[int, int]:
        """(block, position in that block's keys) of the first occurrence."""
        for block, keys in enumerate(self._blocks):
            block_keys = keys[category]
            if key in block_keys:
                return block, block_keys.index(key)
        raise KeyError(key)

    def in_walk_order(self, levels: GainLevels) -> Iterator[Tuple[int, Key]]:
        """Yield ``(category, key)`` by gain, category, first occurrence.

        ``levels`` maps each positive gain to its candidates.  Ties are
        broken lazily, one gain level at a time, so a walk that stops
        early never looks up the first occurrence of the rest.
        """
        for gain in sorted(levels, reverse=True):
            level = levels[gain]
            if len(level) > 1:
                level.sort(key=lambda item: (item[0], self.first_seen(*item)))
            yield from level
