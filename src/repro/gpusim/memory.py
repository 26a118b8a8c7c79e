"""Banked shared memory with wavefront accounting.

Models the geometry every platform in Table 2 shares: 32 banks of 4
bytes, 128-byte transactions.  A warp access is split into 128-byte
transactions (wide vectors span several), and within each transaction
the cost is the worst-case number of distinct words any bank must
serve — same-word broadcast is free on loads, which is how real
hardware behaves and what Lemma 9.4 predicts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.spec import GpuSpec


class SharedMemory:
    """Element-addressed shared memory with byte-level bank modeling."""

    def __init__(self, spec: GpuSpec, elem_bytes: int):
        if elem_bytes < 1:
            raise ValueError("elem_bytes must be >= 1")
        self.spec = spec
        self.elem_bytes = elem_bytes
        self._data: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def write(self, offset: int, value: object) -> None:
        """Store a value at an element offset."""
        self._data[offset] = value

    def read(self, offset: int) -> object:
        """Load the value at an element offset; raises if unwritten."""
        if offset not in self._data:
            raise KeyError(f"shared read of unwritten offset {offset}")
        return self._data[offset]

    def __contains__(self, offset: int) -> bool:
        return offset in self._data

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Cost plane
    # ------------------------------------------------------------------
    def wavefronts(
        self,
        accesses: Sequence[Tuple[int, int]],
        is_store: bool,
    ) -> int:
        """Wavefronts for one warp-wide access.

        ``accesses`` is a list of ``(element_offset, num_elements)``
        per participating lane.  The cost is the maximum number of
        distinct 4-byte words any bank must serve, so a vector wider
        than one 128-byte transaction costs its extra transactions and
        same-word broadcast is free.  ``is_store`` does not change the
        count.  This is the per-access reference for
        :func:`access_wavefronts`, which prices many accesses at once.
        """
        if not accesses:
            return 0
        spec = self.spec
        words_by_bank: Dict[int, set] = {}
        for offset, count in accesses:
            start = offset * self.elem_bytes
            end = start + count * self.elem_bytes
            word0 = start // spec.bank_bytes
            word1 = (end + spec.bank_bytes - 1) // spec.bank_bytes
            for word in range(word0, word1):
                bank = word % spec.num_banks
                words_by_bank.setdefault(bank, set()).add(word)
        return max(len(words) for words in words_by_bank.values())


def access_wavefronts(
    spec: GpuSpec,
    elem_bytes: int,
    group: np.ndarray,
    offsets: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Wavefronts of many warp-wide accesses, one per group.

    Element ``e`` (at element offset ``offsets[e]``) belongs to the
    warp access ``group[e]``.  Each group costs what
    :meth:`SharedMemory.wavefronts` charges its elements: the most
    distinct words any bank serves.  An element wider than a bank
    word (8-byte elements) touches every word it spans.  Groups with
    no elements cost 0.
    """
    nb = spec.num_banks
    if not len(offsets):
        return np.zeros(num_groups, dtype=np.int64)
    start = offsets * elem_bytes
    first = start // spec.bank_bytes
    last = (start + elem_bytes - 1) // spec.bank_bytes
    span = int((last - first).max()) + 1
    words = np.concatenate([first + t for t in range(span)])
    groups = np.tile(group, span)
    if span > 1:
        touched = words <= np.tile(last, span)
        words, groups = words[touched], groups[touched]
    stride = int(words.max()) + 1
    distinct = np.unique(groups * stride + words)
    per_bank = np.bincount(
        (distinct // stride) * nb + (distinct % stride) % nb,
        minlength=num_groups * nb,
    )
    return per_bank.reshape(num_groups, nb).max(axis=1)


def matrix_insts(table, elem_bytes: int) -> int:
    """ld/stmatrix instructions an access table needs: each moves 16
    bytes per thread, so the busiest thread sets the count."""
    return max(1, (table.max_thread_elems() * elem_bytes + 15) // 16)


def shared_access_cost(
    table, spec: GpuSpec, elem_bytes: int, num_warps: int
) -> Optional[Tuple[int, int, int]]:
    """``(vector_bits, count, wavefronts)`` of one STS/LDS access table.

    ``count`` is the busiest thread's access count.  Access ``k``
    costs its worst warp among the first ``num_warps``; ``wavefronts``
    is the per-access average of that cost (at least 1) and
    ``vector_bits`` the widest vector those warps issue.  ``None``
    when the table is empty.
    """
    count = table.num_accesses()
    if count == 0:
        return None
    ws = spec.warp_size
    issued = table.head(num_warps * ws)
    waves = access_wavefronts(
        spec,
        elem_bytes,
        issued.k * num_warps + issued.tid // ws,
        issued.off,
        count * num_warps,
    )
    total = int(waves.reshape(count, num_warps).max(axis=1).sum())
    return (
        issued.widest() * elem_bytes * 8,
        count,
        max(1, total // count),
    )
