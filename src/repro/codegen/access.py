"""Shared-memory access tables: a whole STS/LDS access pattern as arrays.

A staged conversion stores every register of every thread to shared
memory and loads it back.  The planner groups each thread's (offset,
register) pairs into aligned power-of-two vectors; entry ``k`` of every
thread's group list issues together as one warp instruction.  An
:class:`AccessTable` keeps that whole pattern as one element-level
table in machine order ``(k, tid, j)`` — group ``k`` of thread ``tid``
moves register ``reg`` to or from element offset ``off``, its ``j``-th
element sitting at ``off = base + j``.  Bank accounting (Lemma 9.4
counts conflicts per coset, i.e. per group index ``k``), execution and
footprint queries are then array computations over the table.

The per-thread ``((base, regs), ...)`` view is derived on demand
(:meth:`AccessTable.per_thread`) for the scalar oracle, serialization
and per-lane inspection; it is never stored.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: One thread's accesses: ``((base_offset, regs), ...)``.
ThreadAccesses = Tuple[Tuple[int, Tuple[int, ...]], ...]


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


class AccessTable:
    """Every element one STS/LDS instruction moves, in machine order.

    ``k``, ``tid``, ``reg`` and ``off`` are equal-length int64 arrays
    sorted by ``(k, tid)``, with a group's elements consecutive and in
    offset order; ``threads`` is the CTA thread count the instruction
    spans (threads without accesses have no rows).  Immutable: the
    arrays are read-only, so cached plans can share a table.
    """

    __slots__ = ("k", "tid", "reg", "off", "threads")

    def __init__(self, k, tid, reg, off, threads: int):
        self.k = _frozen(k)
        self.tid = _frozen(tid)
        self.reg = _frozen(reg)
        self.off = _frozen(off)
        self.threads = int(threads)

    @classmethod
    def from_per_thread(
        cls, accesses: Sequence[Sequence[Tuple[int, Sequence[int]]]]
    ) -> "AccessTable":
        """The table of a per-thread ``[[(base, regs), ...], ...]`` list."""
        rows = [
            (k, tid, reg, base + j)
            for tid, lane in enumerate(accesses)
            for k, (base, regs) in enumerate(lane)
            for j, reg in enumerate(regs)
        ]
        rows.sort(key=lambda row: (row[0], row[1]))  # stable: keeps j
        cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        return cls(*cols, threads=len(accesses))

    # -- derived structure ---------------------------------------------
    def group_starts(self) -> np.ndarray:
        """Row index of each group's first element, in machine order."""
        n = len(self.off)
        new = np.ones(n, dtype=bool)
        new[1:] = (self.k[1:] != self.k[:-1]) | (self.tid[1:] != self.tid[:-1])
        return np.flatnonzero(new)

    def num_accesses(self) -> int:
        """Accesses per thread of the busiest thread (warp instructions)."""
        return int(self.k.max()) + 1 if len(self.k) else 0

    def widest(self) -> int:
        """Elements of the widest vector access (0 when empty)."""
        if not len(self.off):
            return 0
        return int(np.diff(self.group_starts(), append=len(self.off)).max())

    def max_thread_elems(self) -> int:
        """Elements the busiest thread moves."""
        return int(np.bincount(self.tid).max()) if len(self.tid) else 0

    def head(self, threads: int) -> "AccessTable":
        """The accesses of threads ``< threads`` (e.g. the first warps)."""
        keep = self.tid < threads
        return AccessTable(
            self.k[keep],
            self.tid[keep],
            self.reg[keep],
            self.off[keep],
            min(threads, self.threads),
        )

    def per_thread(self) -> Tuple[ThreadAccesses, ...]:
        """``view[tid]`` is the thread's ``((base, regs), ...)`` list."""
        out = [[] for _ in range(self.threads)]
        if len(self.off):
            starts = self.group_starts()
            ends = np.append(starts[1:], len(self.off)).tolist()
            regs = self.reg.tolist()
            for tid, base, s, e in zip(
                self.tid[starts].tolist(),
                self.off[starts].tolist(),
                starts.tolist(),
                ends,
            ):
                out[tid].append((base, tuple(regs[s:e])))
        return tuple(tuple(lane) for lane in out)

    # -- indexing reads the per-thread view ------------------------------
    def __len__(self) -> int:
        return self.threads

    def __getitem__(self, index):
        return self.per_thread()[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessTable):
            return NotImplemented
        return self.threads == other.threads and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("k", "tid", "reg", "off")
        )

    def __hash__(self) -> int:
        return hash(
            (self.threads, self.k.tobytes(), self.tid.tobytes(),
             self.reg.tobytes(), self.off.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"<AccessTable {self.threads} threads x {self.num_accesses()} "
            f"accesses, {len(self.off)} elements>"
        )


def group_contiguous(
    offsets: np.ndarray,
    regs: np.ndarray,
    tids: np.ndarray,
    max_vec: int,
    threads: int,
) -> AccessTable:
    """Group every thread's (offset, reg) pairs into aligned vectors.

    Row ``t`` of the ``(T, R)`` arrays ``offsets``/``regs`` is thread
    ``tids[t]``'s pairs in issue order.  Each thread is cut greedily:
    from position ``i`` take the widest power-of-two vector (from
    ``max_vec`` down, halving) that the contiguous run at ``i`` covers
    and the base offset is aligned to, then continue after it.  Every
    lane of the warp groups the same registers whenever its offsets
    allow, so instructions align with the affine cosets the swizzle
    algorithm reasons about.  All threads are cut at once: run lengths
    come from the break positions, and the greedy chain of group starts
    from pointer doubling over the ``i -> i + vec(i)`` jumps.
    """
    n_threads, width = offsets.shape
    if n_threads == 0 or width == 0:
        return AccessTable((), (), (), (), threads)
    pos = np.arange(width)
    # Run length from each position: distance to the next break.
    breaks = np.ones(offsets.shape, dtype=bool)
    breaks[:, :-1] = offsets[:, 1:] != offsets[:, :-1] + 1
    run_end = np.minimum.accumulate(
        np.where(breaks, pos, width)[:, ::-1], axis=1
    )[:, ::-1]
    run = run_end - pos + 1
    # The greedy vector width at each position (largest candidate wins).
    candidates = []
    vec = max_vec
    while vec > 1:
        candidates.append(vec)
        vec >>= 1
    vec = np.ones(offsets.shape, dtype=np.int64)
    for c in reversed(candidates):
        vec = np.where((run >= c) & (offsets % c == 0), c, vec)
    # Group starts: the orbit of position 0 under i -> i + vec(i).
    jump = np.empty((n_threads, width + 1), dtype=np.int64)
    jump[:, :width] = pos + vec
    jump[:, width] = width
    start = np.zeros((n_threads, width + 1), dtype=bool)
    start[:, 0] = True
    rows = np.arange(n_threads)[:, None]
    reach = 1
    while reach < width:
        t_idx, i_idx = np.nonzero(start)
        start[t_idx, jump[t_idx, i_idx]] = True
        jump = jump[rows, jump]
        reach *= 2
    k = np.cumsum(start[:, :width], axis=1) - 1
    # Machine order (k, tid, j): a stable sort on k keeps (tid, i) order.
    order = np.argsort(k, axis=None, kind="stable")
    return AccessTable(
        k.ravel()[order],
        np.repeat(tids, width)[order],
        regs.ravel()[order],
        offsets.ravel()[order],
        threads,
    )


def describe_shared(table: AccessTable, elem_bytes: int, note: str) -> str:
    """One-line summary of a shared access: threads, accesses, width."""
    note = f", {note}" if note else ""
    return (
        f"{len(table)} threads x {table.num_accesses()} accesses, "
        f"vec {table.widest() * elem_bytes * 8}b{note}"
    )


__all__ = ["AccessTable", "describe_shared", "group_contiguous"]
