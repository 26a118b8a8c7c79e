"""Intra-warp layout conversion via warp shuffles (Section 5.4).

Implements the V / I / E / F / G / R construction: pick the vectorized
register subspace ``V`` shared by source and destination, pair up the
differing thread bits into ``G`` (so each affine coset crosses every
source lane and every destination lane exactly once), extend to a
basis with ``R``, and emit one shuffle round per coset representative
``R(i)`` — exactly the Figure 4 procedure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import cache as _cache
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.codegen.views import DistributedView
from repro.f2.bitvec import iter_set_bits


class ShufflePlanError(ValueError):
    """The pair of layouts is outside the warp-shuffle fast path."""


def _span_elements(basis: List[int]) -> List[int]:
    out = []
    for mask in range(1 << len(basis)):
        v = 0
        for idx in iter_set_bits(mask):
            v ^= basis[idx]
        out.append(v)
    return out


def _extend(
    rank_target: int, partial: List[int], candidates: List[int]
) -> List[int]:
    """Extend ``partial`` to rank ``rank_target`` using ``candidates``."""
    by_lead: Dict[int, int] = {}

    def add(v: int) -> bool:
        while v:
            lead = v.bit_length() - 1
            if lead not in by_lead:
                by_lead[lead] = v
                return True
            v ^= by_lead[lead]
        return False

    for v in partial:
        if not add(v):
            raise ShufflePlanError("V/I/G vectors are not independent")
    added = []
    for v in candidates:
        if len(by_lead) >= rank_target:
            break
        if add(v):
            added.append(v)
    if len(by_lead) < rank_target:
        raise ShufflePlanError("could not extend shuffle basis")
    return added


def shuffle_preconditions(
    src: DistributedView, dst: DistributedView
) -> Tuple[bool, str]:
    """Check whether the warp-shuffle path applies.

    Requires matching warp components (so no inter-warp movement,
    Section 5.4: "(B^{-1}A)_Wrp is the identity") and no *lane*
    broadcasting.  Register broadcasting is handled by converting the
    deduplicated quotient and replicating locally afterwards — an
    extension beyond the paper's simplifying assumption.
    """
    if src.images(WARP) != dst.images(WARP):
        return False, "warp components differ (inter-warp movement)"
    for view, name in ((src, "src"), (dst, "dst")):
        if view.has_broadcasting(LANE):
            return False, f"{name} layout broadcasts across lanes"
    if src.images(LANE, include_zeros=False) and not dst.images(
        LANE, include_zeros=False
    ):
        return False, "lane rank mismatch"
    return True, ""


def _dedupe_registers(layout: LinearLayout) -> Tuple[
    LinearLayout, List[int]
]:
    """Strip free register bits; returns (quotient layout, keep bits).

    ``keep`` lists the register-bit indices whose images are genuinely
    distinct — the quotient register index is formed from those bits.
    """
    free = layout.free_variable_masks().get(REGISTER, 0)
    n_bits = layout.in_dim_size_log2(REGISTER)
    keep = [i for i in range(n_bits) if not (free >> i) & 1]
    if len(keep) == n_bits:
        return layout, keep
    bases = layout.bases
    bases[REGISTER] = [bases[REGISTER][i] for i in keep]
    quotient = LinearLayout(
        bases, layout.out_dim_sizes(), require_surjective=False
    )
    return quotient, keep


def _real_regs(keep: List[int]) -> np.ndarray:
    """Canonical real register index of each quotient register index."""
    quotient = np.arange(1 << len(keep))
    real = np.zeros_like(quotient)
    for j, bit in enumerate(keep):
        real |= ((quotient >> j) & 1) << bit
    return real


def _first_repeat(values: np.ndarray) -> int:
    """Index of the first value seen before (``len`` when none is)."""
    _, first = np.unique(values, return_index=True)
    repeated = np.ones(len(values), dtype=bool)
    repeated[first] = False
    hits = np.flatnonzero(repeated)
    return int(hits[0]) if len(hits) else len(values)


def _check_coset(s_lane: np.ndarray, d_lane: np.ndarray, num_lanes: int):
    """Each coset must cross every source and destination lane once.

    Coset elements are visited in order; at the first element that
    revisits a lane, a destination revisit is reported before a source
    one.
    """
    d_dup, s_dup = _first_repeat(d_lane), _first_repeat(s_lane)
    if d_dup < len(d_lane) and d_dup <= s_dup:
        raise ShufflePlanError("coset visits a destination lane twice")
    if s_dup < len(s_lane):
        raise ShufflePlanError("coset visits a source lane twice")
    if len(d_lane) < num_lanes:
        raise ShufflePlanError("coset misses a lane")


def plan_warp_shuffle(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    shuffle_bits: int = 32,
) -> List[object]:
    """Build the shuffle plan converting ``src`` to ``dst``.

    Returns the :class:`~repro.program.ir.Shfl` rounds (reading the
    source file ``in``, writing ``out``), optionally followed by an
    in-place :class:`~repro.program.ir.MovR` on ``out`` that fans
    received values out to the destination's broadcast register
    replicas.  Raises
    :class:`ShufflePlanError` when the preconditions of Section 5.4 do
    not hold; the caller then falls back to the shared memory path.

    Both outcomes — the instruction list and the planner rejection —
    are memoized on the canonical layout keys, so a hot conversion
    pays the coset enumeration once.
    """
    key = (
        "warp_shuffle",
        src_layout.canonical_key(),
        dst_layout.canonical_key(),
        elem_bits,
        shuffle_bits,
    )

    def compute() -> Tuple[str, object]:
        try:
            return "ok", tuple(
                _plan_warp_shuffle(
                    src_layout, dst_layout, elem_bits, shuffle_bits
                )
            )
        except ShufflePlanError as exc:
            return "err", str(exc)

    status, payload = _cache.cached(_cache.derivations, key, compute)
    if status == "err":
        raise ShufflePlanError(payload)
    return list(payload)


def _plan_warp_shuffle(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    shuffle_bits: int,
) -> List[object]:
    from repro.program.ir import R_OUT, Shfl
    from repro.program.lower import lower_register_permute

    full_src, full_dst = src_layout, dst_layout
    pre_ok, why = shuffle_preconditions(
        DistributedView(full_src), DistributedView(full_dst)
    )
    if not pre_ok:
        raise ShufflePlanError(why)
    src_layout, keep_src = _dedupe_registers(src_layout)
    dst_layout, keep_dst = _dedupe_registers(dst_layout)
    src = DistributedView(src_layout)
    dst = DistributedView(dst_layout)

    a_reg = src.images(REGISTER, include_zeros=False)
    b_reg = dst.images(REGISTER, include_zeros=False)
    a_thr = src.images(LANE, include_zeros=False)
    b_thr = dst.images(LANE, include_zeros=False)
    if len(a_reg) != len(b_reg) or len(a_thr) != len(b_thr):
        raise ShufflePlanError("register/lane rank mismatch")

    # V: the vectorized subspace, capped at the shuffle payload width.
    shared_regs = sorted(set(a_reg) & set(b_reg))
    max_v = 0
    while (1 << (max_v + 1)) * elem_bits <= shuffle_bits:
        max_v += 1
    v_basis = shared_regs[:max_v]

    # I / E / F / G: thread-bit bookkeeping.
    i_set = sorted(set(a_thr) & set(b_thr))
    e_set = sorted(set(a_thr) - set(i_set))
    f_set = sorted(set(b_thr) - set(i_set))
    if len(e_set) != len(f_set):  # pragma: no cover - ranks equal above
        raise ShufflePlanError("|E| != |F| without broadcasting")
    g_set = [e ^ f for e, f in zip(e_set, f_set)]

    # R: extend V u I u G to a basis of the per-warp subspace.
    warp_rank = len(a_reg) + len(a_thr)
    candidates = sorted(set(a_reg) - set(v_basis)) + sorted(a_thr)
    r_basis = _extend(warp_rank, v_basis + i_set + g_set, candidates)

    v_span = np.array(_span_elements(v_basis), dtype=np.int64)
    ig_span = np.array(_span_elements(i_set + g_set), dtype=np.int64)
    num_lanes = 1 << len(a_thr)
    vec = len(v_span)
    insts = max(1, (vec * elem_bits + shuffle_bits - 1) // shuffle_bits)

    # Every element of every round's coset at once:
    # flats[rnd, s, v] = R(rnd) ^ s ^ v, with s over I+G and v over V.
    bases = np.array(_span_elements(r_basis), dtype=np.int64)
    flats = bases[:, None, None] ^ ig_span[None, :, None] ^ v_span
    s_lanes = src.owner_indices(flats[:, :, 0], LANE)
    d_lanes = dst.owner_indices(flats[:, :, 0], LANE)
    s_regs = _real_regs(keep_src)[src.owner_indices(flats, REGISTER)]
    d_regs = _real_regs(keep_dst)[dst.owner_indices(flats, REGISTER)]

    warps = full_src.in_dim_size(WARP)
    instrs: List[object] = []
    for rnd in range(len(bases)):
        s_lane, d_lane = s_lanes[rnd], d_lanes[rnd]
        _check_coset(s_lane, d_lane, num_lanes)
        src_lane_of = np.empty(num_lanes, dtype=np.int64)
        src_lane_of[d_lane] = s_lane
        send_regs = np.empty((num_lanes, vec), dtype=np.int64)
        send_regs[s_lane] = s_regs[rnd]
        recv_regs = np.empty((num_lanes, vec), dtype=np.int64)
        recv_regs[d_lane] = d_regs[rnd]
        instrs.append(
            Shfl(
                src_lane=tuple(src_lane_of.tolist()),
                send_regs=tuple(map(tuple, send_regs.tolist())),
                recv_regs=tuple(map(tuple, recv_regs.tolist())),
                warps=warps,
                insts=insts,
            )
        )
    n_dst_bits = full_dst.in_dim_size_log2(REGISTER)
    if len(keep_dst) < n_dst_bits:
        # Fan the canonical values out to every broadcast replica.
        free_mask = sum(
            1 << i for i in range(n_dst_bits) if i not in keep_dst
        )
        table = tuple(
            r & ~free_mask for r in range(1 << n_dst_bits)
        )
        instrs.extend(
            lower_register_permute(table, full_dst, src=R_OUT, dst=R_OUT)
        )
    return instrs
