"""The layout-conversion planner (Section 5.4).

``plan_conversion`` is the compiler's decision procedure: given source
and destination distributed layouts it picks, in order of preference,

1. **no-op** — the layouts are equivalent (e.g. a Blocked and a Sliced
   layout describing the same map; legacy Triton could not compare
   across kinds, missing the welford no-op of Section 6.2);
2. **register permutation** — only ``(B^{-1}A)_Reg`` differs;
3. **warp shuffles** — warp components match and nothing broadcasts
   (Section 5.4's fast path, bypassing shared memory entirely);
4. **shared memory** — the general path, staged through either the
   optimal swizzled layout (linear mode) or the legacy padded layout.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

import numpy as np

from repro import cache as _cache
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.core.layout import LinearLayout
from repro.codegen.access import AccessTable, group_contiguous
from repro.codegen.plan import ConversionPlan
from repro.codegen.shuffles import ShufflePlanError, plan_warp_shuffle
from repro.codegen.swizzle import SwizzlePlan, optimal_swizzled_layout
from repro.codegen.views import DistributedView
from repro.hardware.spec import GpuSpec, RTX4090


class ConversionKind(enum.Enum):
    """The four lowering strategies, cheapest first."""
    NOOP = "noop"
    REGISTER = "register"
    SHUFFLE = "shuffle"
    SHARED = "shared"


def classify_conversion(
    src: LinearLayout, dst: LinearLayout
) -> ConversionKind:
    """Which lowering the planner will choose for ``src -> dst``."""
    if dict(src.out_dim_sizes()) != dict(dst.out_dim_sizes()):
        raise LayoutError("conversion endpoints differ in logical shape")
    if src.equivalent(dst):
        return ConversionKind.NOOP
    same_lanes = src.basis_images_flat(LANE) == dst.basis_images_flat(LANE)
    same_warps = src.basis_images_flat(WARP) == dst.basis_images_flat(WARP)
    if same_lanes and same_warps:
        return ConversionKind.REGISTER
    if same_warps:
        sv, dv = DistributedView(src), DistributedView(dst)
        # Register broadcasting is deduplicated inside the shuffle
        # planner; only lane broadcasting forces shared memory.
        broadcasts = any(
            v.has_broadcasting(LANE) for v in (sv, dv)
        )
        if not broadcasts:
            return ConversionKind.SHUFFLE
    return ConversionKind.SHARED


def _register_permutation(src: LinearLayout, dst: LinearLayout):
    """The move ``out[r] <- in[table[r]]``, uniform across lanes/warps."""
    from repro.program.ir import MovR

    sv = DistributedView(src)
    return MovR(
        dst_to_src=tuple(
            sv.reg_of(p) for p in dst.image_table([REGISTER]).tolist()
        ),
        lanes=dst.in_dim_size(LANE),
        warps=dst.in_dim_size(WARP),
    )


def _shared_program(
    stores: AccessTable,
    loads: AccessTable,
    elem_bytes: int,
    use_stmatrix: bool = False,
    use_ldmatrix: bool = False,
):
    """Stage through shared memory: store, barrier, load."""
    from repro.program.ir import Bar, Lds, Sts, WarpProgram

    return WarpProgram(
        (
            Sts(accesses=stores, elem_bytes=elem_bytes, use_stmatrix=use_stmatrix),
            Bar(),
            Lds(accesses=loads, elem_bytes=elem_bytes, use_ldmatrix=use_ldmatrix),
        ),
        label="shared",
    )


def _vec_bit_positions(
    layout: LinearLayout, vec_basis: Sequence[int]
) -> Optional[List[int]]:
    """Register-bit indices whose flat images form the Vec subspace."""
    images = layout.basis_images_flat(REGISTER)
    positions = []
    for v in vec_basis:
        try:
            positions.append(images.index(v))
        except ValueError:
            return None
    return positions


def _shared_accesses(
    layout: LinearLayout,
    offsets: np.ndarray,
    num_warps: int,
    warp_size: int,
    max_vec_elems: int,
    dedupe_broadcast: bool,
    vec_basis: Optional[Sequence[int]] = None,
    sort_by_offset: bool = False,
) -> AccessTable:
    """The vectorized CTA-wide access table of a layout.

    ``offsets[p]`` is the shared element offset of flattened logical
    position ``p``.  With ``dedupe_broadcast`` (linear mode), replicas
    — hardware indices whose free bits are non-zero — are skipped,
    which is the Table 4 instruction saving.

    When ``vec_basis`` is given (the optimal-swizzle path), registers
    are enumerated so the Vec-subspace register bits run fastest —
    every instruction then covers exactly one vectorized coset, as the
    swizzle analysis assumes.  Otherwise, with ``sort_by_offset``
    (legacy staging), each thread's pairs are ordered by ``(offset,
    reg)``, grouping by raw memory contiguity instead.
    """
    free = layout.free_variable_masks()
    free_reg = free.get(REGISTER, 0)
    free_lane = free.get(LANE, 0)
    free_warp = free.get(WARP, 0)
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    warps = layout.in_dim_size(WARP)
    reg_order = np.arange(regs)
    if vec_basis:
        positions = _vec_bit_positions(layout, vec_basis)
        if positions is not None:
            n_bits = layout.in_dim_size_log2(REGISTER)
            others = [i for i in range(n_bits) if i not in positions]
            bit_order = positions + others  # vec bits run fastest
            counter = reg_order
            reg_order = np.zeros(regs, dtype=np.int64)
            for j, bit in enumerate(bit_order):
                reg_order |= ((counter >> j) & 1) << bit
    if dedupe_broadcast:
        reg_order = reg_order[(reg_order & free_reg) == 0]
    lanes_used, warps_used = min(lanes, warp_size), min(warps, num_warps)
    slot_offsets = offsets[
        layout.image_table([REGISTER, LANE, WARP]).reshape(
            warps, lanes, regs
        )[:warps_used, :lanes_used][:, :, reg_order]
    ]
    w = np.arange(warps_used)[:, None]
    lane = np.arange(lanes_used)[None, :]
    tids = w * warp_size + lane
    if dedupe_broadcast:
        keep = ((lane & free_lane) == 0) & ((w & free_warp) == 0)
    else:
        keep = np.ones(tids.shape, dtype=bool)
    slot_offsets = slot_offsets[keep]
    slot_regs = np.broadcast_to(reg_order, slot_offsets.shape)
    if sort_by_offset:
        order = np.argsort(slot_offsets * regs + slot_regs, axis=1)
        slot_offsets = np.take_along_axis(slot_offsets, order, axis=1)
        slot_regs = np.take_along_axis(slot_regs, order, axis=1)
    return group_contiguous(
        slot_offsets, slot_regs, tids[keep], max_vec_elems,
        num_warps * warp_size,
    )


def plan_conversion(
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec = RTX4090,
    allow_shuffle: bool = True,
    swizzle_mode: str = "optimal",
    pad_elems: Optional[int] = None,
    dedupe_broadcast: bool = True,
    memory_layout: Optional[LinearLayout] = None,
) -> ConversionPlan:
    """Lower a layout conversion to an executable plan.

    ``swizzle_mode`` selects the shared staging strategy: ``optimal``
    (the Section 5.4 algorithm), ``padded`` (the legacy heuristic —
    pad each bank row to spread conflicts, at the price of footprint
    and vectorization), or ``none`` (raw rows, the ablation baseline).
    ``allow_shuffle=False`` reproduces the legacy always-through-shared
    behaviour benchmarked in Figure 7.

    ``memory_layout`` pins the staging layout (offset -> logical dims)
    instead of letting the planner choose — the situation where
    hardware dictates the shared layout, e.g. a tile another consumer
    (wgmma) must read with a specific swizzle.

    Plans are memoized in :data:`repro.cache.plans` keyed on the
    canonical layout keys, the hardware spec, and every planner
    option; callers must treat the returned plan as immutable (its
    instructions already are).  ``repro.cache.clear()`` invalidates;
    ``REPRO_CACHE=0`` bypasses.
    """
    key = (
        "plan_conversion",
        src.canonical_key(),
        dst.canonical_key(),
        elem_bits,
        spec,
        allow_shuffle,
        swizzle_mode,
        pad_elems,
        dedupe_broadcast,
        None if memory_layout is None else memory_layout.canonical_key(),
    )
    return _cache.cached(
        _cache.plans,
        key,
        lambda: _plan_conversion_uncached(
            src,
            dst,
            elem_bits,
            spec,
            allow_shuffle,
            swizzle_mode,
            pad_elems,
            dedupe_broadcast,
            memory_layout,
        ),
    )


def _plan_conversion_uncached(
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec,
    allow_shuffle: bool,
    swizzle_mode: str,
    pad_elems: Optional[int],
    dedupe_broadcast: bool,
    memory_layout: Optional[LinearLayout],
) -> ConversionPlan:
    from repro.layouts.cta import same_block_component, strip_block
    from repro.program.ir import R_IN, WarpProgram

    if not same_block_component(src, dst):
        raise LayoutError(
            "conversion moves data across CTAs; distributed shared "
            "memory / global round trips are outside intra-CTA codegen"
        )
    # Equal block components: the conversion is identical within each
    # CTA, so plan on the per-CTA quotient.
    src = strip_block(src)
    dst = strip_block(dst)
    kind = classify_conversion(src, dst)
    if kind == ConversionKind.NOOP:
        return ConversionPlan(
            kind="noop",
            src=src,
            dst=dst,
            warp_program=WarpProgram((), result=R_IN, label="noop"),
        )
    if kind == ConversionKind.REGISTER:
        return ConversionPlan(
            kind="register",
            src=src,
            dst=dst,
            warp_program=WarpProgram(
                (_register_permutation(src, dst),), label="register"
            ),
        )
    if kind == ConversionKind.SHUFFLE and allow_shuffle:
        try:
            rounds = plan_warp_shuffle(
                src, dst, elem_bits, shuffle_bits=spec.shuffle_bytes * 8
            )
            return ConversionPlan(
                kind="shuffle",
                src=src,
                dst=dst,
                warp_program=WarpProgram(tuple(rounds), label="shuffle"),
            )
        except ShufflePlanError as exc:
            note = f"shuffle fallback: {exc}"
        else:  # pragma: no cover
            note = ""
    else:
        note = ""

    # Shared-memory path.
    elem_bytes = max(1, elem_bits // 8)
    num_warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    dv = DistributedView(dst)
    d = src.total_out_bits()
    notes = [note] if note else []

    if memory_layout is not None:
        fixed = _plan_from_memory_layout(
            memory_layout, src, dst, elem_bits
        )
        program, extra_notes = _shared_program_for_swizzle(
            fixed, src, dst, elem_bits, spec,
            num_warps, dedupe_broadcast,
        )
        return ConversionPlan(
            kind="shared",
            src=src,
            dst=dst,
            warp_program=program,
            shared_bytes=(1 << d) * elem_bytes,
            notes=notes + ["fixed staging layout"] + extra_notes,
        )
    if swizzle_mode == "optimal":
        candidates = []
        if (spec.has_ldmatrix or spec.has_stmatrix) and 8 <= elem_bits <= 32:
            staged = _try_matrix_staging(src, dst, dv, elem_bits, spec)
            if staged is not None:
                candidates.append(staged)
        candidates.append(
            optimal_swizzled_layout(
                src,
                dst,
                elem_bits,
                bank_row_bytes=spec.bank_row_bytes,
                max_vector_bits=spec.max_vector_bits,
            )
        )
        best = None
        for swplan in candidates:
            program, extra_notes = _shared_program_for_swizzle(
                swplan, src, dst, elem_bits, spec,
                num_warps, dedupe_broadcast,
            )
            candidate = ConversionPlan(
                kind="shared",
                src=src,
                dst=dst,
                warp_program=program,
                shared_bytes=(1 << d) * elem_bytes,
                notes=notes + extra_notes,
            )
            cost = _plan_cost(candidate, spec)
            if best is None or cost < best[0]:
                best = (cost, candidate)
        return best[1]
    elif swizzle_mode == "none":
        # Ablation baseline: raw row-major staging, no swizzle, no
        # padding.  Strided access patterns conflict maximally here —
        # this is what the optimal-swizzling algorithm is up against.
        offsets = np.arange(1 << d, dtype=np.int64)
        max_vec = max(1, spec.max_vector_bits // elem_bits)
        shared_bytes = (1 << d) * elem_bytes
        notes.append("unswizzled staging (ablation)")
    elif swizzle_mode == "padded":
        if pad_elems is None:
            # One full vector of padding per bank row: preserves
            # vector alignment across padded rows — the legacy
            # "shared memory padding" heuristic.
            pad_elems = max(1, 128 // elem_bits)
        # Row-major flat storage with one pad per bank row worth of
        # elements (the legacy heuristic applied to the flattened
        # tensor).
        row_elems = spec.bank_row_bytes // elem_bytes

        flats = np.arange(1 << d, dtype=np.int64)
        offsets = flats + (flats // row_elems) * pad_elems

        # Each side vectorizes by whatever contiguity survives the
        # padding; the grouping below discovers it per lane.
        max_vec = max(1, spec.max_vector_bits // elem_bits)
        total_rows = (1 << d) // row_elems + 1
        shared_bytes = ((1 << d) + total_rows * pad_elems) * elem_bytes
        notes.append(f"padded staging: pad={pad_elems} elems")
    else:
        raise ValueError(f"unknown swizzle_mode {swizzle_mode!r}")

    stores = _shared_accesses(
        src, offsets, num_warps, spec.warp_size,
        max_vec, dedupe_broadcast, sort_by_offset=True,
    )
    loads = _shared_accesses(
        dst, offsets, num_warps, spec.warp_size,
        max_vec, dedupe_broadcast=False, sort_by_offset=True,
    )
    return ConversionPlan(
        kind="shared",
        src=src,
        dst=dst,
        warp_program=_shared_program(stores, loads, elem_bytes),
        shared_bytes=shared_bytes,
        notes=notes,
    )


def _plan_from_memory_layout(
    memory_layout: LinearLayout,
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
):
    """Wrap a pinned staging layout as a SwizzlePlan.

    The Vec subspace is whatever prefix of the layout's low offset
    bits both register files can vectorize over; segments are the high
    bits (for the conflict lemma's bookkeeping).
    """
    from repro.codegen.swizzle import SwizzlePlan

    flat_bases = [
        memory_layout.basis_image_flat("offset", i)
        for i in range(memory_layout.in_dim_size_log2("offset"))
    ]
    a_regs = set(x for x in src.basis_images_flat(REGISTER) if x)
    b_regs = set(x for x in dst.basis_images_flat(REGISTER) if x)
    vec = []
    for base in flat_bases:
        if base in a_regs and base in b_regs and (
            (1 << (len(vec) + 1)) * elem_bits <= 128
        ):
            vec.append(base)
        else:
            break
    v = len(vec)
    elem_bytes = max(1, elem_bits // 8)
    b_bits = max(0, 7 - (max(4, (1 << v) * elem_bytes) - 1).bit_length() + 1)
    b_bits = min(b_bits, len(flat_bases) - v)
    return SwizzlePlan(
        memory_layout=memory_layout,
        vec_basis=tuple(vec),
        bank_basis=tuple(flat_bases[v: v + b_bits]),
        seg_basis=tuple(flat_bases[v + b_bits:]),
        elem_bits=elem_bits,
        conflict_free=False,
    )


def _plan_cost(plan: ConversionPlan, spec: GpuSpec) -> float:
    """Price a candidate plan (deferred import: gpusim uses codegen)."""
    from repro.gpusim.opcost import price_plan

    return price_plan(plan, spec).cycles()


def _shared_program_for_swizzle(
    swplan,
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec,
    num_warps: int,
    dedupe_broadcast: bool,
):
    """The store/barrier/load program for one candidate staging layout."""
    from repro.codegen.division import ldmatrix_applicable
    from repro.hardware.instructions import ldmatrix_tile

    elem_bytes = max(1, elem_bits // 8)
    memory_layout = swplan.memory_layout
    offsets = memory_layout.invert().image_table(
        reversed(memory_layout.out_dims)
    )
    stores = _shared_accesses(
        src, offsets, num_warps, spec.warp_size,
        swplan.vec_elems, dedupe_broadcast, vec_basis=swplan.vec_basis,
    )
    loads = _shared_accesses(
        dst, offsets, num_warps, spec.warp_size,
        swplan.vec_elems, dedupe_broadcast=False,
        vec_basis=swplan.vec_basis,
    )
    use_ldmatrix = use_stmatrix = False
    if 8 <= elem_bits <= 32:
        tile = ldmatrix_tile(elem_bits)
        if spec.has_ldmatrix:
            use_ldmatrix = ldmatrix_applicable(
                dst, swplan.memory_layout, tile
            )
        if spec.has_stmatrix:
            use_stmatrix = ldmatrix_applicable(
                src, swplan.memory_layout, tile
            )
    extra_notes = [
        f"optimal swizzle: vec={swplan.vec_elems} elems, "
        f"conflict_free={swplan.conflict_free}"
    ]
    if use_ldmatrix or use_stmatrix:
        extra_notes.append(
            f"matrix insts: ldmatrix={use_ldmatrix}, "
            f"stmatrix={use_stmatrix}"
        )
    program = _shared_program(
        stores, loads, elem_bytes, use_stmatrix, use_ldmatrix
    )
    return program, extra_notes


def _try_matrix_staging(
    src: LinearLayout,
    dst: LinearLayout,
    dv: DistributedView,
    elem_bits: int,
    spec: GpuSpec,
):
    """A staging layout shaped so ldmatrix's tile divides the load map.

    Pins the Vec bits to the destination's low register bases and the
    first bank bits to its low lane bases (the ldmatrix row-segment
    structure), then lets the optimal-swizzle algorithm pick the rest.
    Returns ``None`` when the shape does not work out — the caller
    falls back to the unconstrained swizzle.
    """
    from repro.codegen.division import ldmatrix_applicable
    from repro.codegen.swizzle import SwizzlePlan, memory_layout_from_bases
    from repro.f2.subspace import Subspace
    from repro.hardware.instructions import ldmatrix_tile

    tile = ldmatrix_tile(elem_bits)
    k = tile.in_dim_size_log2(REGISTER)
    b_reg = dv.images(REGISTER, include_zeros=False)
    b_thr = dv.images(LANE, include_zeros=False)
    if len(b_reg) < k or len(b_thr) < 2 or not dst.is_injective():
        return None
    # "Destination-natural" staging: the offset basis is the
    # destination's own basis images, tile bits first.  The load map
    # M^{-1} o D is then block-structured by construction, so the
    # ldmatrix tile divides it (Theorem 5.1).  Among the remaining
    # basis vectors, those outside the source's thread span fill the
    # bank bits to keep the *stores* conflict-free too.
    head = list(b_reg[:k]) + list(b_thr[:2])
    d = dst.total_out_bits()
    elem_bytes = max(1, elem_bits // 8)
    all_images = []
    for dim in (REGISTER, LANE, WARP):
        all_images.extend(dv.images(dim, include_zeros=False))
    rest = [p for p in all_images if p not in head]
    if len(head) + len(rest) != d:
        return None
    a_thr = set(
        x for x in src.basis_images_flat(LANE) if x
    )
    rest.sort(key=lambda p: (p in a_thr, p))
    vec_bytes = (1 << k) * elem_bytes
    b_bits = max(0, 7 - (vec_bytes - 1).bit_length())  # log2(128/vec_bytes)
    offset_bases = head + rest
    layout = memory_layout_from_bases(offset_bases, dst.out_dim_sizes())
    if not layout.is_invertible():
        return None
    seg_basis = tuple(offset_bases[k + b_bits:]) if k + b_bits <= d else ()
    plan = SwizzlePlan(
        memory_layout=layout,
        vec_basis=tuple(offset_bases[:k]),
        bank_basis=tuple(offset_bases[k: k + b_bits]),
        seg_basis=seg_basis,
        elem_bits=elem_bits,
        conflict_free=Subspace(
            d, list(offset_bases[:k]) + list(seg_basis)
        ).trivial_intersection(Subspace(d, sorted(a_thr))),
    )
    if spec.has_ldmatrix and ldmatrix_applicable(
        dst, plan.memory_layout, tile
    ):
        return plan
    if spec.has_stmatrix and ldmatrix_applicable(
        src, plan.memory_layout, tile
    ):
        return plan
    return None


def _legacy_store_contiguity(view: DistributedView) -> int:
    """Contiguous registers (flat) the legacy padded store can vectorize."""
    cols = view.images(REGISTER)
    run = 0
    for i, c in enumerate(cols):
        if c == (1 << i):
            run += 1
        else:
            break
    return 1 << run
