"""Shared-memory access tables against per-lane references.

STS/LDS accesses are one element-level ``AccessTable`` that planning,
pricing, accounting and execution compute on with arrays.  The
references below are the per-lane loops the table replaced: grouping
each thread's (offset, register) pairs into aligned vectors, counting
wavefronts one warp access at a time, and encoding per-thread
``((base, regs), ...)`` tuples as JSON.
"""

import json
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.codegen.access import AccessTable
from repro.codegen.conversion import _shared_accesses, _vec_bit_positions
from repro.codegen.swizzle import optimal_swizzled_layout
from repro.core import LANE, REGISTER, WARP, LinearLayout
from repro.gpusim import Machine, distributed_data
from repro.gpusim.memory import SharedMemory, access_wavefronts, shared_access_cost
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250
from repro.program.ir import R_IN, R_OUT, Bar, Lds, Opcode, Sts, WarpProgram, instr_fields
from repro.program.serialize import program_from_json, program_to_json

SPECS = {32: GH200, 64: MI250}
SEEDS = st.integers(0, 2**32 - 1)


# ----------------------------------------------------------------------
# Per-lane references
# ----------------------------------------------------------------------
def reference_group_contiguous(pairs, max_vec):
    """Greedy aligned power-of-two grouping of one thread's pairs."""
    out = []
    i = 0
    while i < len(pairs):
        run = 1
        while i + run < len(pairs) and pairs[i + run][0] == pairs[i][0] + run:
            run += 1
        vec = max_vec
        base = pairs[i][0]
        while vec > 1 and (run < vec or base % vec != 0):
            vec >>= 1
        out.append((base, tuple(reg for _, reg in pairs[i : i + vec])))
        i += vec
    return out


def reference_accesses(
    layout,
    offsets,
    num_warps,
    warp_size,
    max_vec_elems,
    dedupe_broadcast,
    vec_basis=None,
    sort_by_offset=False,
):
    """Per-thread access tuples, one lane at a time."""
    free = layout.free_variable_masks()
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    warps = layout.in_dim_size(WARP)
    reg_order = list(range(regs))
    positions = _vec_bit_positions(layout, vec_basis) if vec_basis else None
    if positions is not None:
        n_bits = layout.in_dim_size_log2(REGISTER)
        bit_order = positions + [i for i in range(n_bits) if i not in positions]
        reg_order = [
            sum(1 << bit for j, bit in enumerate(bit_order) if (counter >> j) & 1)
            for counter in range(regs)
        ]
    if dedupe_broadcast:
        reg_order = [r for r in reg_order if not r & free.get(REGISTER, 0)]
    flat = layout.image_table([REGISTER, LANE, WARP]).reshape(warps, lanes, regs)
    accesses = []
    for w in range(num_warps):
        for lane in range(warp_size):
            skip = lane >= lanes or w >= warps
            if dedupe_broadcast and not skip:
                skip = (lane & free.get(LANE, 0)) or (w & free.get(WARP, 0))
            if skip:
                accesses.append(())
                continue
            pairs = [(int(offsets[flat[w, lane, r]]), r) for r in reg_order]
            if sort_by_offset:
                pairs.sort()
            accesses.append(tuple(reference_group_contiguous(pairs, max_vec_elems)))
    return tuple(accesses)


def encode_tuples(value):
    """JSON form of nested tuples: every tuple becomes a list."""
    if isinstance(value, tuple):
        return [encode_tuples(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Random staged conversions
# ----------------------------------------------------------------------
def random_layout(rng, total_bits, lane_bits, warp_bits, shape):
    """A distributed layout, possibly with a zero column in each dim."""
    units = [1 << i for i in range(total_bits)]
    rng.shuffle(units)
    reg_bits = total_bits - lane_bits - warp_bits
    images = {
        REGISTER: units[:reg_bits],
        LANE: units[reg_bits : reg_bits + lane_bits],
        WARP: units[reg_bits + lane_bits :],
    }
    for cols in images.values():
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, len(cols)), 0)
    low = shape["dim1"]
    return LinearLayout(
        {dim: [(c // low, c % low) for c in cols] for dim, cols in images.items()},
        dict(shape),
    )


@st.composite
def staged_cases(draw):
    """Both sides of a conversion staged through one shared layout."""
    rng = random.Random(draw(SEEDS))
    warp_size = draw(st.sampled_from([32, 64]))
    lane_bits = rng.randint(0, warp_size.bit_length() - 1)
    warp_bits = rng.randint(0, 2)
    total_bits = lane_bits + warp_bits + rng.randint(1, 4)
    rows = rng.randint(0, total_bits)
    shape = {"dim0": 1 << rows, "dim1": 1 << (total_bits - rows)}
    src = random_layout(rng, total_bits, lane_bits, warp_bits, shape)
    dst = random_layout(rng, total_bits, lane_bits, warp_bits, shape)
    warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    num_warps = rng.choice([max(1, warps // 2), warps, 2 * warps])
    elem_bits = draw(st.sampled_from([8, 16, 32]))
    mode = draw(st.sampled_from(["optimal", "none", "padded"]))
    kwargs = dict(num_warps=num_warps, warp_size=warp_size)
    flats = np.arange(1 << total_bits, dtype=np.int64)
    if mode == "optimal":
        swizzle = optimal_swizzled_layout(src, dst, elem_bits)
        memory = swizzle.memory_layout
        offsets = memory.invert().image_table(reversed(memory.out_dims))
        kwargs.update(max_vec_elems=swizzle.vec_elems, vec_basis=swizzle.vec_basis)
    elif mode == "none":
        offsets = flats
        kwargs.update(max_vec_elems=max(1, 128 // elem_bits), sort_by_offset=True)
    else:
        row_elems = 128 // max(1, elem_bits // 8)
        offsets = flats + (flats // row_elems) * max(1, 128 // elem_bits)
        kwargs.update(max_vec_elems=max(1, 128 // elem_bits), sort_by_offset=True)
    return (src, dst), offsets, kwargs


@settings(max_examples=150, deadline=None)
@given(case=staged_cases(), dedupe=st.booleans())
def test_table_groups_like_the_per_lane_reference(case, dedupe):
    layouts, offsets, kwargs = case
    for layout in layouts:
        table = _shared_accesses(layout, offsets, dedupe_broadcast=dedupe, **kwargs)
        reference = reference_accesses(layout, offsets, dedupe_broadcast=dedupe, **kwargs)
        assert table.per_thread() == reference
        assert len(table) == kwargs["num_warps"] * kwargs["warp_size"]


# ----------------------------------------------------------------------
# Bank accounting
# ----------------------------------------------------------------------
@st.composite
def random_tables(draw):
    """Per-thread access lists with arbitrary bases and widths.

    Up to 32-element vectors of 8-byte elements span two 128-byte
    rows; a narrow base range makes threads share words and banks.
    """
    rng = random.Random(draw(SEEDS))
    warp_size = draw(st.sampled_from([32, 64]))
    num_warps = draw(st.integers(1, 3))
    elem_bytes = draw(st.sampled_from([1, 2, 4, 8]))
    span = draw(st.sampled_from([64, 1024]))
    lanes = []
    for _ in range(num_warps * warp_size):
        groups = []
        for _ in range(rng.randint(0, 3)):
            width = 1 << rng.randint(0, 5)
            regs = tuple(rng.randrange(64) for _ in range(width))
            groups.append((rng.randrange(span), regs))
        lanes.append(tuple(groups))
    return tuple(lanes), SPECS[warp_size], num_warps, elem_bytes


@settings(max_examples=150, deadline=None)
@given(case=random_tables())
def test_wavefront_kernel_matches_per_access_reference(case):
    lanes, spec, num_warps, elem_bytes = case
    ws = spec.warp_size
    table = AccessTable.from_per_thread(lanes)
    count = table.num_accesses()
    waves = access_wavefronts(
        spec,
        elem_bytes,
        table.k * num_warps + table.tid // ws,
        table.off,
        count * num_warps,
    ).reshape(count, num_warps)
    memory = SharedMemory(spec, elem_bytes)
    widest = 0
    for k in range(count):
        for w in range(num_warps):
            warp = lanes[w * ws : (w + 1) * ws]
            requests = [(a[k][0], len(a[k][1])) for a in warp if k < len(a)]
            assert waves[k, w] == memory.wavefronts(requests, False), (k, w)
            widest = max([widest] + [n for _, n in requests])
    if count == 0:
        assert shared_access_cost(table, spec, elem_bytes, num_warps) is None
        return
    expected = (widest * elem_bytes * 8, count, max(1, int(waves.max(axis=1).sum()) // count))
    assert shared_access_cost(table, spec, elem_bytes, num_warps) == expected


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(case=staged_cases(), dedupe=st.booleans(), matrix=st.booleans())
def test_program_json_keeps_the_per_thread_tuple_form(case, dedupe, matrix):
    """The JSON text is the per-thread tuple encoding, and the decoded
    program converts like the original on the ``REPRO_SIM`` backend."""
    (src, dst), offsets, kwargs = case
    reference = reference_accesses(src, offsets, dedupe_broadcast=dedupe, **kwargs)
    stores = _shared_accesses(src, offsets, dedupe_broadcast=dedupe, **kwargs)
    loads = _shared_accesses(dst, offsets, dedupe_broadcast=False, **kwargs)
    assert AccessTable.from_per_thread(reference) == stores
    program = WarpProgram(
        (
            Sts(accesses=stores, elem_bytes=2),
            Bar(),
            Lds(accesses=loads, elem_bytes=2, use_ldmatrix=matrix),
        )
    )
    expected = {"result": program.result, "label": program.label, "instrs": []}
    for instr in program.instrs:
        fields = instr_fields(instr)
        if "accesses" in fields:
            fields["accesses"] = fields["accesses"].per_thread()
        if instr.opcode == Opcode.STS:
            fields["accesses"] = reference
        encoded = {name: encode_tuples(value) for name, value in fields.items()}
        expected["instrs"].append({"op": instr.opcode.value, **encoded})
    text = program_to_json(program)
    assert text == json.dumps(expected)
    rebuilt = program_from_json(text)
    assert rebuilt.instrs == program.instrs
    assert rebuilt.instrs[0].accesses == stores

    num_warps, warp_size = kwargs["num_warps"], kwargs["warp_size"]
    complete = all(
        layout.in_dim_size(LANE) <= warp_size and layout.in_dim_size(WARP) <= num_warps
        for layout in (src, dst)
    )
    if not complete:
        return  # some slots are never stored or loaded
    machine = Machine(SPECS[warp_size], num_warps)
    inputs = {R_IN: distributed_data(src, num_warps, warp_size)}
    out, trace = machine.run_program(program, inputs)
    out_rebuilt, trace_rebuilt = machine.run_program(rebuilt, inputs)
    assert out[R_OUT].as_dict() == out_rebuilt[R_OUT].as_dict()
    assert trace.instructions == trace_rebuilt.instructions
    assert_matches_layout(out[R_OUT], dst)
