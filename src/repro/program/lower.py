"""Warp programs for gathers, broadcasts and standalone register moves.

The conversion planners (:mod:`repro.codegen`) emit their programs
directly; this module builds the programs of the other producers: the
two gather strategies, broadcast replication and the register
permutations of the mxfp operand pre-shuffle.
"""

from __future__ import annotations

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.program.ir import (
    Bar,
    GatherLds,
    GatherShfl,
    GatherSts,
    MovR,
    R_IN,
    R_OUT,
    WarpProgram,
)


def lower_gather_shuffle(layout: LinearLayout, axis: int) -> WarpProgram:
    """The warp-shuffle gather as a one-instruction program."""
    from repro.codegen.gather import plan_gather

    plan = plan_gather(layout, axis)
    return WarpProgram(
        (GatherShfl(layout=layout, axis=axis, shuffle_count=plan.total_shuffles),),
        label="gather-shuffle",
    )


def lower_gather_shared(layout: LinearLayout, axis: int, elem_bytes: int = 4) -> WarpProgram:
    """The legacy shared-memory gather: stage, barrier, gathered loads."""
    return WarpProgram(
        (
            GatherSts(layout=layout, elem_bytes=elem_bytes),
            Bar(),
            GatherLds(layout=layout, axis=axis, elem_bytes=elem_bytes),
        ),
        label="gather-shared",
    )


def lower_register_permute(
    dst_to_src,
    layout: LinearLayout,
    src: str = R_IN,
    dst: str = R_OUT,
) -> WarpProgram:
    """A standalone register permute over a layout's lane/warp extent.

    The lowering used by producers whose whole plan is intra-thread
    data movement (broadcast replication, the mxfp operand
    pre-shuffle).
    """
    return WarpProgram(
        (
            MovR(
                dst_to_src=tuple(dst_to_src),
                lanes=layout.in_dim_size(LANE),
                warps=layout.in_dim_size(WARP),
                src=src,
                dst=dst,
            ),
        ),
        label="register-permute",
    )


def broadcast_replication_program(layout: LinearLayout) -> WarpProgram:
    """Fan canonical register values out to every broadcast replica.

    For a layout with free (zero-column) register bits, destination
    register ``r`` takes the value of its canonical owner ``r`` with
    the free bits cleared — the select/broadcast fan-out the shuffle
    planner appends after its rounds (Section 5.1's zero-column
    detection, as an instruction).
    """
    free = layout.free_variable_masks().get(REGISTER, 0)
    regs = layout.in_dim_size(REGISTER)
    table = tuple(r & ~free for r in range(regs))
    return lower_register_permute(table, layout, src=R_IN, dst=R_OUT)


__all__ = [
    "broadcast_replication_program",
    "lower_gather_shared",
    "lower_gather_shuffle",
    "lower_register_permute",
]
