"""Heat-distribution (2D Jacobi) MPI program — Fig 11's workload.

Row-partitioned m x m grid: each iteration computes the stencil over the
local strip and swaps halo rows with the neighbouring ranks. With one
rank across a WAN link (the SIAT VM of Fig 11), the halo exchange
dominates; after that VM migrates next to the others, the same program
becomes compute-bound — reproducing the 30.5%/14.7%/4.7% ratios.
"""

from __future__ import annotations

__all__ = ["heat_distribution_program"]

FLOPS_PER_POINT = 8.0  # 5-point stencil + update


def heat_distribution_program(m: int, iterations: int,
                              flops_per_point: float = FLOPS_PER_POINT,
                              gather_every: int = 0):
    """Build the per-rank program for an m x m grid.

    ``gather_every > 0`` additionally gathers the full grid to rank 0
    every that many iterations (the common textbook pattern of dumping
    intermediate temperature fields) — it makes the WAN link carry
    O(m^2) bytes per gather, which is what lets problem size dominate
    the without-migration times of Fig 11."""

    def program(ctx):
        rows = m // ctx.size
        halo_bytes = m * 8  # one row of doubles
        for it in range(iterations):
            yield from ctx.compute(rows * m * flops_per_point)
            # Both sides of a boundary exchange under the same tag; the
            # (src, tag) pair disambiguates the two directions.
            if ctx.rank > 0:
                yield from ctx.sendrecv(ctx.rank - 1, halo_bytes, tag=it)
            if ctx.rank < ctx.size - 1:
                yield from ctx.sendrecv(ctx.rank + 1, halo_bytes, tag=it)
            if gather_every and (it + 1) % gather_every == 0:
                yield from ctx.gather_to_root(rows * m * 8, tag=-100 - it)
        # Gather the strips for the final answer.
        yield from ctx.gather_to_root(rows * m * 8)

    return program
