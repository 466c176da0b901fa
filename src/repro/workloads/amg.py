"""AMG2006 model (paper Section 8.2).

Algebraic multigrid from the LLNL Sequoia suite, reduced to its
NUMA-relevant structure:

* ``RAP_diag_data`` — the coarse-grid matrix values, allocated and
  initialized by the master thread, accessed *indirectly*
  (``RAP_diag_data[A_diag_i[i]]``). In the hot smoother region
  ``hypre_boomerAMGRelax._omp`` the indirection has per-thread block
  locality (Fig. 5: regular blocked pattern), but other regions touch it
  with a different, shuffled decomposition, so the whole-program
  address-centric view looks irregular (Fig. 4) — the paper's key
  demonstration that patterns must be read per calling context.
* ``RAP_diag_j`` — the column-index array with the same split behaviour
  (Figs. 6–7).
* ``u`` and ``f`` — vectors every thread reads in full (uniform access
  pattern), the variables for which the advisor recommends interleaving.

The repeated smoother/matvec regions are named with a ``solve:`` prefix;
the bench measures the paper's "solver phase" time as their sum.
"""

from __future__ import annotations

import numpy as np

from repro._hashing import numpy_random
from repro.optim.policies import NumaTuning
from repro.runtime.callstack import SourceLoc
from repro.runtime.chunks import compute_chunk, indexed_chunk, sweep_chunk
from repro.runtime.program import ProgramContext, Region, RegionKind
from repro.workloads.base import WorkloadBase


class AMG2006(WorkloadBase):
    """Simulated AMG2006 with indirect matrix accesses."""

    name = "AMG2006"
    source_file = "par_relax.c"

    #: Nonzeros per row: the RAP matrix arrays are nnz-sized.
    NNZ_PER_ROW = 2

    def __init__(
        self,
        tuning: NumaTuning | None = None,
        *,
        n_rows: int = 200_000,
        solve_iters: int = 6,
        index_jitter: int = 48,
        compute_instructions_per_row: float = 24.0,
    ) -> None:
        super().__init__(tuning)
        self.n_rows = n_rows
        self.solve_iters = solve_iters
        self.index_jitter = index_jitter
        self.compute_ipr = compute_instructions_per_row

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the coarse operator."""
        return self.n_rows * self.NNZ_PER_ROW

    # ------------------------------------------------------------------ #

    def setup(self, ctx: ProgramContext) -> None:
        rap_path = (
            SourceLoc("main"),
            SourceLoc("hypre_BoomerAMGSetup"),
            SourceLoc("hypre_BoomerAMGBuildCoarseOperator", self.source_file, 880),
        )
        self._alloc(
            ctx, "RAP_diag_data", self.nnz * 8,
            rap_path + (SourceLoc("hypre_CTAlloc", self.source_file, 912),),
        )
        self._alloc(
            ctx, "RAP_diag_j", self.nnz * 8,
            rap_path + (SourceLoc("hypre_CTAlloc", self.source_file, 915),),
        )
        vec_path = (
            SourceLoc("main"),
            SourceLoc("hypre_BoomerAMGSetup"),
            SourceLoc("hypre_SeqVectorInitialize", self.source_file, 120),
        )
        self._alloc(ctx, "u", self.n_rows * 8, vec_path)
        self._alloc(ctx, "f", self.n_rows * 8, vec_path)

    def regions(self, ctx: ProgramContext) -> list[Region]:
        regions = self.make_init_regions(
            ctx,
            ["RAP_diag_data", "RAP_diag_j", "u", "f"],
            line=200,
            region_name="hypre_BoomerAMGSetup",
        )
        regions.extend(self._solve_regions(ctx))
        return regions

    # ------------------------------------------------------------------ #

    def _shuffled_block(
        self, ctx: ProgramContext, tid: int, n_items: int
    ) -> tuple[int, int]:
        """The matvec decomposition: threads own *permuted* blocks.

        A fixed pseudo-random permutation of block ownership makes the
        whole-program per-thread ranges non-monotone (Fig. 4's irregular
        picture) while each region's own pattern stays structured.
        """
        perm = numpy_random().default_rng(ctx.seed + 7).permutation(ctx.n_threads)
        owner = int(perm[tid])
        bounds = np.linspace(0, n_items, ctx.n_threads + 1).astype(np.int64)
        return int(bounds[owner]), int(bounds[owner + 1])

    def _solve_regions(self, ctx: ProgramContext) -> list[Region]:
        def relax(ctx: ProgramContext, tid: int):
            lo, hi = ctx.partition(self.nnz, tid)
            if hi <= lo:
                return
            rng = ctx.rng(tid, salt=1)
            idx = self.jittered_block_indices(
                rng, lo, hi, self.nnz, self.index_jitter
            )
            # RAP_diag_data[A_diag_i[i]] — indirect, block-local scatter.
            yield indexed_chunk(
                ctx.var("RAP_diag_data"),
                idx,
                SourceLoc("relax:RAP_diag_data[A_diag_i[i]]", self.source_file, 1431),
                instructions_per_access=4.0,
            )
            # Column indices: sequential CSR traversal (one access per
            # pair keeps trace volume down; every line is touched).
            yield sweep_chunk(
                ctx.var("RAP_diag_j"),
                lo,
                max((hi - lo) // 2, 1),
                SourceLoc("relax:RAP_diag_j", self.source_file, 1433),
                stride_elems=2,
                instructions_per_access=8.0,
            )
            r_lo, r_hi = ctx.partition(self.n_rows, tid)
            yield sweep_chunk(
                ctx.var("u"),
                r_lo,
                max((r_hi - r_lo) // 2, 1),
                SourceLoc("relax:u", self.source_file, 1436),
                stride_elems=2,
                instructions_per_access=8.0,
                is_store=True,
            )
            yield compute_chunk(
                int((r_hi - r_lo) * self.compute_ipr),
                SourceLoc("relax:axpy", self.source_file, 1460),
            )

        def matvec(ctx: ProgramContext, tid: int):
            lo, hi = self._shuffled_block(ctx, tid, self.nnz)
            if hi <= lo:
                return
            rng = ctx.rng(tid, salt=2)
            idx = self.jittered_block_indices(
                rng, lo, hi, self.nnz, self.index_jitter * 4
            )
            n = max(idx.size // 4, 1)  # lighter traffic than the smoother
            yield indexed_chunk(
                ctx.var("RAP_diag_data"),
                idx[:n],
                SourceLoc("matvec:RAP_diag_data", self.source_file, 2210),
                instructions_per_access=4.0,
            )
            yield sweep_chunk(
                ctx.var("RAP_diag_j"),
                lo,
                max((hi - lo) // 8, 1),
                SourceLoc("matvec:RAP_diag_j", self.source_file, 2212),
                stride_elems=2,
                instructions_per_access=8.0,
            )
            # Every thread gathers entries across the full input vector
            # (uniform pattern, column-index driven: not prefetchable).
            yield sweep_chunk(
                ctx.var("f"),
                (tid * 37) % 256,
                max(self.n_rows // 512, 1),
                SourceLoc("matvec:f", self.source_file, 2218),
                stride_elems=512,
                instructions_per_access=8.0,
            )
            r_lo, r_hi = self._shuffled_block(ctx, tid, self.n_rows)
            yield compute_chunk(
                int(max(r_hi - r_lo, 1) * self.compute_ipr * 0.5),
                SourceLoc("matvec:dot", self.source_file, 2230),
            )

        return [
            Region(
                "solve:hypre_boomerAMGRelax._omp",
                RegionKind.PARALLEL,
                relax,
                SourceLoc("hypre_boomerAMGRelax._omp", self.source_file, 1400),
                repeat=self.solve_iters,
            ),
            Region(
                "solve:hypre_ParCSRMatvec._omp",
                RegionKind.PARALLEL,
                matvec,
                SourceLoc("hypre_ParCSRMatvec._omp", self.source_file, 2200),
                repeat=self.solve_iters,
            ),
        ]

    # ------------------------------------------------------------------ #

    def _init_partition(self, ctx: ProgramContext, var, tid: int) -> tuple[int, int]:
        # Parallel init (co-location fix) follows the smoother's blocked
        # decomposition, which dominates each variable's traffic.
        return ctx.partition(var.n_elems(), tid)

    @staticmethod
    def solver_seconds(run_result) -> float:
        """The paper's "solver phase" time: all ``solve:`` regions."""
        cycles = sum(
            v
            for k, v in run_result.region_wall_cycles.items()
            if k.startswith("solve:")
        )
        return cycles / (run_result.ghz * 1e9)
