"""Interconnect and memory-controller contention model.

Paper Section 2: "Contention for interconnect and memory controller
bandwidth has been observed to increase memory access latency by as much
as a factor of five." The model here produces that behaviour: when DRAM
requests concentrate on one domain's controller (the centralized
distribution of Figure 1), latency at that controller inflates; when
requests spread evenly, inflation stays near 1.

The inflation for domain ``d`` over an execution step is a queueing-shaped
function of that controller's *load ratio* — its share of DRAM requests
relative to a fair share — scaled by how many threads are driving traffic:

    rho_d   = requests_d / (total_requests / n_domains)   (load ratio)
    drive   = min(1, active_threads / n_domains)          (demand scale)
    infl_d  = 1 + beta * drive * max(rho_d - 1, 0)        capped at max_inflation

With 48 threads hammering one of 8 domains, ``rho = 8`` and inflation hits
the 5x cap; with balanced traffic ``rho = 1`` everywhere and inflation is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, repr=False)
class ContentionModel:
    """Maps per-domain DRAM request counts to latency inflation factors.

    Parameters
    ----------
    n_domains: number of memory controllers (one per NUMA domain).
    beta: inflation slope per unit of excess load ratio.
    max_inflation: cap on the inflation factor (paper cites 5x).
    """

    n_domains: int
    beta: float = 0.6
    max_inflation: float = 5.0

    def __post_init__(self) -> None:
        if self.n_domains <= 0:
            raise ValueError(f"n_domains must be positive, got {self.n_domains}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.max_inflation < 1:
            raise ValueError(
                f"max_inflation must be >= 1, got {self.max_inflation}"
            )

    def inflation(
        self, requests_per_domain: np.ndarray, active_threads: int
    ) -> np.ndarray:
        """Per-domain latency inflation for one execution step.

        ``requests_per_domain`` holds the DRAM request counts targeting
        each domain during the step (aggregated over all threads).
        """
        req = np.asarray(requests_per_domain, dtype=np.float64)
        if req.shape != (self.n_domains,):
            raise ValueError(
                f"expected shape ({self.n_domains},), got {req.shape}"
            )
        total = req.sum()
        out = np.ones(self.n_domains, dtype=np.float64)
        if total <= 0:
            return out
        fair = total / self.n_domains
        rho = req / fair
        drive = min(1.0, active_threads / self.n_domains)
        out = 1.0 + self.beta * drive * np.maximum(rho - 1.0, 0.0)
        return np.minimum(out, self.max_inflation)
