"""The application-proxy interface.

An :class:`AppModel` is everything the pipeline needs from a workload:

- per-rank :class:`~repro.instrument.program.Program`\\ s (what the task
  computes, for instrumentation/tracing),
- every rank's event script, recorded in one pass of an SPMD script
  over per-rank arrays (when each rank computes vs. communicates, for
  replay),
- rank equivalence classes (for tractable ground-truth simulation).

Strong vs. weak scaling (§V: "Each application was scaled using strong
scaling"; §VI flags weak scaling as future work) is a mode on the model:
strong keeps the global problem fixed, weak grows it with the core
count.
"""

from __future__ import annotations

import enum
from typing import Callable, List

from repro.instrument.program import Program
from repro.simmpi.runtime import AllRanksComm, Job


class ScalingMode(enum.Enum):
    """How the global problem size responds to the core count."""

    STRONG = "strong"
    WEAK = "weak"


class AppModel:
    """Base class for application proxies."""

    #: Application name used in traces, signatures and reports.
    name: str = "app"

    # -- the contract ----------------------------------------------------

    def rank_program(self, rank: int, n_ranks: int) -> Program:
        """Build the (laid-out) program of one rank at one core count."""
        raise NotImplementedError

    def rank_script(self, comm: AllRanksComm) -> None:
        """Emit every rank's events at once (the SPMD script).

        Each ``comm`` call takes one value for every rank or an array of
        per-rank values (``comm.rank`` lines them up), and a peer of -1
        or an iteration count <= 0 records nothing for that rank.  Rank
        ``r``'s events are the ``SimComm`` calls the script stands for
        at ``r``, in call order.  Hand-written per-rank functions record
        through :func:`~repro.simmpi.runtime.run_job` instead.
        """
        raise NotImplementedError

    def equivalence_classes(self, n_ranks: int) -> List[List[int]]:
        """Partition ranks into identical-program groups."""
        raise NotImplementedError

    # -- provided --------------------------------------------------------

    def build_job(self, n_ranks: int) -> Job:
        """Record every rank's event script at one core count."""
        comm = AllRanksComm(n_ranks)
        self.rank_script(comm)
        return comm.job(self.name)

    def program_factory(self, n_ranks: int) -> Callable[[int], Program]:
        """Rank -> program callable bound to one core count."""

        def factory(rank: int) -> Program:
            return self.rank_program(rank, n_ranks)

        return factory
