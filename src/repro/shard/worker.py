"""One shard of a sharded run: a full replica plus its boundary hooks.

Each worker builds the *complete* simulation -- topology, subscriptions,
every node's processes -- exactly as a serial run would, repeating every
construction-time draw, then filters at runtime: only locally-owned node
processes are armed (:meth:`Simulation.start` under a shard context), and
cut links (:meth:`Link.mark_boundary`) and the out-of-band channel
(:meth:`Network.mark_oob_boundary`) emit through
:func:`~repro.shard.seam.seam_emit`, which exports every arrival at a
foreign node at send time.  Replication is what makes the
merge trivial: shard-local data structures are laid out identically to
serial, so partials combine by summation and journal replay.

The round API (peek / inject / run_until / drain_outbox) is driven by the
runner's conservative-lookahead loop; a worker never advances past a
horizon it was not given, so no import can ever arrive in its past.
"""

from __future__ import annotations

import gc
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.scenarios.builder import Simulation
from repro.scenarios.config import SimulationConfig
from repro.shard.context import ShardContext
from repro.shard.merge import ShardPartial, collect_partial
from repro.shard.partition import cut_edges_for
from repro.shard.seam import inject_imports, seam_emit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.tree import Tree

__all__ = ["ShardWorker"]


class ShardWorker:
    """A shard's replica simulation plus the seam plumbing around it."""

    def __init__(
        self,
        config: SimulationConfig,
        owner: Sequence[int],
        index: int,
        tree: Optional["Tree"] = None,
    ) -> None:
        self.index = index
        self.context = ShardContext.for_shard(index, owner)
        self.simulation = Simulation(config, tree=tree, shard_context=self.context)
        network = self.simulation.network
        # Cut links are recomputed locally from the shipped ownership map;
        # the overlay is static under sharding (no reconfiguration), so the
        # replica's edge list matches the partitioner's.
        self.cut_links: List[Tuple[int, int]] = cut_edges_for(
            owner, network.edges()
        )
        emit = seam_emit(
            self.context.is_local,
            self.context.outbox,
            self.simulation.sim.schedule_call_at,
        )
        for a, b in self.cut_links:
            network.link(a, b).mark_boundary(emit)
        network.mark_oob_boundary(emit)
        self.simulation.start()
        # The runner drives the engine directly (Simulation.run's gc pause
        # never sees these events), so pause collection here for the whole
        # sharded loop and restore the caller's setting at collect time.
        self._gc_was_enabled = gc.isenabled()
        if self._gc_was_enabled:
            gc.disable()

    # ------------------------------------------------------------------
    # Round API (driven by repro.shard.runner)
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Time of this shard's next pending event, or ``None``."""
        return self.simulation.sim.peek()

    def inject(self, imports: Sequence[tuple]) -> None:
        """Schedule one round's inbound seam messages (pre-sorted)."""
        inject_imports(self.simulation, imports)

    def run_until(self, horizon: float, inclusive: bool) -> None:
        """Advance to ``horizon``.

        Intermediate rounds are *exclusive*: events strictly before the
        horizon fire (the engine's ``run(until=...)`` is inclusive, so the
        target is the largest float below it), leaving any event at exactly
        the horizon -- e.g. an import scheduled right on it -- for the next
        round.  The final round runs inclusive to ``sim_time``, matching
        the serial run's closing semantics.
        """
        target = horizon if inclusive else math.nextafter(horizon, 0.0)
        self.simulation.sim.run(until=target)

    def drain_outbox(self) -> List[tuple]:
        """Take this round's seam exports (in local execution order).

        The outbox list object is captured by the seam emission, so it is
        drained in place, never rebound.
        """
        outbox = self.context.outbox
        exports = outbox[:]
        outbox.clear()
        return exports

    # ------------------------------------------------------------------
    def collect(self) -> ShardPartial:
        """Finalize: restore gc and summarize this shard's contribution."""
        if self._gc_was_enabled:
            gc.enable()
            self._gc_was_enabled = False
        return collect_partial(self.simulation, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardWorker {self.index} local="
            f"{sum(self.context.is_local)}/{len(self.context.is_local)} "
            f"cut={len(self.cut_links)} t={self.simulation.sim.now:.3f}>"
        )
