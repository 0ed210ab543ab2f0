"""Faithful amoebot-level execution: explicit expand/contract movement.

The runners in :mod:`repro.distributed.runner` treat a move as one
atomic action, which the standard asynchronous model justifies
(Section 2.1).  This module drops one level lower and simulates the
amoebot mechanics the paper actually describes: a particle first
*expands* into an adjacent empty node (occupying two nodes), then in a
later activation *contracts* to one of them.  Between the two
activations, other particles observe — and must cope with — an expanded
neighbor.

Faithfulness notes:

* A contracted particle activating next to an expanded one cannot move
  into either of its nodes and cannot swap with it (swaps are defined
  between contracted particles); the activation is a no-op, matching
  the model's conflict behavior.
* The Metropolis decision (conditions (i)-(iii) of Algorithm 1) is
  evaluated at *expansion* time from the neighborhood as seen then,
  and the particle commits to contracting forward or back — this is
  exactly how the PODC '16 / shortcut-bridging translations schedule
  the filter, and under the serialization argument the trajectory
  distribution matches the atomic chain.
* While any particle is expanded, the occupied node set temporarily has
  n+1 nodes; invariant checks therefore apply to *quiescent*
  configurations (no expanded particles), which every activation
  sequence reaches whenever each expanded particle is eventually
  reactivated.
* **Locking.**  Two in-flight moves with overlapping neighborhoods can
  jointly violate Properties 4/5 even though each was individually
  valid — naive interleaving disconnects the system (a bug this module
  reproduced before locks were added).  Deployed amoebot algorithms
  guard against it by checking neighbors' movement flags; we do the
  same: a particle only expands if no particle in the union
  neighborhood of the move is currently expanded, and the committed
  decision is re-validated against current occupancy at contraction
  time (contracting back if the world changed underneath it).  The
  test suite verifies invariants hold under heavy interleaving.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.moves import (
    E_SRC,
    MOVE_OK,
    RING_OFFSETS,
    _clamped_power,
    bias_ratio,
    move_deltas,
    swap_exponent,
)
from repro.lattice.triangular import NEIGHBOR_OFFSETS, Node, direction_between
from repro.system.configuration import ParticleSystem
from repro.system.particle import Particle
from repro.util.rng import RngLike, make_rng, spawn_rngs


class AmoebotSimulator:
    """Expand/contract-level simulator of algorithm :math:`\\mathcal{A}`.

    Maintains :class:`~repro.system.particle.Particle` records (head,
    optional tail, memory) over a shared occupancy map.  Each activation
    of a contracted particle performs Steps 1-2 and, for an empty
    target, the *expansion* plus the move decision (recorded in the
    particle's memory); each activation of an expanded particle performs
    the committed *contraction*.  Swap moves execute atomically (they
    involve no expansion — colors are exchanged through memory, per the
    footnote in Section 2.3).
    """

    def __init__(
        self,
        system: ParticleSystem,
        lam: float,
        gamma: float,
        swaps: bool = True,
        seed: RngLike = None,
    ):
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got {lam}, {gamma}"
            )
        self.system = system
        self.lam = lam
        self.gamma = gamma
        self.swaps = swaps
        master = make_rng(seed)
        self.particles: List[Particle] = [
            Particle(pid=i, color=color, head=node)
            for i, (node, color) in enumerate(sorted(system.colors.items()))
        ]
        self._occupant: Dict[Node, int] = {
            p.head: p.pid for p in self.particles
        }
        self._rngs = spawn_rngs(master, len(self.particles))
        self._scheduler_rng = make_rng(master.getrandbits(64))
        self.activations = 0
        self.expansions = 0
        self.contractions_forward = 0
        self.contractions_back = 0
        self.accepted_swaps = 0

    # ------------------------------------------------------------------

    def _is_occupied(self, node: Node) -> bool:
        return node in self._occupant

    def activate(self, pid: Optional[int] = None) -> str:
        """One activation; returns a short label of what happened.

        ``pid`` defaults to a uniformly random particle (the chain's
        schedule); deterministic schedules can pass explicit ids.
        """
        self.activations += 1
        if pid is None:
            pid = int(self._scheduler_rng.random() * len(self.particles))
        particle = self.particles[pid]
        rng = self._rngs[pid]

        if particle.is_expanded:
            return self._contract(particle)
        return self._try_expand_or_swap(particle, rng)

    def _try_expand_or_swap(self, particle: Particle, rng) -> str:
        src = particle.head
        d = int(rng.random() * 6)
        dx, dy = NEIGHBOR_OFFSETS[d]
        dst = (src[0] + dx, src[1] + dy)
        occupant_pid = self._occupant.get(dst)

        if occupant_pid is not None:
            other = self.particles[occupant_pid]
            if (
                not self.swaps
                or other.is_expanded
                or other.color == particle.color
            ):
                return "noop"
            return self._try_swap(particle, other, rng)

        # Evaluate conditions (i)-(iii) from the pre-expansion view,
        # acquiring the neighborhood lock: abort if any particle in the
        # union neighborhood is itself mid-move (expanded).
        x, y = src
        ring_colors = []
        mask = 0
        bit = 1
        for rdx, rdy in RING_OFFSETS[d]:
            node = (x + rdx, y + rdy)
            occupant = self._occupant.get(node)
            if occupant is None:
                ring_colors.append(None)
            else:
                if self.particles[occupant].is_expanded:
                    return "noop"  # neighborhood locked by an in-flight move
                ring_colors.append(self.particles[occupant].color)
                mask |= bit
            bit <<= 1
        deltas = move_deltas(mask, ring_colors, particle.color)
        if deltas is None:
            return "noop"
        ratio = bias_ratio(self.lam, self.gamma, *deltas)
        go_forward = ratio >= 1.0 or rng.random() < ratio

        # Physically expand; the committed decision rides in memory.
        particle.expand(dst)
        self._occupant[dst] = particle.pid
        particle.memory["contract_forward"] = go_forward
        self.expansions += 1
        return "expanded"

    def _contract(self, particle: Particle) -> str:
        forward = bool(particle.memory.pop("contract_forward", False))
        head, tail = particle.head, particle.tail
        if forward and not self._still_valid(particle):
            forward = False  # the world changed: abort the move
        if forward:
            del self._occupant[tail]
            particle.contract_to_head()
            self.system.move_particle(tail, head)
            self.contractions_forward += 1
            return "contracted-forward"
        del self._occupant[head]
        particle.contract_to_tail()
        self.contractions_back += 1
        return "contracted-back"

    def _still_valid(self, particle: Particle) -> bool:
        """Re-check conditions (i)-(ii) against current occupancy.

        The particle occupies both ``tail`` (origin) and ``head``
        (target); validity is evaluated for the move tail -> head with
        the particle's own nodes excluded, exactly as at expansion time.
        """
        tail, head = particle.tail, particle.head
        d = direction_between(tail, head)
        x, y = tail
        mask = 0
        bit = 1
        for rdx, rdy in RING_OFFSETS[d]:
            if (x + rdx, y + rdy) in self._occupant:
                mask |= bit
            bit <<= 1
        return E_SRC[mask] != 5 and MOVE_OK[mask]

    def _try_swap(self, particle: Particle, other: Particle, rng) -> str:
        src, dst = particle.head, other.head
        d = direction_between(src, dst)
        x, y = src
        ring_colors = []
        for rdx, rdy in RING_OFFSETS[d]:
            occupant = self._occupant.get((x + rdx, y + rdy))
            ring_colors.append(
                None if occupant is None else self.particles[occupant].color
            )
        expo = swap_exponent(ring_colors, particle.color, other.color)
        ratio = _clamped_power(self.gamma, expo)
        if ratio < 1.0 and rng.random() >= ratio:
            return "noop"
        particle.color, other.color = other.color, particle.color
        self.system.swap_particles(src, dst)
        self.accepted_swaps += 1
        return "swapped"

    # ------------------------------------------------------------------

    def run(self, activations: int) -> "AmoebotSimulator":
        """Execute a number of activations."""
        if activations < 0:
            raise ValueError(
                f"activations must be non-negative, got {activations}"
            )
        for _ in range(activations):
            self.activate()
        return self

    def settle(self) -> int:
        """Activate every expanded particle so the system is quiescent.

        Returns the number of contractions performed.  After settling,
        the occupancy map has exactly n nodes and the usual invariants
        (connectivity, hole-freedom) are checkable.
        """
        settled = 0
        for particle in self.particles:
            if particle.is_expanded:
                self.activate(particle.pid)
                settled += 1
        return settled

    def is_quiescent(self) -> bool:
        """Whether no particle is currently expanded."""
        return all(p.is_contracted for p in self.particles)

    def expanded_count(self) -> int:
        """Number of currently expanded particles."""
        return sum(1 for p in self.particles if p.is_expanded)
