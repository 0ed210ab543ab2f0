"""The stochastic approach as a reusable framework: local energy functions.

Section 5 of the paper: "This approach can potentially be applied to any
objective described by a global energy function (where the desirable
configurations have low energy values), provided changes in energy due
to particle movements can be calculated with only local information."

This module makes that recipe a first-class abstraction.  A
:class:`LocalEnergy` assigns a global energy :math:`E(\\sigma)` to
configurations and — crucially — computes the energy *change* of a move
or swap from the 8-node edge ring alone.  The generic
:class:`EnergyChain` then runs Metropolis dynamics targeting
:math:`\\pi(\\sigma) \\propto e^{-E(\\sigma)}` under the same Properties
4/5 movement rules, so any such energy yields a valid local distributed
algorithm with known stationary distribution.

The paper's own objectives are provided as instances:

* :class:`SeparationEnergy` —
  :math:`E = p(\\sigma)\\ln(\\lambda\\gamma) + h(\\sigma)\\ln\\gamma`
  (Lemma 9's exponent), recovering Algorithm 1 exactly;
* :class:`CompressionEnergy` — the homogeneous special case;
* :class:`InteractionEnergy` — arbitrary per-color-pair couplings, the
  Potts-style generalization with a full affinity matrix.

Energies must be *edge-local*: expressible as a sum over configuration
edges of a weight depending only on the endpoint colors, plus a perimeter
term.  That is exactly the family for which the ring suffices.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.moves import (
    DST_RING_INDICES,
    SRC_RING_INDICES,
    move_deltas,
    read_ring,
    swap_exponent,
)
from repro.lattice.triangular import NEIGHBOR_OFFSETS, Node
from repro.system.configuration import ParticleSystem
from repro.util.rng import RngLike, make_rng


class LocalEnergy:
    """An edge-local energy function.

    Parameters
    ----------
    edge_cost:
        ``edge_cost[ci][cj]`` — contribution of an edge whose endpoints
        have colors ``ci`` and ``cj``.  Must be symmetric.  *Lower* cost
        means the edge is favored.
    perimeter_cost:
        Contribution per unit of perimeter.  Positive values favor
        compression (since for hole-free configurations
        :math:`p = 3n - 3 - e`, a positive perimeter cost is a negative
        cost on edges overall).
    """

    def __init__(
        self, edge_cost: Sequence[Sequence[float]], perimeter_cost: float
    ):
        size = len(edge_cost)
        for row in edge_cost:
            if len(row) != size:
                raise ValueError("edge_cost must be a square matrix")
        for i in range(size):
            for j in range(size):
                if not math.isclose(edge_cost[i][j], edge_cost[j][i]):
                    raise ValueError(
                        f"edge_cost must be symmetric; differs at ({i},{j})"
                    )
        self.edge_cost: List[List[float]] = [list(row) for row in edge_cost]
        self.perimeter_cost = float(perimeter_cost)
        self.num_colors = size

    # ------------------------------------------------------------------

    def total(self, system: ParticleSystem) -> float:
        """Global energy :math:`E(\\sigma)` (hole-free configurations).

        Sum of edge costs over configuration edges plus the perimeter
        term, computed from scratch in O(n).
        """
        colors = system.colors
        energy = self.perimeter_cost * system.perimeter()
        for (x, y), ci in colors.items():
            for dx, dy in NEIGHBOR_OFFSETS:
                nbr_color = colors.get((x + dx, y + dy))
                if nbr_color is not None:
                    energy += 0.5 * self.edge_cost[ci][nbr_color]
        return energy

    def move_delta(
        self,
        ci: int,
        ring_colors: Sequence[int],
    ) -> float:
        """ΔE of moving a color-``ci`` particle across the edge ring.

        ``ring_colors[i]`` is the color at ring position ``i`` (``None``
        if empty), with the edge-ring index convention.  Uses the
        identity Δp = -Δe for hole-free moves.
        """
        delta = 0.0
        edge_delta = 0
        cost = self.edge_cost[ci]
        for i in DST_RING_INDICES:
            c = ring_colors[i]
            if c is not None:
                delta += cost[c]
                edge_delta += 1
        for i in SRC_RING_INDICES:
            c = ring_colors[i]
            if c is not None:
                delta -= cost[c]
                edge_delta -= 1
        return delta - self.perimeter_cost * edge_delta

    def swap_delta(self, ci: int, cj: int, ring_colors: Sequence[int]) -> float:
        """ΔE of swapping colors ``ci`` (at the source) and ``cj`` (at the
        target) across the edge ring.  The connecting edge itself is
        unchanged (its endpoint colors merely trade places)."""
        cost_i = self.edge_cost[ci]
        cost_j = self.edge_cost[cj]
        delta = 0.0
        for i in SRC_RING_INDICES:
            c = ring_colors[i]
            if c is not None:
                delta += cost_j[c] - cost_i[c]
        for i in DST_RING_INDICES:
            c = ring_colors[i]
            if c is not None:
                delta += cost_i[c] - cost_j[c]
        return delta


class SeparationEnergy(LocalEnergy):
    """Lemma 9's energy: :math:`p\\ln(\\lambda\\gamma) + h\\ln\\gamma`.

    Homogeneous edges cost 0 and heterogeneous edges cost
    :math:`\\ln\\gamma`; the perimeter costs :math:`\\ln(\\lambda\\gamma)`
    per unit.  The resulting Metropolis chain is exactly Algorithm 1.
    """

    def __init__(self, lam: float, gamma: float, num_colors: int = 2):
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got {lam}, {gamma}"
            )
        log_gamma = math.log(gamma)
        edge_cost = [
            [0.0 if i == j else log_gamma for j in range(num_colors)]
            for i in range(num_colors)
        ]
        super().__init__(edge_cost, perimeter_cost=math.log(lam * gamma))
        self.lam = lam
        self.gamma = gamma


class CompressionEnergy(SeparationEnergy):
    """The homogeneous compression energy: :math:`p \\ln \\lambda`."""

    def __init__(self, lam: float):
        super().__init__(lam=lam, gamma=1.0, num_colors=2)


class InteractionEnergy(LocalEnergy):
    """General pairwise color affinities (the Potts-matrix extension).

    ``affinity[i][j] > 1`` makes color-``i``/color-``j`` contacts
    favorable (cost :math:`-\\ln a_{ij}` per edge); ``< 1`` penalizes
    them.  ``lam`` sets the overall compression drive.  With
    ``affinity = [[γ, 1], [1, γ]]`` this reduces to
    :class:`SeparationEnergy` up to an additive constant per edge.
    """

    def __init__(self, lam: float, affinity: Sequence[Sequence[float]]):
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        for row in affinity:
            for value in row:
                if value <= 0:
                    raise ValueError("affinities must be positive")
        edge_cost = [
            [-math.log(value) for value in row] for row in affinity
        ]
        super().__init__(edge_cost, perimeter_cost=math.log(lam))
        self.lam = lam
        self.affinity = [list(row) for row in affinity]


class EnergyChain:
    """Metropolis dynamics for any :class:`LocalEnergy`.

    Follows Algorithm 1's structure — uniform particle, uniform
    direction, Properties 4/5 and the five-neighbor rule for moves —
    with acceptance probability :math:`\\min(1, e^{-\\Delta E})`.  The
    stationary distribution is :math:`\\pi \\propto e^{-E}` over
    connected hole-free configurations by the same detailed-balance
    argument as Lemma 9.
    """

    def __init__(
        self,
        system: ParticleSystem,
        energy: LocalEnergy,
        swaps: bool = True,
        seed: RngLike = None,
    ):
        if energy.num_colors < system.num_colors:
            raise ValueError(
                f"energy supports {energy.num_colors} colors but the "
                f"system has {system.num_colors}"
            )
        self.system = system
        self.energy = energy
        self.swaps = bool(swaps)
        self.rng = make_rng(seed)
        self.iterations = 0
        self.accepted_moves = 0
        self.accepted_swaps = 0
        self._positions: List[Node] = list(system.colors)

    def step(self) -> bool:
        """One Metropolis iteration; returns whether the state changed."""
        system = self.system
        colors = system.colors
        positions = self._positions
        random = self.rng.random
        self.iterations += 1

        idx = int(random() * len(positions))
        src = positions[idx]
        ci = colors[src]
        d = int(random() * 6)
        dx, dy = NEIGHBOR_OFFSETS[d]
        x, y = src
        dst = (x + dx, y + dy)
        dst_color = colors.get(dst)
        if dst_color is not None and (not self.swaps or dst_color == ci):
            return False

        ring_colors, mask = read_ring(colors, src, d)

        if dst_color is None:
            deltas = move_deltas(mask, ring_colors, ci)
            if deltas is None:
                return False
            delta = self.energy.move_delta(ci, ring_colors)
            if delta > 0 and random() >= math.exp(-delta):
                return False
            del colors[src]
            colors[dst] = ci
            positions[idx] = dst
            delta_e, delta_ei = deltas
            system.edge_total += delta_e
            system.hetero_total += delta_e - delta_ei
            self.accepted_moves += 1
            return True

        delta = self.energy.swap_delta(ci, dst_color, ring_colors)
        if delta > 0 and random() >= math.exp(-delta):
            return False
        colors[src] = dst_color
        colors[dst] = ci
        system.hetero_total -= swap_exponent(ring_colors, ci, dst_color)
        self.accepted_swaps += 1
        return True

    def run(self, steps: int) -> "EnergyChain":
        """Execute ``steps`` iterations."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self

    def acceptance_rate(self) -> float:
        """Fraction of iterations that changed the configuration."""
        if self.iterations == 0:
            return 0.0
        return (self.accepted_moves + self.accepted_swaps) / self.iterations

    def log_stationary_weight(self, system: ParticleSystem = None) -> float:
        """:math:`-E(\\sigma)` for the current (or given) configuration."""
        return -self.energy.total(system or self.system)
