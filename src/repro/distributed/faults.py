"""Failure injection: crash-stop particles.

Real programmable-matter deployments lose devices.  The amoebot model
has no failure story in the paper, but the stochastic approach degrades
gracefully in an analyzable way: a *crash-stop* particle simply stops
activating.  It still occupies its node, still counts in neighbors'
censuses, and can still be read — it just never moves or initiates a
swap (and, in this model, never accepts being swapped, since swap moves
require writing to the partner's memory).

Mechanically, crashing particles freezes part of the configuration; the
chain restricted to live particles is still a valid Markov chain on the
reachable sub-space, so invariants (connectivity, hole-freedom) are
untouched.  What degrades is the *objective*: frozen wrongly-placed
particles leave permanent defects in the separated pattern.  The
robustness tests and example quantify that degradation as a function of
the crash fraction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.moves import (
    _clamped_power,
    bias_ratio,
    move_deltas,
    read_ring,
    swap_exponent,
)
from repro.lattice.triangular import NEIGHBOR_OFFSETS, Node
from repro.system.configuration import ParticleSystem
from repro.util.rng import RngLike, make_rng


class FaultyRunner:
    """Separation dynamics with a crash-stop particle set.

    Crashed particles are chosen up front (``crash_fraction`` of the
    system, or an explicit node list) or injected later with
    :meth:`crash_nodes`.  Live-particle behavior is exactly Algorithm 1;
    proposals selecting a crashed particle, targeting a crashed swap
    partner, or moving where the rules forbid are no-ops.
    """

    def __init__(
        self,
        system: ParticleSystem,
        lam: float,
        gamma: float,
        crash_fraction: float = 0.0,
        crashed_nodes: Optional[Sequence[Node]] = None,
        swaps: bool = True,
        seed: RngLike = None,
    ):
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got {lam}, {gamma}"
            )
        if not 0.0 <= crash_fraction < 1.0:
            raise ValueError(
                f"crash_fraction must be in [0, 1), got {crash_fraction}"
            )
        self.system = system
        self.lam = lam
        self.gamma = gamma
        self.swaps = swaps
        self.rng = make_rng(seed)
        self._positions: List[Node] = list(system.colors)
        self._crashed: Set[Node] = set()
        if crashed_nodes is not None:
            self.crash_nodes(crashed_nodes)
        elif crash_fraction > 0.0:
            count = int(round(crash_fraction * system.n))
            chosen = self.rng.sample(sorted(system.colors), count)
            self.crash_nodes(chosen)
        self.iterations = 0
        self.accepted_moves = 0
        self.accepted_swaps = 0
        self.crashed_activations = 0

    # ------------------------------------------------------------------

    def crash_nodes(self, nodes: Sequence[Node]) -> None:
        """Mark the particles at ``nodes`` as crashed (idempotent)."""
        for node in nodes:
            if node not in self.system.colors:
                raise ValueError(f"no particle at {node} to crash")
            self._crashed.add(node)

    @property
    def crashed_count(self) -> int:
        """Number of crashed particles."""
        return len(self._crashed)

    def live_fraction(self) -> float:
        """Fraction of particles still responding."""
        return 1.0 - len(self._crashed) / self.system.n

    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One activation; crashed selections are wasted activations."""
        system = self.system
        colors = system.colors
        positions = self._positions
        random = self.rng.random
        self.iterations += 1

        idx = int(random() * len(positions))
        src = positions[idx]
        if src in self._crashed:
            self.crashed_activations += 1
            return False
        ci = colors[src]
        d = int(random() * 6)
        dx, dy = NEIGHBOR_OFFSETS[d]
        x, y = src
        dst = (x + dx, y + dy)
        dst_color = colors.get(dst)
        if dst_color is not None:
            if (
                not self.swaps
                or dst_color == ci
                or dst in self._crashed  # crashed partners cannot swap
            ):
                return False

        ring_colors, mask = read_ring(colors, src, d)
        if dst_color is None:
            deltas = move_deltas(mask, ring_colors, ci)
            if deltas is None:
                return False
            delta_e, delta_ei = deltas
            ratio = bias_ratio(self.lam, self.gamma, delta_e, delta_ei)
            if ratio < 1.0 and random() >= ratio:
                return False
            del colors[src]
            colors[dst] = ci
            positions[idx] = dst
            system.edge_total += delta_e
            system.hetero_total += delta_e - delta_ei
            self.accepted_moves += 1
            return True

        expo = swap_exponent(ring_colors, ci, dst_color)
        ratio = _clamped_power(self.gamma, expo)
        if ratio < 1.0 and random() >= ratio:
            return False
        colors[src] = dst_color
        colors[dst] = ci
        system.hetero_total -= expo
        self.accepted_swaps += 1
        return True

    def run(self, steps: int) -> "FaultyRunner":
        """Execute ``steps`` activations."""
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self


def degradation_curve(
    n: int,
    crash_fractions: Sequence[float],
    lam: float = 4.0,
    gamma: float = 4.0,
    iterations: int = 300_000,
    seed: int = 0,
) -> List[dict]:
    """Endpoint separation quality versus crash fraction.

    Returns one row per crash fraction with the heterogeneous-edge
    density and demixing index after ``iterations`` steps from matched
    starts — the robustness profile of the algorithm.
    """
    from repro.analysis.interfaces import demixing_index
    from repro.system.initializers import random_blob_system

    rows = []
    for fraction in crash_fractions:
        system = random_blob_system(n, seed=seed)
        runner = FaultyRunner(
            system,
            lam=lam,
            gamma=gamma,
            crash_fraction=fraction,
            seed=seed,
        )
        runner.run(iterations)
        rows.append(
            {
                "crash_fraction": fraction,
                "hetero_density": (
                    system.hetero_total / system.edge_total
                    if system.edge_total
                    else 0.0
                ),
                "demixing_index": demixing_index(system),
                "crashed": runner.crashed_count,
            }
        )
    return rows
