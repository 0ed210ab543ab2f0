"""The per-particle local program of algorithm :math:`\\mathcal{A}`.

Each activation executes the body of Algorithm 1 using *only* the
:class:`~repro.distributed.local_view.LocalView` interface — the code
below never touches global state, which (together with the locality
enforcement in the view) demonstrates the paper's claim that every
probability and property check in :math:`\\mathcal{M}` is strictly local.

The decision logic intentionally re-derives the neighbor counts from the
view rather than calling the optimized centralized helpers; the test
suite then asserts the two implementations agree move-for-move.  Only
the Metropolis filter itself is shared (:func:`repro.core.moves.bias_ratio`),
so extreme biases clamp the same way on every executor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from repro.core.moves import (
    _clamped_power,
    bias_ratio,
    property_4_reference,
    property_5_reference,
)
from repro.distributed.local_view import LocalView
from repro.lattice.triangular import Node, neighbors
from repro.util.rng import random_unit


@dataclass(frozen=True)
class MoveAction:
    """Accepted relocation of the activated particle."""

    src: Node
    dst: Node


@dataclass(frozen=True)
class SwapAction:
    """Accepted color exchange between two adjacent particles."""

    a: Node
    b: Node


@dataclass(frozen=True)
class NoAction:
    """Rejected or inapplicable activation, with the reason recorded."""

    reason: str


Action = Union[MoveAction, SwapAction, NoAction]


class ParticleAgent:
    """The local algorithm run independently by every particle.

    Stateless apart from the bias parameters (which in a deployment
    would be broadcast environmental inputs, per the paper's framing of
    λ and γ as "external, environmental influences").
    """

    def __init__(self, lam: float, gamma: float, swaps: bool = True):
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got {lam}, {gamma}"
            )
        self.lam = lam
        self.gamma = gamma
        self.swaps = swaps

    def decide(self, view: LocalView, rng: random.Random) -> Action:
        """Execute one activation against a local view.

        The caller has already drawn the uniformly random neighboring
        location (``view.target``); this method draws ``q`` and evaluates
        conditions (i)-(iii) or the swap filter.
        """
        if view.is_occupied(view.target):
            return self._decide_swap(view, rng)
        return self._decide_move(view, rng)

    # ------------------------------------------------------------------

    def _decide_move(self, view: LocalView, rng: random.Random) -> Action:
        src = view.location
        dst = view.target
        my_color = view.my_color()

        src_neighbors = view.occupied_neighbors(src)
        e_src = len(src_neighbors)  # dst is empty, so no exclusion needed
        if e_src == 5:
            return NoAction("condition (i): particle has five neighbors")

        # Properties 4/5 over the readable union neighborhood.
        readable_occupied = {
            node
            for node in set(neighbors(src)) | set(neighbors(dst))
            if view.is_occupied(node)
        }
        readable_occupied.add(src)
        if not (
            property_4_reference(readable_occupied, src, dst)
            or property_5_reference(readable_occupied, src, dst)
        ):
            return NoAction("condition (ii): Properties 4 and 5 both fail")

        dst_neighbors = [n for n in view.occupied_neighbors(dst) if n != src]
        e_dst = len(dst_neighbors)
        e_src_same = sum(
            1 for n in src_neighbors if view.color_of(n) == my_color
        )
        e_dst_same = sum(
            1 for n in dst_neighbors if view.color_of(n) == my_color
        )
        ratio = bias_ratio(
            self.lam, self.gamma, e_dst - e_src, e_dst_same - e_src_same
        )
        q = random_unit(rng)
        if q < ratio:
            return MoveAction(src=src, dst=dst)
        return NoAction("condition (iii): Metropolis filter rejected")

    # ------------------------------------------------------------------

    def _decide_swap(self, view: LocalView, rng: random.Random) -> Action:
        if not self.swaps:
            return NoAction("swap moves disabled")
        src = view.location
        dst = view.target
        my_color = view.my_color()
        other_color = view.color_of(dst)
        if other_color == my_color:
            return NoAction("neighbor has the same color: swap is a no-op")

        # Own side: direct neighborhood scan.
        src_neighbors = view.occupied_neighbors(src)
        own_same = sum(1 for n in src_neighbors if view.color_of(n) == my_color)
        own_other = sum(
            1
            for n in src_neighbors
            if n != dst and view.color_of(n) == other_color
        )
        # Neighbor side: read Q's published neighbor census from its memory.
        _, published = view.published_neighbor_counts(dst)
        their_same = published.get(my_color, 0) - 1  # exclude P itself
        their_other = published.get(other_color, 0)

        exponent = (their_same - own_same) + (own_other - their_other)
        q = random_unit(rng)
        if q < _clamped_power(self.gamma, exponent):
            return SwapAction(a=src, b=dst)
        return NoAction("swap filter rejected")
