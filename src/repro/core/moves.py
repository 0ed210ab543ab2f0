"""Locality properties governing particle movement (Properties 4 and 5).

A contracted particle may move from node :math:`\\ell` to an adjacent
empty node :math:`\\ell'` only if one of two locally checkable properties
holds; together they guarantee the system stays connected and never forms
a new hole (Lemma 6).  With :math:`\\mathbb{S} = N(\\ell) \\cap N(\\ell')`
the set of particles adjacent to both nodes:

* **Property 4**: :math:`|\\mathbb{S}| \\in \\{1, 2\\}` and every particle
  in :math:`N(\\ell \\cup \\ell')` is connected to exactly one particle of
  :math:`\\mathbb{S}` by a path through :math:`N(\\ell \\cup \\ell')`.
* **Property 5**: :math:`|\\mathbb{S}| = 0`, and both
  :math:`N(\\ell) \\setminus \\{\\ell'\\}` and
  :math:`N(\\ell') \\setminus \\{\\ell\\}` are nonempty and connected.

Fast path: the eight nodes adjacent to :math:`\\ell` or :math:`\\ell'`
form a chordless 8-cycle (:func:`repro.lattice.triangular.edge_ring`), on
which "connected through the neighborhood" reduces to membership in
maximal circular runs of occupied positions.  Ring index convention (from
``edge_ring``): positions 0 and 4 are the two common neighbors; positions
1-3 are exclusive to :math:`\\ell'`; positions 5-7 exclusive to
:math:`\\ell`.

The module is also the single home of Algorithm 1's acceptance rule:
the ring-mask tables (:data:`MOVE_OK`, :data:`E_SRC`, :data:`E_DST`,
:data:`MOVE_DELTA`), the ring read (:func:`read_ring`), the move counts
(:func:`move_deltas`), the swap exponent (:func:`swap_exponent`) and the
Metropolis filter :math:`\\lambda^{\\Delta e}\\gamma^{\\Delta e_i}`
(:func:`bias_ratio`).  Every executor — the reference ``step()``, the
exact-chain builder, the distributed runners, the amoebot simulator, the
crash-stop runner and the energy chain — calls these; only the two
benchmarked hot loops inline them, pinned by bit-identity tests.

The module also provides reference implementations that follow the paper
definitions verbatim via BFS; the property-based tests assert the two
agree on random neighborhoods.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.lattice.triangular import (
    NEIGHBOR_OFFSETS,
    Node,
    common_neighbors,
    direction_between,
    edge_ring,
    neighbors,
)

#: Ring indices adjacent to the source node ℓ (including both commons).
SRC_RING_INDICES: Tuple[int, ...] = (0, 4, 5, 6, 7)
#: Ring indices adjacent to the destination node ℓ' (including both commons).
DST_RING_INDICES: Tuple[int, ...] = (0, 1, 2, 3, 4)
#: Ring indices of the two common neighbors (the candidate set S).
COMMON_RING_INDICES: Tuple[int, ...] = (0, 4)


def _circular_runs(occ: Sequence[bool]) -> List[List[int]]:
    """Maximal circular runs of True positions in an 8-slot ring."""
    size = len(occ)
    if all(occ):
        return [list(range(size))]
    if not any(occ):
        return []
    # Start scanning just after an empty slot so runs never wrap.
    start = next(i for i in range(size) if not occ[i])
    runs: List[List[int]] = []
    current: List[int] = []
    for offset in range(1, size + 1):
        i = (start + offset) % size
        if occ[i]:
            current.append(i)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


def satisfies_property_4(occ: Sequence[bool]) -> bool:
    """Property 4 on an edge-ring occupancy vector (length 8).

    ``occ[i]`` is whether the i-th ring position is occupied, with the
    index convention documented at module level.
    """
    s_count = occ[0] + occ[4]
    if s_count not in (1, 2):
        return False
    for run in _circular_runs(occ):
        commons_in_run = sum(1 for i in run if i in COMMON_RING_INDICES)
        if commons_in_run != 1:
            return False
    return True


def satisfies_property_5(occ: Sequence[bool]) -> bool:
    """Property 5 on an edge-ring occupancy vector (length 8)."""
    if occ[0] or occ[4]:
        return False
    # ℓ's exclusive neighbors are ring positions 5,6,7 (a path);
    # ℓ''s are positions 1,2,3.  Each side must be nonempty and
    # consecutive (the only disconnected pattern on a 3-path is 1,0,1).
    src_side = (occ[5], occ[6], occ[7])
    dst_side = (occ[1], occ[2], occ[3])
    for side in (src_side, dst_side):
        if not any(side):
            return False
        if side[0] and side[2] and not side[1]:
            return False
    return True


def move_allowed(occ: Sequence[bool]) -> bool:
    """Whether Property 4 or Property 5 holds for the ring occupancy."""
    return satisfies_property_4(occ) or satisfies_property_5(occ)


def ring_occupancy(colors: Dict[Node, int], src: Node, dst: Node) -> List[bool]:
    """Occupancy vector of the edge ring around ``(src, dst)``."""
    return [node in colors for node in edge_ring(src, dst)]


def move_allowed_between(colors: Dict[Node, int], src: Node, dst: Node) -> bool:
    """Convenience wrapper: Properties 4/5 for a move ``src -> dst``."""
    return move_allowed(ring_occupancy(colors, src, dst))


# ----------------------------------------------------------------------
# Algorithm 1's acceptance rule (shared by every executor)
# ----------------------------------------------------------------------


def _build_ring_offsets() -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """For each move direction d, offsets of the 8 edge-ring nodes.

    Offsets are relative to the source node; the ring index convention is
    that of :func:`repro.lattice.triangular.edge_ring` (positions 0 and 4
    are the common neighbors).
    """
    tables = []
    for d in range(6):
        vdx, vdy = NEIGHBOR_OFFSETS[d]
        ring = []
        # Position 0: common neighbor on the counterclockwise side.
        ring.append(NEIGHBOR_OFFSETS[(d + 1) % 6])
        # Positions 1-3: exclusive neighbors of the destination.
        for step in (1, 0, 5):
            dx, dy = NEIGHBOR_OFFSETS[(d + step) % 6]
            ring.append((vdx + dx, vdy + dy))
        # Position 4: common neighbor on the clockwise side.
        ring.append(NEIGHBOR_OFFSETS[(d + 5) % 6])
        # Positions 5-7: exclusive neighbors of the source.
        for step in (4, 3, 2):
            ring.append(NEIGHBOR_OFFSETS[(d + step) % 6])
        tables.append(tuple(ring))
    return tuple(tables)


RING_OFFSETS = _build_ring_offsets()

#: MOVE_OK[mask] — whether Property 4 or 5 holds for the ring occupancy
#: bitmask (bit i set iff ring position i occupied).
MOVE_OK: Tuple[bool, ...] = tuple(
    move_allowed([bool(mask & (1 << i)) for i in range(8)])
    for mask in range(256)
)

_SRC_MASK = sum(1 << i for i in SRC_RING_INDICES)
_DST_MASK = sum(1 << i for i in DST_RING_INDICES)

#: Number of occupied source-side / destination-side neighbors per mask.
E_SRC: Tuple[int, ...] = tuple(bin(mask & _SRC_MASK).count("1") for mask in range(256))
E_DST: Tuple[int, ...] = tuple(bin(mask & _DST_MASK).count("1") for mask in range(256))

#: Sentinel marking a ring mask whose move proposal is always rejected
#: (source has five neighbors, or Properties 4/5 fail).
_MOVE_REJECT = 99

#: Collapsed move table for the grid kernel: ``Δe = e' - e`` per ring
#: mask, or ``_MOVE_REJECT`` when the move is disallowed.  Folds the
#: three lookups of :func:`move_deltas` (``E_SRC``/``MOVE_OK``/``E_DST``)
#: and two branches into one lookup and one compare in the hot loop.
MOVE_DELTA: Tuple[int, ...] = tuple(
    (E_DST[mask] - E_SRC[mask])
    if (E_SRC[mask] != 5 and MOVE_OK[mask])
    else _MOVE_REJECT
    for mask in range(256)
)


def read_ring(
    colors: Mapping[Node, int], src: Node, d: int
) -> Tuple[List[Optional[int]], int]:
    """``(ring_colors, mask)`` of the edge ring for a proposal from ``src``.

    ``ring_colors[i]`` is the color at ring position ``i`` (``None`` if
    empty) for the move in direction ``d``; bit ``i`` of ``mask`` is set
    iff that position is occupied.
    """
    x, y = src
    ring_colors = []
    mask = 0
    bit = 1
    for rdx, rdy in RING_OFFSETS[d]:
        c = colors.get((x + rdx, y + rdy))
        ring_colors.append(c)
        if c is not None:
            mask |= bit
        bit <<= 1
    return ring_colors, mask


def move_deltas(
    mask: int, ring_colors: Sequence[Optional[int]], ci: int
) -> Optional[Tuple[int, int]]:
    """``(Δe, Δe_i)`` of moving a color-``ci`` particle across the ring.

    ``None`` when condition (i) (five neighbors) or (ii) (Properties 4/5)
    rejects the move.  ``Δe = e' - e`` counts all neighbors and
    ``Δe_i = e_i' - e_i`` the color-``ci`` ones; the moved particle's
    heterogeneous-edge change is therefore ``Δe - Δe_i``.
    """
    e_src = E_SRC[mask]
    if e_src == 5 or not MOVE_OK[mask]:
        return None
    ei_src = 0
    for i in SRC_RING_INDICES:
        if ring_colors[i] == ci:
            ei_src += 1
    ei_dst = 0
    for i in DST_RING_INDICES:
        if ring_colors[i] == ci:
            ei_dst += 1
    return E_DST[mask] - e_src, ei_dst - ei_src


def swap_exponent(ring_colors: Sequence[Optional[int]], ci: int, cj: int) -> int:
    """Δa, the swap exponent: the change in homogeneous-edge count.

    For color ``ci`` at ℓ swapping with ``cj`` at ℓ′, this is Algorithm 1's
    :math:`|N_i(\\ell')\\setminus\\{P\\}| - |N_j(\\ell')| - |N_i(\\ell)|
    + |N_j(\\ell)\\setminus\\{Q\\}|`; the swap's heterogeneous-edge change
    is ``-Δa``.
    """
    expo = 0
    for i in DST_RING_INDICES:
        c = ring_colors[i]
        if c == ci:
            expo += 1  # |N_i(l') \ {P}|
        elif c == cj:
            expo -= 1  # |N_j(l')|
    for i in SRC_RING_INDICES:
        c = ring_colors[i]
        if c == ci:
            expo -= 1  # |N_i(l)|
        elif c == cj:
            expo += 1  # |N_j(l) \ {Q}|
    return expo


def _clamped_power(base: float, exponent: int) -> float:
    """``base ** exponent`` with overflow clamped to ``math.inf``.

    ``float.__pow__`` raises ``OverflowError`` for results above the
    float range (e.g. ``1e40 ** 10`` while building the swap table for
    the large-γ limit of Theorem 14) but silently underflows to ``0.0``
    below it; clamping the overflow side to ``inf`` makes both
    directions total, so extreme-but-valid biases never raise.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def bias_ratio(lam: float, gamma: float, delta_e: int, delta_ei: int) -> float:
    """:math:`\\lambda^{\\Delta e} \\gamma^{\\Delta e_i}`, overflow-safe.

    Resolves the indeterminate ``inf * 0`` corner (one bias extremely
    large, the other extremely small) in log space, which is where the
    product is well defined.
    """
    ratio = _clamped_power(lam, delta_e) * _clamped_power(gamma, delta_ei)
    if ratio != ratio:  # nan from inf * 0: resolve via logarithms
        log_ratio = delta_e * math.log(lam) + delta_ei * math.log(gamma)
        if log_ratio > 0.0:
            return math.inf
        return math.exp(log_ratio)
    return ratio


def evaluate_move(
    colors: Dict[Node, int],
    src: Node,
    dst: Node,
    lam: float,
    gamma: float,
) -> Tuple[float, int, int]:
    """Acceptance probability and (Δe, Δe_i) of a move ``src -> dst``.

    Requires ``src`` occupied, ``dst`` an empty neighbor.  Returns
    ``(probability, delta_edges, delta_same_color_edges)`` where the
    probability already includes conditions (i) and (ii) — it is zero for
    invalid moves.
    """
    ring_colors, mask = read_ring(colors, src, direction_between(src, dst))
    deltas = move_deltas(mask, ring_colors, colors[src])
    if deltas is None:
        return 0.0, 0, 0
    delta_e, delta_ei = deltas
    return min(1.0, bias_ratio(lam, gamma, delta_e, delta_ei)), delta_e, delta_ei


def evaluate_swap(
    colors: Dict[Node, int],
    u: Node,
    v: Node,
    gamma: float,
) -> Tuple[float, int]:
    """Acceptance probability and Δa of swapping particles at ``u, v``.

    Requires both nodes occupied by different colors.  Returns
    ``(probability, delta_homogeneous_edges)``.  The exponent is symmetric
    in ``u`` and ``v``, so either endpoint initiating yields the same
    probability (used by the 1/(3n) factor in Lemma 9's proof).
    """
    ci = colors[u]
    cj = colors[v]
    if ci == cj:
        raise ValueError("swap requires particles of different colors")
    ring_colors, _ = read_ring(colors, u, direction_between(u, v))
    expo = swap_exponent(ring_colors, ci, cj)
    return min(1.0, _clamped_power(gamma, expo)), expo


# ----------------------------------------------------------------------
# Reference (definition-verbatim) implementations, used in tests.
# ----------------------------------------------------------------------


def _union_neighborhood(occupied: Set[Node], src: Node, dst: Node) -> Set[Node]:
    """Occupied members of :math:`N(\\ell \\cup \\ell')` (excluding both)."""
    union = set(neighbors(src)) | set(neighbors(dst))
    union.discard(src)
    union.discard(dst)
    return {node for node in union if node in occupied}


def property_4_reference(occupied: Set[Node], src: Node, dst: Node) -> bool:
    """Property 4 straight from the definition (BFS through the union)."""
    union = _union_neighborhood(occupied, src, dst)
    s_set = {node for node in common_neighbors(src, dst) if node in occupied}
    if len(s_set) not in (1, 2):
        return False
    for start in union:
        reached_s = _reachable_s_members(union, s_set, start)
        if reached_s != 1:
            return False
    return True


def _reachable_s_members(union: Set[Node], s_set: Set[Node], start: Node) -> int:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nbr in neighbors(node):
            if nbr in union and nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return len(seen & s_set)


def property_5_reference(occupied: Set[Node], src: Node, dst: Node) -> bool:
    """Property 5 straight from the definition."""
    s_set = {node for node in common_neighbors(src, dst) if node in occupied}
    if s_set:
        return False
    for center, excluded in ((src, dst), (dst, src)):
        side = {
            node
            for node in neighbors(center)
            if node != excluded and node in occupied
        }
        if not side:
            return False
        if not _side_connected(side):
            return False
    return True


def _side_connected(side: Set[Node]) -> bool:
    start = next(iter(side))
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nbr in neighbors(node):
            if nbr in side and nbr not in seen:
                seen.add(nbr)
                queue.append(nbr)
    return len(seen) == len(side)


def move_allowed_reference(occupied: Set[Node], src: Node, dst: Node) -> bool:
    """Definition-verbatim validity check for a move ``src -> dst``."""
    return property_4_reference(occupied, src, dst) or property_5_reference(
        occupied, src, dst
    )
