"""The Ising model and its high-temperature expansion.

Theorem 15's machinery rewrites the colored-configuration partition
function over a fixed boundary via the high-temperature expansion of the
Ising model.  The correspondence for this library: fix the occupied node
set of a configuration; the conditional stationary distribution over
colorings is :math:`\\pi(\\text{coloring}) \\propto \\gamma^{-h}`, which is
an Ising model on the occupied subgraph with coupling
:math:`J = \\ln(\\gamma)/2` (ferromagnetic for γ > 1).

This module provides exact partition functions (spin sums), the
high-temperature expansion

.. math::
   Z = 2^{|V|} (\\cosh J)^{|E|}
       \\sum_{E' \\subseteq E \\text{ even}} (\\tanh J)^{|E'|},

with even subsets enumerated through the GF(2) cycle space, and the
fixed-magnetization (fixed color counts) variants matching the chain's
conserved quantities.  Everything is brute-force exact, for cross-checks
on small graphs.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.moves import _clamped_power

Node = object
EdgeT = Tuple[int, int]  # indices into the node list


def gamma_to_coupling(gamma: float) -> float:
    """Ising coupling J with :math:`\\gamma^{-h} \\propto e^{J \\sum s_u s_v}`.

    Each heterogeneous edge contributes :math:`(1 - s_u s_v)/2`, so
    :math:`J = \\ln(\\gamma) / 2`.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return 0.5 * math.log(gamma)


def _normalize_edges(num_nodes: int, edges: Iterable[EdgeT]) -> List[EdgeT]:
    normalized = []
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        normalized.append((min(u, v), max(u, v)))
    return normalized


def ising_partition_function(
    num_nodes: int, edges: Sequence[EdgeT], coupling: float
) -> float:
    """Exact :math:`Z = \\sum_{s \\in \\{\\pm 1\\}^V} e^{J \\sum_{(u,v)} s_u s_v}`.

    Brute force over all :math:`2^{|V|}` spin assignments; intended for
    :math:`|V| \\lesssim 20`.
    """
    edge_list = _normalize_edges(num_nodes, edges)
    if num_nodes > 22:
        raise ValueError(f"brute-force Ising sum infeasible for {num_nodes} nodes")
    total = 0.0
    for assignment in range(1 << num_nodes):
        energy = 0
        for u, v in edge_list:
            su = 1 if assignment & (1 << u) else -1
            sv = 1 if assignment & (1 << v) else -1
            energy += su * sv
        total += math.exp(coupling * energy)
    return total


def even_edge_subsets(num_nodes: int, edges: Sequence[EdgeT]) -> List[int]:
    """All even edge subsets, as bitmasks over the edge list.

    The even subsets form the GF(2) cycle space: build a spanning forest,
    take the fundamental cycle of each non-tree edge as a basis vector,
    and XOR over all basis combinations.  Returns
    :math:`2^{|E| - |V| + \\#components}` masks (including the empty set).
    """
    edge_list = _normalize_edges(num_nodes, edges)
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_adj: Dict[int, List[Tuple[int, int]]] = {i: [] for i in range(num_nodes)}
    non_tree: List[int] = []
    for index, (u, v) in enumerate(edge_list):
        ru, rv = find(u), find(v)
        if ru == rv:
            non_tree.append(index)
        else:
            parent[ru] = rv
            tree_adj[u].append((v, index))
            tree_adj[v].append((u, index))

    def tree_path_mask(u: int, v: int) -> int:
        """Bitmask of tree edges on the unique forest path from u to v."""
        # BFS from u recording the edge used to reach each node.
        from collections import deque

        prev: Dict[int, Tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue:
            node = queue.popleft()
            if node == v:
                break
            for nxt, edge_index in tree_adj[node]:
                if nxt not in prev:
                    prev[nxt] = (node, edge_index)
                    queue.append(nxt)
        mask = 0
        node = v
        while prev[node][0] != -1:
            node, edge_index = prev[node]
            mask |= 1 << edge_index
        return mask

    basis: List[int] = []
    for index in non_tree:
        u, v = edge_list[index]
        basis.append((1 << index) | tree_path_mask(u, v))

    subsets = [0]
    for vector in basis:
        subsets.extend(mask ^ vector for mask in list(subsets))
    return subsets


def ising_partition_function_high_temperature(
    num_nodes: int, edges: Sequence[EdgeT], coupling: float
) -> float:
    """Z via the high-temperature expansion (must equal the spin sum)."""
    edge_list = _normalize_edges(num_nodes, edges)
    tanh_j = math.tanh(coupling)
    even_sum = sum(
        tanh_j ** bin(mask).count("1")
        for mask in even_edge_subsets(num_nodes, edge_list)
    )
    return (2.0**num_nodes) * (math.cosh(coupling) ** len(edge_list)) * even_sum


def coloring_weight(
    edges: Sequence[EdgeT], coloring: Sequence[int], gamma: float
) -> float:
    """:math:`\\gamma^{-h}` for a 2-coloring of a fixed shape.

    Overflow clamps to ``math.inf`` (and underflow goes to ``0.0``), so
    extreme-but-valid γ never raises.
    """
    return _clamped_power(gamma, -_hetero(edges, coloring))


def _hetero(edges: Sequence[EdgeT], coloring: Sequence[int]) -> int:
    """Number of heterogeneous edges h of ``coloring``."""
    return sum(1 for u, v in edges if coloring[u] != coloring[v])


def fixed_counts_color_distribution(
    num_nodes: int,
    edges: Sequence[EdgeT],
    count_color1: int,
    gamma: float,
) -> Dict[Tuple[int, ...], float]:
    """Exact distribution over colorings with fixed color counts.

    This is the conditional stationary distribution of the separation
    chain given the occupied node set — the measure :math:`\\pi_\\Lambda`
    analyzed in Theorems 14 and 16 (an Ising model at fixed
    magnetization).  Returns a map from coloring tuples (color of node i
    at position i) to probability.

    Weights are normalized in log space: each coloring's log-weight
    :math:`-h \\ln \\gamma` is shifted by the largest one (that of the
    fewest heterogeneous edges for γ ≥ 1, of the most for γ < 1), so
    every exponentiated weight lies in (0, 1] with at least one equal to
    1, and the distribution stays finite and normalized at any γ > 0.
    """
    if not 0 <= count_color1 <= num_nodes:
        raise ValueError(
            f"count_color1={count_color1} out of range for {num_nodes} nodes"
        )
    edge_list = _normalize_edges(num_nodes, edges)
    log_gamma = math.log(gamma)
    log_weights: Dict[Tuple[int, ...], float] = {}
    for ones in combinations(range(num_nodes), count_color1):
        coloring = [0] * num_nodes
        for index in ones:
            coloring[index] = 1
        log_weights[tuple(coloring)] = -_hetero(edge_list, coloring) * log_gamma
    top = max(log_weights.values())
    weights = {
        coloring: math.exp(log_weight - top)
        for coloring, log_weight in log_weights.items()
    }
    total = sum(weights.values())
    return {coloring: weight / total for coloring, weight in weights.items()}


def expected_heterogeneous_edges(
    num_nodes: int,
    edges: Sequence[EdgeT],
    count_color1: int,
    gamma: float,
) -> float:
    """Stationary expectation of h under the fixed-shape distribution."""
    edge_list = _normalize_edges(num_nodes, edges)
    distribution = fixed_counts_color_distribution(
        num_nodes, edge_list, count_color1, gamma
    )
    return sum(
        probability * _hetero(edge_list, coloring)
        for coloring, probability in distribution.items()
    )
