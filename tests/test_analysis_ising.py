"""Tests for the Ising model and high-temperature expansion."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ising import (
    coloring_weight,
    even_edge_subsets,
    expected_heterogeneous_edges,
    fixed_counts_color_distribution,
    gamma_to_coupling,
    ising_partition_function,
    ising_partition_function_high_temperature,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
SQUARE = [(0, 1), (1, 2), (2, 3), (0, 3)]
TRIANGLE_WITH_TAIL = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]


class TestCoupling:
    def test_gamma_one_is_zero_coupling(self):
        assert gamma_to_coupling(1.0) == 0.0

    def test_gamma_above_one_ferromagnetic(self):
        assert gamma_to_coupling(4.0) > 0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            gamma_to_coupling(0.0)


class TestPartitionFunctions:
    def test_single_edge_closed_form(self):
        # Z = 2 e^J + 2 e^{-J} per spin pair.
        j = 0.7
        z = ising_partition_function(2, [(0, 1)], j)
        assert math.isclose(z, 2 * math.exp(j) + 2 * math.exp(-j))

    def test_zero_coupling_counts_states(self):
        assert ising_partition_function(4, SQUARE, 0.0) == 16.0

    @given(st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_high_temperature_identity_triangle(self, j):
        z_direct = ising_partition_function(3, TRIANGLE, j)
        z_ht = ising_partition_function_high_temperature(3, TRIANGLE, j)
        assert math.isclose(z_direct, z_ht, rel_tol=1e-10)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_high_temperature_identity_with_bridges(self, j):
        z_direct = ising_partition_function(5, TRIANGLE_WITH_TAIL, j)
        z_ht = ising_partition_function_high_temperature(
            5, TRIANGLE_WITH_TAIL, j
        )
        assert math.isclose(z_direct, z_ht, rel_tol=1e-10)

    def test_high_temperature_identity_on_lattice_patch(self):
        """HT identity on an actual triangular-lattice disk."""
        from repro.lattice.geometry import disk
        from repro.lattice.triangular import edges_of

        nodes = sorted(disk((0, 0), 1))
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[a], index[b]) for a, b in edges_of(nodes)]
        for j in (0.2, 0.8):
            z_direct = ising_partition_function(len(nodes), edges, j)
            z_ht = ising_partition_function_high_temperature(
                len(nodes), edges, j
            )
            assert math.isclose(z_direct, z_ht, rel_tol=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ising_partition_function(30, [], 0.1)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            ising_partition_function(2, [(0, 5)], 0.1)
        with pytest.raises(ValueError):
            ising_partition_function(2, [(1, 1)], 0.1)


class TestEvenSubsets:
    def test_triangle_cycle_space(self):
        subsets = even_edge_subsets(3, TRIANGLE)
        assert len(subsets) == 2  # empty set and the full triangle

    def test_tree_has_only_empty(self):
        assert even_edge_subsets(4, [(0, 1), (1, 2), (1, 3)]) == [0]

    def test_two_independent_cycles(self):
        edges = TRIANGLE + [(3, 4), (4, 5), (3, 5)]
        assert len(even_edge_subsets(6, edges)) == 4

    def test_all_subsets_even(self):
        edges = TRIANGLE_WITH_TAIL
        for mask in even_edge_subsets(5, edges):
            degree = {}
            for i, (u, v) in enumerate(edges):
                if mask & (1 << i):
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
            assert all(d % 2 == 0 for d in degree.values())


class TestFixedCountsDistribution:
    def test_normalized(self):
        dist = fixed_counts_color_distribution(4, SQUARE, 2, gamma=3.0)
        assert math.isclose(sum(dist.values()), 1.0)
        assert len(dist) == len(list(combinations(range(4), 2)))

    def test_gamma_one_uniform(self):
        dist = fixed_counts_color_distribution(4, SQUARE, 2, gamma=1.0)
        values = list(dist.values())
        assert all(math.isclose(v, values[0]) for v in values)

    def test_sorted_coloring_favored_at_large_gamma(self):
        """On a path, the contiguous coloring has the fewest
        heterogeneous edges and dominates for γ large."""
        path = [(0, 1), (1, 2), (2, 3)]
        dist = fixed_counts_color_distribution(4, path, 2, gamma=10.0)
        best = max(dist, key=dist.get)
        assert best in ((0, 0, 1, 1), (1, 1, 0, 0))

    def test_expected_hetero_decreases_with_gamma(self):
        path = [(0, 1), (1, 2), (2, 3)]
        high = expected_heterogeneous_edges(4, path, 2, gamma=8.0)
        low = expected_heterogeneous_edges(4, path, 2, gamma=1.0)
        assert high < low

    def test_coloring_weight(self):
        assert coloring_weight([(0, 1)], [0, 1], gamma=4.0) == 0.25
        assert coloring_weight([(0, 1)], [1, 1], gamma=4.0) == 1.0

    def test_coloring_weight_clamps_at_extreme_gamma(self):
        assert coloring_weight(SQUARE, [0, 1, 0, 1], gamma=1e-200) == math.inf
        assert coloring_weight(SQUARE, [0, 1, 0, 1], gamma=1e200) == 0.0

    @pytest.mark.parametrize("gamma", [1e-200, 1e200])
    def test_total_at_extreme_gamma(self, gamma):
        """All mass on the max-h colorings as γ → 0, min-h as γ → ∞."""
        dist = fixed_counts_color_distribution(4, SQUARE, 2, gamma=gamma)
        assert all(math.isfinite(p) for p in dist.values())
        assert math.isclose(sum(dist.values()), 1.0)
        hetero = {
            coloring: sum(1 for u, v in SQUARE if coloring[u] != coloring[v])
            for coloring in dist
        }
        pick = max if gamma < 1.0 else min
        target = pick(hetero.values())
        assert target == (4 if gamma < 1.0 else 2)
        mass = sum(p for c, p in dist.items() if hetero[c] == target)
        assert math.isclose(mass, 1.0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            fixed_counts_color_distribution(3, TRIANGLE, 5, gamma=2.0)


class TestChainConsistency:
    def test_chain_conditional_colors_match_ising(self):
        """Deep consistency check: conditioned on the node set, the exact
        chain's stationary distribution over colorings equals the
        fixed-magnetization Ising distribution with J = ln(γ)/2."""
        from repro.markov.exact import ExactChainAnalysis

        gamma = 3.0
        analysis = ExactChainAnalysis(4, [2, 2], lam=2.0, gamma=gamma)
        # Group stationary mass by node set; compare within-group
        # conditional probabilities to the Ising form γ^{-h} / Z_shape.
        by_shape = {}
        for state, probability in zip(analysis.states, analysis.pi):
            shape = tuple(sorted(state.colors))
            by_shape.setdefault(shape, []).append((state, probability))
        checked = 0
        for shape, entries in by_shape.items():
            if len(entries) < 2:
                continue
            total = sum(p for _, p in entries)
            for state, probability in entries:
                expected = (
                    gamma ** (-state.hetero_total)
                    / sum(gamma ** (-s.hetero_total) for s, _ in entries)
                )
                assert math.isclose(probability / total, expected, rel_tol=1e-9)
                checked += 1
        assert checked > 100
