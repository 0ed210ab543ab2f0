"""Tests for crash-stop failure injection."""

import pytest

from repro.core.separation_chain import SeparationChain
from repro.distributed.faults import FaultyRunner, degradation_curve
from repro.system.initializers import hexagon_system, random_blob_system
from repro.system.observables import color_counts


class TestConstruction:
    def test_validates_parameters(self):
        system = hexagon_system(10, seed=0)
        with pytest.raises(ValueError):
            FaultyRunner(system, lam=0, gamma=1)
        with pytest.raises(ValueError):
            FaultyRunner(system, lam=1, gamma=1, crash_fraction=1.0)

    def test_crash_fraction_count(self):
        system = hexagon_system(40, seed=0)
        runner = FaultyRunner(system, 4, 4, crash_fraction=0.25, seed=1)
        assert runner.crashed_count == 10
        assert runner.live_fraction() == 0.75

    def test_explicit_crash_nodes(self):
        system = hexagon_system(10, seed=0)
        nodes = sorted(system.colors)[:3]
        runner = FaultyRunner(system, 4, 4, crashed_nodes=nodes, seed=1)
        assert runner.crashed_count == 3

    def test_crash_unoccupied_node_rejected(self):
        system = hexagon_system(5, seed=0)
        runner = FaultyRunner(system, 4, 4, seed=1)
        with pytest.raises(ValueError):
            runner.crash_nodes([(99, 99)])


class TestFaultyDynamics:
    def test_crashed_particles_never_move(self):
        system = hexagon_system(30, seed=2)
        nodes = sorted(system.colors)[:6]
        frozen_colors = {node: system.colors[node] for node in nodes}
        runner = FaultyRunner(system, 4, 4, crashed_nodes=nodes, seed=2)
        runner.run(30_000)
        for node, color in frozen_colors.items():
            assert system.colors.get(node) == color, node

    def test_invariants_preserved(self):
        system = random_blob_system(30, seed=3)
        runner = FaultyRunner(system, 4, 4, crash_fraction=0.2, seed=3)
        runner.run(30_000)
        system.validate()
        assert system.is_connected()
        assert not system.has_holes()
        assert color_counts(system) == color_counts(
            random_blob_system(30, seed=3)
        )

    def test_zero_crash_behaves_like_plain_chain(self):
        """With nothing crashed, separation proceeds normally."""
        system = hexagon_system(40, seed=4)
        before = system.hetero_total
        FaultyRunner(system, 4, 4, crash_fraction=0.0, seed=4).run(80_000)
        assert system.hetero_total < 0.6 * before

    def test_crashed_activations_counted(self):
        system = hexagon_system(20, seed=5)
        runner = FaultyRunner(system, 4, 4, crash_fraction=0.5, seed=5)
        runner.run(10_000)
        # Half the particles are crashed: roughly half the activations
        # are wasted.
        assert 0.35 < runner.crashed_activations / runner.iterations < 0.65


class TestMatchesChain:
    @pytest.mark.parametrize("lam,gamma", [(4, 4), (2, 0.5), (0.7, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_no_crash_runner_is_the_chain(self, seed, lam, gamma):
        """With nothing crashed, FaultyRunner is Algorithm 1 draw for draw."""
        runner_system = random_blob_system(40, seed=seed)
        chain_system = runner_system.copy()
        runner = FaultyRunner(runner_system, lam, gamma, seed=seed)
        chain = SeparationChain(
            chain_system, lam, gamma, seed=seed, backend="dict"
        )
        for _ in range(10_000):
            assert runner.step() == chain.step()
        assert list(runner_system.colors.items()) == list(
            chain_system.colors.items()
        )
        assert runner_system.edge_total == chain_system.edge_total
        assert runner_system.hetero_total == chain_system.hetero_total
        assert runner.accepted_moves == chain.accepted_moves
        assert runner.accepted_swaps == chain.accepted_swaps
        assert runner.rng.getstate() == chain.rng.getstate()


class TestDegradation:
    def test_quality_degrades_with_crash_fraction(self):
        rows = degradation_curve(
            n=60,
            crash_fractions=(0.0, 0.4),
            iterations=150_000,
            seed=7,
        )
        healthy, crippled = rows
        assert healthy["demixing_index"] > crippled["demixing_index"]
        assert healthy["hetero_density"] < crippled["hetero_density"]

    def test_rows_structure(self):
        rows = degradation_curve(
            n=20, crash_fractions=(0.0, 0.1), iterations=5_000, seed=1
        )
        assert [row["crash_fraction"] for row in rows] == [0.0, 0.1]
        assert rows[1]["crashed"] == 2
