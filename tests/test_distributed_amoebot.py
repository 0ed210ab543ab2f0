"""Tests for the expand/contract-level amoebot simulator."""

import random

import pytest

from repro.analysis.estimators import batch_means_error
from repro.distributed.amoebot import AmoebotSimulator
from repro.markov.exact import ExactChainAnalysis
from repro.system.initializers import hexagon_system, random_blob_system
from repro.system.observables import color_counts


class TestConstruction:
    def test_rejects_bad_parameters(self):
        system = hexagon_system(10, seed=0)
        with pytest.raises(ValueError):
            AmoebotSimulator(system, lam=0, gamma=1)

    def test_starts_quiescent(self):
        sim = AmoebotSimulator(hexagon_system(10, seed=0), lam=2, gamma=2)
        assert sim.is_quiescent()
        assert sim.expanded_count() == 0


class TestMechanics:
    def test_expansion_then_contraction(self):
        system = hexagon_system(12, seed=1)
        sim = AmoebotSimulator(system, lam=4, gamma=4, seed=1)
        # Drive activations until some particle expands.
        for _ in range(500):
            label = sim.activate()
            if label == "expanded":
                break
        else:
            pytest.fail("no expansion in 500 activations")
        assert sim.expanded_count() == 1
        sim.settle()
        assert sim.is_quiescent()

    def test_expanded_particle_occupies_two_nodes(self):
        system = hexagon_system(12, seed=2)
        sim = AmoebotSimulator(system, lam=10, gamma=1, seed=2)
        for _ in range(500):
            if sim.activate() == "expanded":
                break
        expanded = [p for p in sim.particles if p.is_expanded]
        assert len(expanded) == 1
        particle = expanded[0]
        assert sim._occupant[particle.head] == particle.pid
        assert sim._occupant[particle.tail] == particle.pid

    def test_bookkeeping_totals(self):
        system = random_blob_system(20, seed=3)
        sim = AmoebotSimulator(system, lam=3, gamma=3, seed=3)
        sim.run(5_000)
        sim.settle()
        assert sim.expansions == (
            sim.contractions_forward + sim.contractions_back
        )

    def test_negative_run_rejected(self):
        sim = AmoebotSimulator(hexagon_system(5, seed=0), lam=2, gamma=2)
        with pytest.raises(ValueError):
            sim.run(-5)


class TestInvariantsUnderInterleaving:
    """The locking discipline must keep connectivity and hole-freedom
    through heavily interleaved expansions — the failure mode the
    unguarded translation exhibits."""

    @pytest.mark.parametrize("seed", range(8))
    def test_quiescent_invariants(self, seed):
        system = random_blob_system(25, seed=seed)
        sim = AmoebotSimulator(system, lam=4.0, gamma=4.0, seed=seed)
        sim.run(15_000)
        sim.settle()
        assert sim.is_quiescent()
        system.validate()
        assert system.is_connected()
        assert not system.has_holes()

    def test_color_counts_conserved(self):
        system = hexagon_system(20, counts=[12, 8], seed=5)
        sim = AmoebotSimulator(system, lam=3.0, gamma=3.0, seed=5)
        sim.run(10_000)
        sim.settle()
        assert color_counts(system) == [12, 8]

    def test_system_colors_match_particle_records(self):
        system = random_blob_system(18, seed=6)
        sim = AmoebotSimulator(system, lam=4.0, gamma=2.0, seed=6)
        sim.run(8_000)
        sim.settle()
        from_particles = {p.head: p.color for p in sim.particles}
        assert from_particles == system.colors


class TestEmergentBehavior:
    def test_separation_still_emerges(self):
        """The expand/contract mechanics slow things down (locks and
        two-phase moves) but the same separation emerges."""
        system = hexagon_system(40, seed=7)
        before = system.hetero_total
        sim = AmoebotSimulator(system, lam=4.0, gamma=4.0, seed=7)
        sim.run(120_000)
        sim.settle()
        assert system.hetero_total < 0.6 * before

    def test_no_swap_mode(self):
        system = hexagon_system(20, seed=8)
        sim = AmoebotSimulator(system, lam=3, gamma=3, swaps=False, seed=8)
        sim.run(5_000)
        assert sim.accepted_swaps == 0


class TestStationaryDistribution:
    def test_contract_at_once_matches_exact_pi(self):
        """Sequential amoebot execution samples Lemma 9's π.

        Contract-at-once mode: activate a uniformly chosen particle and,
        if it expanded, activate it again at once.  That is one step of
        the chain M, so E[h] and E[p] must match the exact stationary
        expectations at n = 5 within 4 batch-means standard errors.
        """
        lam, gamma = 2.0, 0.5
        analysis = ExactChainAnalysis(5, [3, 2], lam=lam, gamma=gamma)
        exact_h = analysis.expected_observable(
            [s.hetero_total for s in analysis.states]
        )
        exact_p = analysis.expected_observable(
            [s.perimeter() for s in analysis.states]
        )
        system = hexagon_system(5, counts=[3, 2], seed=0)
        sim = AmoebotSimulator(system, lam=lam, gamma=gamma, seed=0)
        schedule = random.Random(0)
        hetero, perimeter = [], []
        for k in range(300_000):
            pid = int(schedule.random() * system.n)
            if sim.activate(pid) == "expanded":
                sim.activate(pid)
            if k % 10 == 9:
                hetero.append(system.hetero_total)
                perimeter.append(system.perimeter())
        for samples, exact in ((hetero, exact_h), (perimeter, exact_p)):
            mean, error = batch_means_error(samples)
            assert abs(mean - exact) < 4 * error, (mean, exact, error)
