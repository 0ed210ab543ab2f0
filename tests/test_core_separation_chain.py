"""Tests for the separation chain (Algorithm 1)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyChain, SeparationEnergy
from repro.core.separation_chain import (
    E_DST,
    E_SRC,
    MOVE_OK,
    RING_OFFSETS,
    SeparationChain,
    evaluate_move,
    evaluate_swap,
    stationary_log_weight,
)
from repro.distributed.amoebot import AmoebotSimulator
from repro.distributed.faults import FaultyRunner
from repro.distributed.runner import ConcurrentRunner, DistributedRunner
from repro.lattice.triangular import NEIGHBOR_OFFSETS, edge_ring
from repro.system.initializers import (
    hexagon_system,
    line_system,
    random_blob_system,
)


class TestTables:
    def test_ring_offsets_match_edge_ring(self):
        for d in range(6):
            dx, dy = NEIGHBOR_OFFSETS[d]
            expected = edge_ring((0, 0), (dx, dy))
            assert [tuple(o) for o in RING_OFFSETS[d]] == expected

    def test_e_src_e_dst_counts(self):
        assert E_SRC[0] == 0 and E_DST[0] == 0
        assert E_SRC[0b11111111] == 5 and E_DST[0b11111111] == 5
        # Position 0 (a common neighbor) counts on both sides.
        assert E_SRC[1] == 1 and E_DST[1] == 1
        # Position 2 (beyond the destination) counts only on the dst side.
        assert E_SRC[1 << 2] == 0 and E_DST[1 << 2] == 1

    def test_move_ok_table_size(self):
        assert len(MOVE_OK) == 256


class TestConstruction:
    def test_invalid_parameters(self):
        system = hexagon_system(10, seed=0)
        with pytest.raises(ValueError):
            SeparationChain(system, lam=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            SeparationChain(system, lam=1.0, gamma=-2.0)

    def test_negative_steps_raise(self):
        chain = SeparationChain(hexagon_system(5, seed=0), lam=2, gamma=2)
        with pytest.raises(ValueError):
            chain.run(-1)

    def test_repr(self):
        chain = SeparationChain(hexagon_system(5, seed=0), lam=2, gamma=3)
        assert "lam=2" in repr(chain) and "gamma=3" in repr(chain)


class TestInvariants:
    """Lemma 6: connectivity forever; holes never created once absent."""

    @given(st.integers(0, 50))
    @settings(max_examples=12, deadline=None)
    def test_connectivity_and_holes_preserved(self, seed):
        system = random_blob_system(25, seed=seed)
        chain = SeparationChain(system, lam=3.0, gamma=2.0, seed=seed)
        for _ in range(20):
            chain.run(250)
            assert system.is_connected()
            assert not system.has_holes()

    @given(st.integers(0, 20))
    @settings(max_examples=8, deadline=None)
    def test_counters_stay_consistent(self, seed):
        system = random_blob_system(30, seed=seed)
        chain = SeparationChain(system, lam=4.0, gamma=4.0, seed=seed)
        chain.run(5000)
        system.validate()

    def test_color_counts_conserved(self):
        system = hexagon_system(40, counts=[25, 15], seed=1)
        chain = SeparationChain(system, lam=4.0, gamma=4.0, seed=1)
        chain.run(5000)
        from repro.system.observables import color_counts

        assert color_counts(system) == [25, 15]

    def test_particle_count_conserved(self):
        system = random_blob_system(33, seed=5)
        chain = SeparationChain(system, lam=2.0, gamma=0.9, seed=5)
        chain.run(5000)
        assert system.n == 33

    def test_line_system_heals_and_compresses(self):
        system = line_system(30, seed=2)
        initial_perimeter = system.perimeter()
        chain = SeparationChain(system, lam=4.0, gamma=4.0, seed=2)
        chain.run(60_000)
        assert system.perimeter() < initial_perimeter
        assert system.is_connected()


class TestStepSemantics:
    def test_step_counts_iterations(self):
        chain = SeparationChain(hexagon_system(10, seed=0), lam=2, gamma=2, seed=0)
        chain.run(100)
        assert chain.iterations == 100

    def test_acceptance_rate_bounds(self):
        chain = SeparationChain(hexagon_system(20, seed=0), lam=4, gamma=4, seed=0)
        chain.run(2000)
        assert 0.0 <= chain.acceptance_rate() <= 1.0

    def test_no_swaps_means_no_swap_acceptances(self):
        system = hexagon_system(20, seed=0)
        chain = SeparationChain(system, lam=3, gamma=3, swaps=False, seed=0)
        chain.run(5000)
        assert chain.accepted_swaps == 0

    def test_seed_reproducibility(self):
        results = []
        for _ in range(2):
            system = hexagon_system(20, seed=9)
            chain = SeparationChain(system, lam=3, gamma=2, seed=77)
            chain.run(3000)
            results.append(sorted(system.colors.items()))
        assert results[0] == results[1]

    def test_set_parameters_rebuilds_tables(self):
        chain = SeparationChain(hexagon_system(10, seed=0), lam=2, gamma=2, seed=0)
        chain.set_parameters(lam=5.0)
        assert chain.lam == 5.0
        assert math.isclose(chain._lam_pow[6], 5.0)
        chain.set_parameters(gamma=3.0)
        assert math.isclose(chain._gam_pow_swap[11], 3.0)
        with pytest.raises(ValueError):
            chain.set_parameters(lam=0)

    def test_refresh_positions(self):
        system = hexagon_system(10, seed=0)
        chain = SeparationChain(system, lam=2, gamma=2, seed=0)
        # External mutation then refresh keeps the chain usable.
        src = next(iter(system.colors))
        from repro.lattice.triangular import neighbors

        for dst in neighbors(src):
            if dst not in system.colors:
                system.move_particle(src, dst)
                break
        chain.refresh_positions()
        chain.run(100)
        system.validate()


class TestBatchedRun:
    """run() must reproduce the reference step() path bit for bit."""

    @pytest.mark.parametrize("swaps", [True, False])
    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_run_matches_step_loop(self, seed, swaps):
        reference = random_blob_system(35, seed=seed)
        batched = reference.copy()
        chain_ref = SeparationChain(
            reference, lam=3.0, gamma=2.0, swaps=swaps, seed=seed
        )
        chain_fast = SeparationChain(
            batched, lam=3.0, gamma=2.0, swaps=swaps, seed=seed
        )
        for _ in range(4000):
            chain_ref.step()
        chain_fast.run(4000)
        assert batched.colors == reference.colors
        assert chain_fast.iterations == chain_ref.iterations == 4000
        assert chain_fast.accepted_moves == chain_ref.accepted_moves
        assert chain_fast.accepted_swaps == chain_ref.accepted_swaps
        assert batched.edge_total == reference.edge_total
        assert batched.hetero_total == reference.hetero_total

    def test_mixed_run_and_step_sequences_agree(self):
        """Chunk leftovers must keep mixed run()/step() on one stream."""
        a = random_blob_system(30, seed=4)
        b = a.copy()
        chain_a = SeparationChain(a, lam=4.0, gamma=4.0, seed=12)
        chain_b = SeparationChain(b, lam=4.0, gamma=4.0, seed=12)
        chain_a.run(137)
        for _ in range(61):
            chain_a.step()
        chain_a.run(802)
        chain_b.run(1000)
        assert a.colors == b.colors
        assert chain_a.accepted_moves == chain_b.accepted_moves

    def test_annealed_run_matches_step_loop(self):
        """set_parameters mid-run must not desynchronize the fast path."""
        a = random_blob_system(30, seed=8)
        b = a.copy()
        chain_a = SeparationChain(a, lam=1.2, gamma=1.2, seed=5)
        chain_b = SeparationChain(b, lam=1.2, gamma=1.2, seed=5)
        chain_a.run(1500)
        chain_a.set_parameters(lam=5.0, gamma=6.0)
        chain_a.run(1500)
        for _ in range(1500):
            chain_b.step()
        chain_b.set_parameters(lam=5.0, gamma=6.0)
        for _ in range(1500):
            chain_b.step()
        assert a.colors == b.colors

    def test_counters_consistent_after_annealed_mixed_run(self):
        """Cross-validate incremental counters against recompute_counters
        after long mixed move/swap runs with mid-run annealing."""
        system = random_blob_system(40, seed=3)
        chain = SeparationChain(system, lam=0.8, gamma=0.7, seed=3)
        schedule = [(0.8, 0.7), (2.0, 5.0), (6.0, 0.9), (4.0, 4.0)]
        for lam, gamma in schedule:
            chain.set_parameters(lam=lam, gamma=gamma)
            chain.run(8000)
            edge_before, hetero_before = system.edge_total, system.hetero_total
            system.recompute_counters()
            assert (edge_before, hetero_before) == (
                system.edge_total,
                system.hetero_total,
            )
        assert chain.accepted_swaps > 0  # the run exercised swap moves

    def test_subclassed_rng_uses_reference_path(self):
        """Random subclasses (replay streams) must see draw-by-draw
        consumption — no chunk over-draw."""

        class CountingRandom(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.draws = 0

            def random(self):
                self.draws += 1
                return super().random()

        rng = CountingRandom(9)
        chain = SeparationChain(
            hexagon_system(20, seed=1), lam=3, gamma=3, seed=rng
        )
        chain.run(200)
        # At most 3 draws per step, and no draw-ahead beyond the run.
        assert chain.iterations == 200
        assert rng.draws <= 3 * 200


def _run_chain(system, lam, gamma, steps):
    chain = SeparationChain(system, lam=lam, gamma=gamma, seed=1)
    chain.run(steps)
    for _ in range(100):
        chain.step()


def _run_amoebot(system, lam, gamma, steps):
    sim = AmoebotSimulator(system, lam=lam, gamma=gamma, seed=1)
    sim.run(steps)
    sim.settle()


#: Every executor of Algorithm 1, as ``run(system, lam, gamma, steps)``.
EXECUTORS = {
    "SeparationChain": _run_chain,
    "EnergyChain": lambda system, lam, gamma, steps: EnergyChain(
        system, SeparationEnergy(lam, gamma), seed=1
    ).run(steps),
    "FaultyRunner": lambda system, lam, gamma, steps: FaultyRunner(
        system, lam, gamma, crash_fraction=0.1, seed=1
    ).run(steps),
    "AmoebotSimulator": _run_amoebot,
    "DistributedRunner": lambda system, lam, gamma, steps: DistributedRunner(
        system, lam, gamma, seed=1
    ).run(steps),
    "ConcurrentRunner": lambda system, lam, gamma, steps: ConcurrentRunner(
        system, lam, gamma, round_size=4, seed=1
    ).run(steps // 4),
}


class TestExtremeBiases:
    """Regression: power tables must clamp instead of raising at
    construction for extreme-but-valid biases (large-γ limit probes),
    and every executor must stay total at such biases."""

    @pytest.mark.parametrize(
        "lam,gamma",
        [(1e200, 2.0), (1e-200, 2.0), (2.0, 1e200), (2.0, 1e-200), (1e200, 1e-200)],
    )
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_every_executor_stays_total(self, executor, lam, gamma):
        system = random_blob_system(30, seed=1)
        EXECUTORS[executor](system, lam, gamma, 2000)
        system.validate()

    def test_huge_gamma_constructs_and_steps(self):
        system = hexagon_system(20, seed=1)
        chain = SeparationChain(system, lam=2, gamma=1e40, seed=1)
        chain.run(500)
        system.validate()
        assert chain.iterations == 500

    def test_tiny_gamma_constructs_and_steps(self):
        system = hexagon_system(20, seed=1)
        chain = SeparationChain(system, lam=2, gamma=1e-40, seed=1)
        chain.run(500)
        system.validate()

    def test_opposed_extremes_construct_and_step(self):
        """λ huge with γ tiny exercises the inf * 0 log-space fallback."""
        system = hexagon_system(20, seed=2)
        chain = SeparationChain(system, lam=1e40, gamma=1e-40, seed=2)
        chain.run(500)
        system.validate()
        for _ in range(100):
            chain.step()
        system.validate()

    def test_acceptance_probabilities_stay_bounded(self):
        system = hexagon_system(12, seed=4)
        chain = SeparationChain(system, lam=1e40, gamma=1e-40, seed=4)
        for src in sorted(system.colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                dst = (src[0] + dx, src[1] + dy)
                if dst in system.colors:
                    if system.colors[dst] != system.colors[src]:
                        p = chain.swap_acceptance_probability(src, dst)
                        assert 0.0 <= p <= 1.0
                else:
                    p = chain.move_acceptance_probability(src, dst)
                    assert 0.0 <= p <= 1.0


class TestEvaluateHelpers:
    """The pure helpers must agree with what the step loop does."""

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_evaluate_move_matches_counters(self, seed):
        system = random_blob_system(20, seed=seed)
        colors = system.colors
        for src in sorted(colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                dst = (src[0] + dx, src[1] + dy)
                if dst in colors:
                    continue
                prob, de, dei = evaluate_move(colors, src, dst, 2.0, 3.0)
                if prob == 0.0:
                    continue
                clone = system.copy()
                e_before, h_before = clone.edge_total, clone.hetero_total
                clone.move_particle(src, dst)
                assert clone.edge_total - e_before == de
                ci = colors[src]
                # Δh = Δe - Δ(same-color edges of the moved particle)
                assert clone.hetero_total - h_before == de - dei

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_evaluate_swap_matches_counters(self, seed):
        system = random_blob_system(20, seed=seed)
        colors = system.colors
        checked = 0
        for u in sorted(colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                v = (u[0] + dx, u[1] + dy)
                if v not in colors or colors[u] == colors[v] or not u < v:
                    continue
                prob, delta_a = evaluate_swap(colors, u, v, 2.0)
                clone = system.copy()
                h_before = clone.hetero_total
                clone.swap_particles(u, v)
                assert h_before - clone.hetero_total == delta_a
                assert 0.0 < prob <= 1.0
                checked += 1
        assert checked > 0

    def test_swap_probability_symmetric(self):
        system = random_blob_system(20, seed=3)
        colors = system.colors
        for u in sorted(colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                v = (u[0] + dx, u[1] + dy)
                if v in colors and colors[v] != colors[u]:
                    assert evaluate_swap(colors, u, v, 3.0) == evaluate_swap(
                        colors, v, u, 3.0
                    )

    def test_acceptance_probability_methods(self):
        system = hexagon_system(12, seed=4)
        chain = SeparationChain(system, lam=2, gamma=2, seed=4)
        for src in sorted(system.colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                dst = (src[0] + dx, src[1] + dy)
                if dst in system.colors:
                    if system.colors[dst] != system.colors[src]:
                        p = chain.swap_acceptance_probability(src, dst)
                        assert 0.0 <= p <= 1.0
                else:
                    p = chain.move_acceptance_probability(src, dst)
                    assert 0.0 <= p <= 1.0


class TestDetailedBalanceOfAcceptances:
    """Metropolis ratio check: π(σ)·P(σ→τ) = π(τ)·P(τ→σ) for move pairs."""

    @given(st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_move_reversibility_ratio(self, seed):
        lam, gamma = 2.5, 1.7
        system = random_blob_system(15, seed=seed)
        colors = system.colors
        for src in sorted(colors):
            for dx, dy in NEIGHBOR_OFFSETS:
                dst = (src[0] + dx, src[1] + dy)
                if dst in colors:
                    continue
                prob_fwd, _, _ = evaluate_move(colors, src, dst, lam, gamma)
                if prob_fwd == 0.0:
                    continue
                before = stationary_log_weight(system, lam, gamma)
                clone = system.copy()
                clone.move_particle(src, dst)
                prob_bwd, _, _ = evaluate_move(
                    clone.colors, dst, src, lam, gamma
                )
                assert prob_bwd > 0.0, "reversibility (Lemma 7) violated"
                after = stationary_log_weight(clone, lam, gamma)
                # π(σ) p_fwd == π(τ) p_bwd  ⇔  log π ratio == log p ratio
                assert math.isclose(
                    after - before,
                    math.log(prob_fwd) - math.log(prob_bwd),
                    abs_tol=1e-9,
                )
