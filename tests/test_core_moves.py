"""Tests for Properties 4 and 5 (move validity) and Algorithm 1's rule."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moves import (
    COMMON_RING_INDICES,
    MOVE_DELTA,
    _MOVE_REJECT,
    _circular_runs,
    move_allowed,
    move_allowed_between,
    move_allowed_reference,
    move_deltas,
    property_4_reference,
    property_5_reference,
    read_ring,
    ring_occupancy,
    satisfies_property_4,
    satisfies_property_5,
    swap_exponent,
)
from repro.core.separation_chain import SeparationChain
from repro.lattice.triangular import NEIGHBOR_OFFSETS, edge_ring, neighbors
from repro.system.configuration import ParticleSystem


def _ring_world(mask):
    """Build an occupied-set world from a ring occupancy bitmask.

    The moving particle sits at (0,0); the move target is (1,0); ring
    positions come from edge_ring.
    """
    src, dst = (0, 0), (1, 0)
    ring = edge_ring(src, dst)
    occupied = {src}
    occ = []
    for i, node in enumerate(ring):
        bit = bool(mask & (1 << i))
        occ.append(bit)
        if bit:
            occupied.add(node)
    return occupied, occ, src, dst


class TestCircularRuns:
    def test_empty(self):
        assert _circular_runs([False] * 8) == []

    def test_full(self):
        assert _circular_runs([True] * 8) == [list(range(8))]

    def test_wrapping_run(self):
        occ = [True, False, False, False, False, False, True, True]
        runs = _circular_runs(occ)
        assert len(runs) == 1
        assert sorted(runs[0]) == [0, 6, 7]

    def test_two_runs(self):
        occ = [True, True, False, True, False, False, False, False]
        runs = _circular_runs(occ)
        assert sorted(sorted(r) for r in runs) == [[0, 1], [3]]


class TestPropertiesAgainstReference:
    """The fast ring implementation must agree with the verbatim
    definition on every one of the 256 neighborhoods."""

    def test_property_4_all_masks(self):
        for mask in range(256):
            occupied, occ, src, dst = _ring_world(mask)
            assert satisfies_property_4(occ) == property_4_reference(
                occupied, src, dst
            ), f"mask={mask:08b}"

    def test_property_5_all_masks(self):
        for mask in range(256):
            occupied, occ, src, dst = _ring_world(mask)
            assert satisfies_property_5(occ) == property_5_reference(
                occupied, src, dst
            ), f"mask={mask:08b}"

    def test_move_allowed_all_masks(self):
        for mask in range(256):
            occupied, occ, src, dst = _ring_world(mask)
            assert move_allowed(occ) == move_allowed_reference(
                occupied, src, dst
            ), f"mask={mask:08b}"

    @given(
        st.integers(min_value=0, max_value=255),
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_directions_and_translations(self, mask, src, d):
        """Fast and reference checks agree for arbitrary edge orientation."""
        dx, dy = NEIGHBOR_OFFSETS[d]
        dst = (src[0] + dx, src[1] + dy)
        ring = edge_ring(src, dst)
        occupied = {src}
        for i, node in enumerate(ring):
            if mask & (1 << i):
                occupied.add(node)
        colors = {node: 0 for node in occupied}
        assert move_allowed_between(colors, src, dst) == move_allowed_reference(
            occupied, src, dst
        )


class TestSpecificNeighborhoods:
    def test_isolated_pair_not_allowed(self):
        """A lone particle moving with no other particles: both properties
        fail (|S|=0 but both sides empty) — moving would be fine
        physically but the n=1 system never reaches this code path."""
        occupied, occ, src, dst = _ring_world(0)
        assert not move_allowed(occ)

    def test_single_common_neighbor_allowed(self):
        occupied, occ, src, dst = _ring_world(1 << 0)
        assert satisfies_property_4(occ)

    def test_both_commons_separate_components_not_allowed(self):
        """Two occupied commons with nothing between: each forms its own
        component containing one common — allowed by Property 4."""
        mask = (1 << 0) | (1 << 4)
        occupied, occ, src, dst = _ring_world(mask)
        assert satisfies_property_4(occ)

    def test_run_containing_both_commons_rejected(self):
        """One connected arc through both commons: particles connect to
        two members of S, violating Property 4 (would close a cycle and
        could form a hole)."""
        mask = 0b00011111  # positions 0..4: an arc from common 0 to common 4
        occupied, occ, src, dst = _ring_world(mask)
        assert not satisfies_property_4(occ)

    def test_component_without_common_rejected(self):
        mask = (1 << 0) | (1 << 2)  # common 0, plus isolated position 2
        occupied, occ, src, dst = _ring_world(mask)
        assert not satisfies_property_4(occ)

    def test_property5_basic(self):
        mask = (1 << 2) | (1 << 6)  # one neighbor on each exclusive side
        occupied, occ, src, dst = _ring_world(mask)
        assert satisfies_property_5(occ)

    def test_property5_disconnected_side_rejected(self):
        mask = (1 << 5) | (1 << 7) | (1 << 2)  # src side split 1,0,1
        occupied, occ, src, dst = _ring_world(mask)
        assert not satisfies_property_5(occ)

    def test_property5_empty_side_rejected(self):
        mask = 1 << 6  # only the src side occupied
        occupied, occ, src, dst = _ring_world(mask)
        assert not satisfies_property_5(occ)

    def test_commons_indices_constant(self):
        assert COMMON_RING_INDICES == (0, 4)

    def test_ring_occupancy_helper(self):
        colors = {(0, 0): 0, (0, 1): 1}
        occ = ring_occupancy(colors, (0, 0), (1, 0))
        assert occ[0] is True  # (0,1) is the ccw common neighbor
        assert sum(occ) == 1


def _neighbor_counts(colors, node, color, exclude):
    """``(|N(node) \\ {exclude}|, |N_color(node) \\ {exclude}|)`` by lattice scan."""
    occupied = [m for m in neighbors(node) if m in colors and m != exclude]
    return len(occupied), sum(1 for m in occupied if colors[m] == color)


class TestRuleTable:
    """Exhaustive check of the shared acceptance rule.

    Every one of the 3^8 ring colorings (empty, color 0, color 1) and
    both mover colors, cycling through the six move directions: the
    ring-table counts must equal Algorithm 1's counts taken from the
    lattice's own ``neighbors()`` of ℓ and ℓ′, and the grid kernel's
    tables must agree with them.
    """

    def test_counts_match_lattice_neighbors(self):
        allowed = {}
        for mask in range(256):
            occupied, _, ref_src, ref_dst = _ring_world(mask)
            allowed[mask] = move_allowed_reference(occupied, ref_src, ref_dst)
        chain = SeparationChain(
            ParticleSystem({(0, 0): 0, (1, 0): 1}), 2.0, 2.0, backend="grid"
        )
        chain._grid_build()
        gswap_contrib = chain._gswap_contrib
        for k, ring_values in enumerate(product((None, 0, 1), repeat=8)):
            d = k % 6
            src = (0, 0)
            dst = NEIGHBOR_OFFSETS[d]
            ring = edge_ring(src, dst)
            for ci in (0, 1):
                colors = {src: ci}
                colors.update(
                    (node, c) for node, c in zip(ring, ring_values) if c is not None
                )
                ring_colors, mask = read_ring(colors, src, d)
                assert ring_colors == list(ring_values)

                # Move into the empty ℓ′.
                e_src, ei_src = _neighbor_counts(colors, src, ci, dst)
                e_dst, ei_dst = _neighbor_counts(colors, dst, ci, src)
                valid = e_src != 5 and allowed[mask]
                deltas = move_deltas(mask, ring_colors, ci)
                expected = (e_dst - e_src, ei_dst - ei_src) if valid else None
                assert deltas == expected, (ring_values, ci, d)
                assert MOVE_DELTA[mask] == (
                    expected[0] if valid else _MOVE_REJECT
                )

                # Swap with a color-cj particle Q at ℓ′:
                # |N_i(ℓ′)∖{P}| − |N_j(ℓ′)| − |N_i(ℓ)| + |N_j(ℓ)∖{Q}|.
                cj = 1 - ci
                colors[dst] = cj
                expo = (
                    _neighbor_counts(colors, dst, ci, src)[1]
                    - _neighbor_counts(colors, dst, cj, None)[1]
                    - _neighbor_counts(colors, src, ci, None)[1]
                    + _neighbor_counts(colors, src, cj, dst)[1]
                )
                assert swap_exponent(ring_colors, ci, cj) == expo
                contrib = gswap_contrib[ci + 1][cj + 1]
                arena = [0 if c is None else c + 1 for c in ring_colors]
                assert (
                    sum(contrib[arena[i]] for i in (1, 2, 3))
                    - sum(contrib[arena[i]] for i in (5, 6, 7))
                    == expo
                )
