"""Exact transition matrices and stationary distributions for small systems.

For small ``n`` the full state space of the separation chain (connected,
hole-free, colored configurations up to translation) can be enumerated;
this module assembles the exact transition matrix of Algorithm 1 over it
and the Lemma 9 stationary distribution, enabling:

* verification of detailed balance (Appendix A.2) numerically;
* verification of ergodicity (Lemma 8) by strong connectivity;
* convergence tests of the simulated chain's empirical distribution to
  the exact stationary distribution in total variation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.moves import evaluate_move, evaluate_swap
from repro.lattice.triangular import NEIGHBOR_OFFSETS
from repro.system.configuration import ParticleSystem
from repro.markov.enumerate_configs import enumerate_colored_configurations

StateKey = Tuple


def lemma9_distribution(
    states: Sequence[ParticleSystem], lam: float, gamma: float
) -> np.ndarray:
    """The stationary distribution of Lemma 9 over ``states``.

    :math:`\\pi(\\sigma) \\propto (\\lambda\\gamma)^{-p(\\sigma)}
    \\gamma^{-h(\\sigma)}`.  Computed in log space then normalized.
    """
    log_weights = np.array(
        [
            -s.perimeter() * math.log(lam * gamma)
            - s.hetero_total * math.log(gamma)
            for s in states
        ]
    )
    log_weights -= log_weights.max()
    weights = np.exp(log_weights)
    return weights / weights.sum()


def build_transition_matrix(
    states: Sequence[ParticleSystem],
    lam: float,
    gamma: float,
    swaps: bool = True,
) -> np.ndarray:
    """Exact transition matrix of Algorithm 1 over the given state space.

    Entry ``M[i, j]`` is the one-step probability from state ``i`` to
    state ``j``.  Every proposal has probability :math:`1/(6n)` (particle
    choice times direction choice); rejected or invalid proposals
    contribute to the diagonal.  Raises if a move leads outside the given
    state space — which would indicate the space is not closed under the
    chain's moves, i.e. an enumeration or validity-check bug.
    """
    index: Dict[StateKey, int] = {
        state.canonical_key(): i for i, state in enumerate(states)
    }
    if len(index) != len(states):
        raise ValueError("duplicate states in state space")
    size = len(states)
    matrix = np.zeros((size, size))
    for i, state in enumerate(states):
        n = state.n
        proposal_prob = 1.0 / (6 * n)
        colors = state.colors
        for src in list(colors):
            ci = colors[src]
            x, y = src
            for dx, dy in NEIGHBOR_OFFSETS:
                dst = (x + dx, y + dy)
                dst_color = colors.get(dst)
                if dst_color is None:
                    accept, _, _ = evaluate_move(colors, src, dst, lam, gamma)
                    if accept > 0.0:
                        successor = state.copy()
                        successor.move_particle(src, dst)
                        j = _lookup(index, successor, "move")
                        matrix[i, j] += proposal_prob * accept
                        matrix[i, i] += proposal_prob * (1.0 - accept)
                    else:
                        matrix[i, i] += proposal_prob
                elif swaps and dst_color != ci:
                    accept, _ = evaluate_swap(colors, src, dst, gamma)
                    successor = state.copy()
                    successor.swap_particles(src, dst)
                    j = _lookup(index, successor, "swap")
                    matrix[i, j] += proposal_prob * accept
                    matrix[i, i] += proposal_prob * (1.0 - accept)
                else:
                    matrix[i, i] += proposal_prob
    return matrix


def _lookup(index: Dict[StateKey, int], successor: ParticleSystem, kind: str) -> int:
    key = successor.canonical_key()
    try:
        return index[key]
    except KeyError:
        raise AssertionError(
            f"{kind} led outside the enumerated state space: {successor!r}; "
            "the space is not closed under the chain's moves"
        ) from None


class ExactChainAnalysis:
    """Exact analysis of the separation chain on an enumerated state space.

    Parameters mirror :class:`~repro.core.separation_chain.SeparationChain`.
    Builds the full state space for ``n`` particles with the given color
    counts, the exact transition matrix, and the Lemma 9 distribution.
    """

    def __init__(
        self,
        n: int,
        color_counts: Sequence[int],
        lam: float,
        gamma: float,
        swaps: bool = True,
    ):
        self.n = n
        self.lam = lam
        self.gamma = gamma
        self.swaps = swaps
        self.states: List[ParticleSystem] = enumerate_colored_configurations(
            n, color_counts, hole_free_only=True
        )
        self.index: Dict[StateKey, int] = {
            state.canonical_key(): i for i, state in enumerate(self.states)
        }
        self.matrix = build_transition_matrix(self.states, lam, gamma, swaps)
        self.pi = lemma9_distribution(self.states, lam, gamma)

    def state_index(self, system: ParticleSystem) -> int:
        """Index of (the translation class of) ``system`` in the space."""
        return self.index[system.canonical_key()]

    def stationary_by_eigenvector(self) -> np.ndarray:
        """Stationary distribution from the left unit eigenvector of M.

        Independent of Lemma 9 — used to cross-validate the closed form.
        """
        eigenvalues, eigenvectors = np.linalg.eig(self.matrix.T)
        closest = int(np.argmin(np.abs(eigenvalues - 1.0)))
        vec = np.real(eigenvectors[:, closest])
        vec = np.abs(vec)
        return vec / vec.sum()

    def detailed_balance_error(self) -> float:
        """Max over state pairs of ``|pi_i M_ij - pi_j M_ji|``."""
        flow = self.pi[:, None] * self.matrix
        return float(np.abs(flow - flow.T).max())

    def expected_observable(self, values: Sequence[float]) -> float:
        """Stationary expectation of a per-state observable vector."""
        values_arr = np.asarray(values, dtype=float)
        if values_arr.shape != self.pi.shape:
            raise ValueError(
                f"observable has shape {values_arr.shape}, "
                f"expected {self.pi.shape}"
            )
        return float(np.dot(self.pi, values_arr))

    def separation_probability(
        self, beta: float, delta: float, certifier=None
    ) -> float:
        """Stationary probability of being (β, δ)-separated.

        Uses the exact certifier from :mod:`repro.analysis` by default.
        """
        if certifier is None:
            from repro.analysis.separation_metric import is_separated_exact

            certifier = lambda s: is_separated_exact(s, beta, delta)  # noqa: E731
        indicator = [1.0 if certifier(state) else 0.0 for state in self.states]
        return self.expected_observable(indicator)

    def mixing_time_upper_bound(self, epsilon: float = 0.25) -> Optional[int]:
        """Smallest power of two ``t`` with worst-start TV distance < ``epsilon``.

        Computed by repeated squaring of the transition matrix, so the
        result overestimates the true mixing time by at most a factor of
        two.  Feasible only for the small spaces this class targets;
        returns ``None`` if not reached within ``2**30`` steps.
        """
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        power = self.matrix.copy()
        t = 1
        while t < 2**30:
            tv = 0.5 * np.abs(power - self.pi[None, :]).sum(axis=1).max()
            if tv < epsilon:
                return t
            power = power @ power
            t *= 2
        return None
