"""Inverse problem: estimating (λ, γ) from observed configurations.

The paper frames λ and γ as "external, environmental influences on the
particle system."  A natural library feature is the inverse: given
observed equilibrium behavior, infer the environment.  Two estimators:

* **Moment matching by bisection** (:func:`estimate_gamma_from_shape`,
  :func:`estimate_parameters`).  For a *fixed* occupied node set, the
  conditional law of the coloring is the fixed-magnetization Ising
  model, under which :math:`E[h]` is continuous and strictly decreasing
  in γ; bisection on exact or simulated moments inverts it.  Similarly
  :math:`E[p]` is decreasing in the product λγ at fixed γ, giving the
  second equation.
* **Maximum pseudo-likelihood for γ** (:func:`gamma_pseudo_likelihood`,
  :func:`estimate_gamma_pseudolikelihood`).  Each edge's color
  agreement given its neighborhood has an explicit logistic form in
  :math:`\\ln\\gamma`; maximizing the product over edges is fast,
  consistent, and needs only a single observed configuration.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lattice.triangular import NEIGHBOR_OFFSETS
from repro.system.configuration import ParticleSystem


# ----------------------------------------------------------------------
# Moment matching
# ----------------------------------------------------------------------


def expected_h_at_gamma(
    shape_systems: Sequence[ParticleSystem], gamma: float
) -> float:
    """Exact conditional E[h] for small fixed shapes, averaged.

    ``shape_systems`` supplies the observed node sets and color counts;
    for each, the fixed-magnetization Ising expectation of h at the
    given γ is computed exactly (shapes must be small enough for
    enumeration, n ≲ 20).
    """
    from repro.analysis.ising import expected_heterogeneous_edges

    total = 0.0
    for system in shape_systems:
        nodes = sorted(system.colors)
        index = {node: i for i, node in enumerate(nodes)}
        edges = []
        for node in nodes:
            for dx, dy in NEIGHBOR_OFFSETS:
                nbr = (node[0] + dx, node[1] + dy)
                if nbr in index and node < nbr:
                    edges.append((index[node], index[nbr]))
        count_color1 = sum(1 for c in system.colors.values() if c == 1)
        total += expected_heterogeneous_edges(
            len(nodes), edges, count_color1, gamma
        )
    return total / len(shape_systems)


def estimate_gamma_from_shape(
    shape_systems: Sequence[ParticleSystem],
    observed_mean_h: float,
    gamma_bounds: Tuple[float, float] = (0.05, 50.0),
    iterations: int = 60,
) -> float:
    """Invert E[h](γ) = observed by bisection (exact, small shapes).

    E[h] is strictly decreasing in γ, so bisection converges; observed
    values outside the attainable range clamp to the nearest bound.
    """
    low, high = gamma_bounds
    if low <= 0 or high <= low:
        raise ValueError(f"invalid gamma bounds {gamma_bounds}")
    h_low = expected_h_at_gamma(shape_systems, low)
    h_high = expected_h_at_gamma(shape_systems, high)
    if observed_mean_h >= h_low:
        return low
    if observed_mean_h <= h_high:
        return high
    for _ in range(iterations):
        mid = math.sqrt(low * high)  # bisect in log space
        if expected_h_at_gamma(shape_systems, mid) > observed_mean_h:
            low = mid
        else:
            high = mid
    return math.sqrt(low * high)


def estimate_parameters(
    observed_mean_p: float,
    observed_mean_h: float,
    n: int,
    color_counts: Sequence[int],
    simulate_moments: Optional[
        Callable[[float, float], Tuple[float, float]]
    ] = None,
    gamma_bounds: Tuple[float, float] = (0.3, 12.0),
    lam_bounds: Tuple[float, float] = (0.3, 12.0),
    outer_iterations: int = 12,
    inner_iterations: int = 14,
) -> Tuple[float, float]:
    """Joint (λ, γ) estimate by nested bisection on stationary moments.

    ``simulate_moments(lam, gamma)`` must return estimates of
    ``(E[p], E[h])`` at stationarity; the default builds them from the
    exact enumeration (only feasible for small ``n``).  The inversion
    exploits two monotonicities of the stationary law
    :math:`(\\lambda\\gamma)^{-p}\\gamma^{-h}`: E[h] decreases in γ at
    fixed λ, and E[p] decreases in λ at fixed γ.
    """
    if simulate_moments is None:
        simulate_moments = _exact_moments_factory(n, list(color_counts))

    lam_low, lam_high = lam_bounds
    lam = math.sqrt(lam_low * lam_high)
    gamma = math.sqrt(gamma_bounds[0] * gamma_bounds[1])
    for _ in range(outer_iterations):
        # Inner: fit gamma to E[h] at current lambda.
        low, high = gamma_bounds
        for _ in range(inner_iterations):
            gamma = math.sqrt(low * high)
            _, mean_h = simulate_moments(lam, gamma)
            if mean_h > observed_mean_h:
                low = gamma
            else:
                high = gamma
        gamma = math.sqrt(low * high)
        # Outer step: fit lambda to E[p] at current gamma.
        low, high = lam_bounds
        for _ in range(inner_iterations):
            lam = math.sqrt(low * high)
            mean_p, _ = simulate_moments(lam, gamma)
            if mean_p > observed_mean_p:
                low = lam
            else:
                high = lam
        lam = math.sqrt(low * high)
    return lam, gamma


def _exact_moments_factory(n: int, color_counts: List[int]):
    from repro.markov.exact import ExactChainAnalysis

    cache = {}

    def moments(lam: float, gamma: float) -> Tuple[float, float]:
        key = (round(lam, 10), round(gamma, 10))
        if key not in cache:
            analysis = ExactChainAnalysis(
                n, color_counts, lam=lam, gamma=gamma
            )
            perimeter = [float(s.perimeter()) for s in analysis.states]
            hetero = [float(s.hetero_total) for s in analysis.states]
            cache[key] = (
                analysis.expected_observable(perimeter),
                analysis.expected_observable(hetero),
            )
        return cache[key]

    return moments


# ----------------------------------------------------------------------
# Pseudo-likelihood for gamma
# ----------------------------------------------------------------------


def gamma_pseudo_likelihood(
    systems: Sequence[ParticleSystem], log_gamma: float
) -> float:
    """Log composite likelihood of ``log γ`` over pair-swap conditionals.

    Because color counts are conserved, the well-defined conditionals
    are *pair* conditionals: given all other colors and that the
    adjacent pair (u, v) holds an unordered pair of distinct colors,
    the probability of the observed assignment versus the swapped one is

    .. math::
       P(\\text{observed}) = \\frac{1}{1 + \\gamma^{\\Delta a}},

    where :math:`\\Delta a` is the homogeneous-edge change a swap would
    cause (the exponent of Algorithm 1's line 10).  Same-colored pairs
    admit a single assignment and carry no information.  Each term is
    concave in ``log γ``, so the sum is concave and unimodal.
    """
    from repro.core.moves import evaluate_swap

    total = 0.0
    for system in systems:
        colors = system.colors
        for (x, y), cu in colors.items():
            for dx, dy in NEIGHBOR_OFFSETS:
                v = (x + dx, y + dy)
                if not (x, y) < v:
                    continue
                cv = colors.get(v)
                if cv is None or cv == cu:
                    continue
                _, delta_a = evaluate_swap(colors, (x, y), v, math.e)
                total += -_log1pexp(delta_a * log_gamma)
    return total


def _log1pexp(value: float) -> float:
    """Numerically stable ``log(1 + e^value)``."""
    if value > 35.0:
        return value
    if value < -35.0:
        return math.exp(value)
    return math.log1p(math.exp(value))


def estimate_gamma_pseudolikelihood(
    systems: Sequence[ParticleSystem],
    bounds: Tuple[float, float] = (0.05, 50.0),
    iterations: int = 80,
) -> float:
    """γ maximizing the Besag pseudo-likelihood (golden-section search).

    Works from as little as one observed configuration; consistency
    improves with more samples.  Only defined for 2-color systems.
    """
    low = math.log(bounds[0])
    high = math.log(bounds[1])
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = high - ratio * (high - low)
    x2 = low + ratio * (high - low)
    f1 = gamma_pseudo_likelihood(systems, x1)
    f2 = gamma_pseudo_likelihood(systems, x2)
    for _ in range(iterations):
        if f1 < f2:
            low = x1
            x1, f1 = x2, f2
            x2 = low + ratio * (high - low)
            f2 = gamma_pseudo_likelihood(systems, x2)
        else:
            high = x2
            x2, f2 = x1, f1
            x1 = high - ratio * (high - low)
            f1 = gamma_pseudo_likelihood(systems, x1)
    return math.exp((low + high) / 2.0)
