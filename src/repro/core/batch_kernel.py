"""Replica-batched NumPy kernel for the separation chain hot loop.

Figures 2 and 3 of [CannonDGRR18] average many independent replicas of
the same :math:`(\\lambda, \\gamma, n)` cell.  The scalar kernels in
:mod:`repro.core.separation_chain` advance one replica at a time; this
module packs ``R`` replicas into stacked flat integer arenas and
advances all of them lock-step with vectorized NumPy gathers.

Design — speculative proposal windows
-------------------------------------

A Metropolis step depends on the *current* configuration, so naive
vectorization across time is unsound.  The batch kernel instead
exploits the chain's low acceptance rate (most proposals reject):

1. For each replica, evaluate a *window* of ``W`` future proposals
   against the block-start configuration (vectorized across the
   ``R × W`` plane).
2. Per replica, find the **first** proposal that changes state and
   consume the stream up to and including it; proposals before the
   first change saw the true configuration, so their evaluation is
   exact.
3. Apply the accepted changes (at most one per replica — disjoint
   arenas, so a vectorized scatter is race-free) and repeat.

Unconsumed draws are re-evaluated next round with identical values, so
every draw is used exactly once in the final trajectory: the batch
kernel is *exactly* the sequential chain consuming the same per-replica
``(index, direction, q)`` streams.  That makes it testable two ways —
bit-exact against a sequential re-execution of its own streams, and
statistically against the reference ``random.Random`` kernels (whose
draw sequence differs; see ``tests/test_batch_statistical.py``).

RNG regime
----------

Each replica owns a ``numpy.random.Generator`` (PCG64) spawned from one
``SeedSequence``, and always consumes three uniforms per step.  This is
a *different stream discipline* from the scalar kernels (which share a
``random.Random`` and skip the ``q`` draw when the bias ratio is ≥ 1),
so batch trajectories are not bit-comparable to ``dict``/``grid``
trajectories — only distributionally equivalent.

Counters are maintained incrementally (O(1) per accepted step): total
edges, heterogeneous edges, accepted moves/swaps.  ``export_system``
reconstructs a :class:`~repro.system.configuration.ParticleSystem` for
any replica; its recomputed counters cross-check the incremental ones
in the fuzz suite.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Union

import numpy as np

from repro.core.moves import (
    MOVE_DELTA,
    RING_OFFSETS,
    _MOVE_REJECT,
    _clamped_power,
    bias_ratio,
)
from repro.lattice.triangular import NEIGHBOR_OFFSETS
from repro.system.configuration import ParticleSystem
from repro.util.rng import RngLike, seed_entropy

__all__ = ["BatchKernel", "DEFAULT_WINDOW", "RNG_CHUNK"]

#: Per-replica random-draw chunk size (uniforms are generated in blocks).
RNG_CHUNK = 8192

#: Default speculative-window width (benchmarked optimum at n=100, R=32).
DEFAULT_WINDOW = 56

#: Padding margin (in cells) around the bounding box; doubled on regrow.
_MARGIN = 8

# ---------------------------------------------------------------------------
# Precomputed occupancy-mask tables.  Ring cells are packed into one byte
# via ``np.packbits(..., bitorder="little")`` so bit i = ring position i.
# Positions 1..3 are dst-exclusive edge slots, 5..7 src-exclusive
# (position 0 and 4 are common to both endpoints and cancel in deltas).
# ---------------------------------------------------------------------------

#: Δe_i contribution of a same-color mask: popcount(bits 1-3) − popcount(bits 5-7).
DEI_TABLE = np.array(
    [
        sum(1 for i in (1, 2, 3) if m >> i & 1)
        - sum(1 for i in (5, 6, 7) if m >> i & 1)
        for m in range(256)
    ],
    dtype=np.int64,
)

#: Δe + 5 per occupancy mask (0 where the move is structurally invalid).
MD5 = np.zeros(256, dtype=np.int64)
#: Structural validity (Properties 4/5 + e_src ≠ 5) per occupancy mask.
MV = np.zeros(256, dtype=bool)
for _m in range(256):
    _de = MOVE_DELTA[_m]
    if _de != _MOVE_REJECT:
        MV[_m] = True
        MD5[_m] = _de + 5

#: Row base into the folded ratio table: valid masks index their Δe row,
#: invalid masks index a trailing all-zero row (ratio 0.0 → never accept),
#: which removes the separate validity gather from the accept test.
RI2 = np.where(MV, MD5 * 7 + 3, 77 + 3)


def _move_ratio_table(lam: float, gamma: float) -> np.ndarray:
    """Flat 91-entry bias-ratio table: 11 Δe rows × 7 Δe_i slots + zero row."""
    ratio = [
        bias_ratio(lam, gamma, de, dei)
        for de in range(-5, 6)
        for dei in range(-3, 4)
    ]
    return np.array(ratio + [0.0] * 7, dtype=np.float64)


def _swap_ratio_table(gamma: float) -> np.ndarray:
    """γ^Δa for Δa in −6..6 (swap acceptance ratios, clamped to [0, 1])."""
    return np.array(
        [_clamped_power(gamma, e) for e in range(-6, 7)], dtype=np.float64
    )


class BatchKernel:
    """Advance ``R`` independent replicas of one chain cell lock-step.

    Parameters
    ----------
    system:
        Start configuration; every replica begins as a copy of it.
    lam, gamma:
        Chain bias parameters (must be positive, as in the scalar chain).
    replicas:
        Number of independent replicas ``R``.
    seed:
        Integer / ``random.Random`` / ``None`` — collapsed via
        :func:`repro.util.rng.seed_entropy` into one ``SeedSequence``
        which spawns a child PCG64 stream per replica.  Alternatively a
        sequence of ``replicas`` integers: each replica then roots its
        own ``SeedSequence``, so a replica's trajectory depends only on
        its own seed — not on how replicas are grouped into kernels
        (the batch cell runner relies on this grouping invariance).
    swaps:
        Enable the heterogeneous swap move (disable for compression).
    window:
        Speculative-window width ``W``.
    """

    def __init__(
        self,
        system: ParticleSystem,
        lam: float,
        gamma: float,
        replicas: int,
        seed: Union[RngLike, Sequence[int]] = None,
        swaps: bool = True,
        window: int = DEFAULT_WINDOW,
    ):
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got lam={lam} gamma={gamma}"
            )
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if not 1 <= window <= RNG_CHUNK:
            raise ValueError(
                f"window must be in [1, {RNG_CHUNK}], got {window}"
            )
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.swaps = bool(swaps)
        self.R = int(replicas)
        self.window = int(window)
        nodes = list(system.colors)
        vals = [system.colors[nd] + 1 for nd in nodes]
        self.n = len(nodes)
        self.k = system.num_colors
        if isinstance(seed, (list, tuple)):
            if len(seed) != self.R:
                raise ValueError(
                    f"got {len(seed)} per-replica seeds for {self.R} replicas"
                )
            children = [np.random.SeedSequence(int(s)) for s in seed]
        else:
            ss = np.random.SeedSequence(seed_entropy(seed))
            children = ss.spawn(self.R)
        self.gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
        self._margin = _MARGIN
        self._build(nodes, vals)
        self.RATIO2 = _move_ratio_table(self.lam, self.gamma)
        self.SRATIO = _swap_ratio_table(self.gamma)
        T = RNG_CHUNK
        self.T = T
        R = self.R
        # Per-replica proposal streams (refilled per row when exhausted).
        self.IDXG = np.empty((R, T), dtype=np.int64)  # particle idx + r*n baked
        self.D = np.empty((R, T), dtype=np.int64)
        self.MD = np.empty((R, T), dtype=np.int64)  # MDELT[D]; refreshed on regrow
        self.Q = np.empty((R, T), dtype=np.float64)
        self.cursor = np.full(R, T, dtype=np.int64)  # exhausted → refill on first run
        # Incremental per-replica observables.
        self.edge = np.full(R, system.edge_total, dtype=np.int64)
        self.het = np.full(R, system.hetero_total, dtype=np.int64)
        self.iters = np.zeros(R, dtype=np.int64)
        self.acc_moves = np.zeros(R, dtype=np.int64)
        self.acc_swaps = np.zeros(R, dtype=np.int64)
        self.rowT = np.arange(R, dtype=np.int64) * T
        self.WIN = np.arange(self.window, dtype=np.int64)
        # Optional round-level observer (duck-typed: anything with a
        # ``maybe_observe(kernel)`` method, e.g. the streaming
        # convergence diagnostics in repro.obs.convergence).  Called
        # once per vectorized round with read-only access to the
        # incremental counter arrays; it must not touch the proposal
        # streams, so attaching one leaves trajectories bit-identical.
        self.observer = None
        # Optional round-level state hook for crash-consistent mid-run
        # snapshots: called once per vectorized round, after the
        # observer, when every array is at a consistent proposal-window
        # boundary.  Read-only like the observer (it serializes state
        # via export_state), so attaching one never perturbs
        # trajectories.
        self.state_hook = None

    # -- arena construction -------------------------------------------------

    def _geometry(self, W: int, H: int) -> None:
        """(Re)build geometry-dependent tables for arena width ``W``."""
        danger = np.zeros((H, W), dtype=bool)
        danger[:2, :] = True
        danger[-2:, :] = True
        danger[:, :2] = True
        danger[:, -2:] = True
        self.danger = np.tile(danger.ravel(), self.R)
        self.MDELT = np.array(
            [dy * W + dx for dx, dy in NEIGHBOR_OFFSETS], dtype=np.int64
        )
        self.RINGD = np.array(
            [[rdy * W + rdx for rdx, rdy in RING_OFFSETS[d]] for d in range(6)],
            dtype=np.int64,
        )

    def _build(self, nodes: Sequence[tuple], vals: Sequence[int]) -> None:
        pad = self._margin
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        ox, oy = min(xs) - pad, min(ys) - pad
        W = max(xs) - min(xs) + 1 + 2 * pad
        H = max(ys) - min(ys) + 1 + 2 * pad
        A = W * H
        self.W, self.H, self.A, self.ox, self.oy = W, H, A, ox, oy
        base = np.zeros(A, dtype=np.int8)
        ids = np.array(
            [(y - oy) * W + (x - ox) for x, y in nodes], dtype=np.int64
        )
        base[ids] = vals
        self.arena = np.tile(base, self.R)
        row = (np.arange(self.R, dtype=np.int64) * A)[:, None]
        self.gpos = (ids[None, :] + row).ravel()  # flat (R*n,) global arena ids
        self._geometry(W, H)

    def _refill(self, rows: np.ndarray) -> None:
        """Regenerate the proposal stream for the given replica rows."""
        n = self.n
        for r in rows:
            u = self.gens[r].random((3, self.T))
            self.IDXG[r] = (u[0] * n).astype(np.int64) + r * n
            d = (u[1] * 6).astype(np.int64)
            self.D[r] = d
            self.MD[r] = self.MDELT[d]
            self.Q[r] = u[2]
        self.cursor[rows] = 0

    # -- parameters ---------------------------------------------------------

    def set_parameters(self, lam: float, gamma: float) -> None:
        """Change (λ, γ) mid-run; only the ratio tables depend on them."""
        if lam <= 0 or gamma <= 0:
            raise ValueError(
                f"lambda and gamma must be positive, got lam={lam} gamma={gamma}"
            )
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.RATIO2 = _move_ratio_table(self.lam, self.gamma)
        self.SRATIO = _swap_ratio_table(self.gamma)

    # -- hot loop -----------------------------------------------------------

    def run(self, steps: Union[int, np.ndarray]) -> None:
        """Advance every replica by exactly ``steps`` Metropolis steps.

        ``steps`` may also be a per-replica int64 array: a kernel
        restored from a mid-round snapshot has replicas at *different*
        step counts (rounds consume per-replica amounts), so resuming
        bit-identically means giving each replica exactly the steps the
        uninterrupted run still owed it.
        """
        if np.ndim(steps):
            remaining = np.array(steps, dtype=np.int64)
            if remaining.shape != (self.R,):
                raise ValueError(
                    f"per-replica steps must have shape {(self.R,)}, "
                    f"got {remaining.shape}"
                )
            if (remaining < 0).any():
                raise ValueError("per-replica steps must be >= 0")
            if not remaining.any():
                return
        else:
            if steps < 0:
                raise ValueError(f"steps must be >= 0, got {steps}")
            if steps == 0:
                return
            remaining = np.full(self.R, steps, dtype=np.int64)
        W = self.window
        R = self.R
        WIN = self.WIN
        RATIO2, SRATIO = self.RATIO2, self.SRATIO
        swaps = self.swaps
        posf = np.empty(R, dtype=np.int64)
        tstar = np.empty(R, dtype=np.int64)
        while True:
            if not (remaining > 0).any():
                break
            refill = (self.cursor + W > self.T).nonzero()[0]
            if refill.size:
                self._refill(refill)
            arena = self.arena
            gpos = self.gpos
            IDXGf = self.IDXG.ravel()
            Df = self.D.ravel()
            MDf = self.MD.ravel()
            Qf = self.Q.ravel()
            flat = (self.cursor + self.rowT)[:, None] + WIN  # (R, W)
            flatr = flat.ravel()
            idxg = IDXGf[flatr]
            srcw = gpos[idxg]
            dstg = srcw + MDf[flatr]
            civ = arena[srcw]
            dstv = arena[dstg]
            # Candidate compression: only proposals that can possibly change
            # state get the expensive ring evaluation.  With swaps on, any
            # dst differing from src qualifies (civ > 0 always); with swaps
            # off only empty destinations do.
            if swaps:
                w = (dstv != civ).nonzero()[0]
            else:
                w = (dstv == 0).nonzero()[0]
            pacc = w
            if w.size:
                flatw = flatr[w]
                qc = Qf[flatw]
                dc = Df[flatw]
                srcc = srcw[w]
                civc = civ[w]
                dstvc = dstv[w]
                ringc = arena[srcc[:, None] + self.RINGD[dc]]
                if swaps:
                    b3 = np.empty((3, w.size, 8), dtype=bool)
                    np.greater(ringc, 0, out=b3[0])
                    np.equal(ringc, civc[:, None], out=b3[1])
                    np.equal(ringc, dstvc[:, None], out=b3[2])
                    pb = np.packbits(b3, axis=2, bitorder="little")
                    occ = pb[0, :, 0]
                    dei = DEI_TABLE[pb[1, :, 0]]
                    is_move = dstvc == 0
                    acc = is_move & (qc < RATIO2[RI2[occ] + dei])
                    expo = dei - DEI_TABLE[pb[2, :, 0]]
                    acc |= (~is_move) & (qc < SRATIO[expo + 6])
                else:
                    b2 = np.empty((2, w.size, 8), dtype=bool)
                    np.greater(ringc, 0, out=b2[0])
                    np.equal(ringc, civc[:, None], out=b2[1])
                    pb = np.packbits(b2, axis=2, bitorder="little")
                    occ = pb[0, :, 0]
                    dei = DEI_TABLE[pb[1, :, 0]]
                    acc = qc < RATIO2[RI2[occ] + dei]
                pacc = acc.nonzero()[0]
            limit = np.minimum(remaining, W)
            tstar.fill(W)
            if pacc.size:
                wacc = w[pacc]
                rows_acc = wacc // W
                # Reversed scatter → the first accepted step per row wins.
                tstar[rows_acc[::-1]] = wacc[::-1] % W
                posf[rows_acc[::-1]] = pacc[::-1]
            has = tstar < limit
            consumed = np.where(has, tstar + 1, limit)
            rows = has.nonzero()[0]
            if rows.size:
                pos = posf[rows]  # candidate index of each accepted step
                wsel = w[pos]
                s = srcc[pos]
                dg = dstg[wsel]
                c = civ[wsel]
                dv = dstv[wsel]
                mrow = dv == 0
                # Swaps first: a regrow (move branch only) rebuilds the
                # arena and would invalidate the swap branch's cell ids.
                sr = rows[~mrow]
                if sr.size:
                    ps = pos[~mrow]
                    arena[s[~mrow]] = dv[~mrow]
                    arena[dg[~mrow]] = c[~mrow]
                    self.het[sr] -= expo[ps]
                    self.acc_swaps[sr] += 1
                mr = rows[mrow]
                if mr.size:
                    pm = pos[mrow]
                    sm, dm = s[mrow], dg[mrow]
                    arena[sm] = 0
                    arena[dm] = c[mrow]
                    gpos[idxg[wsel[mrow]]] = dm
                    de = MD5[occ[pm]] - 5
                    self.edge[mr] += de
                    self.het[mr] += de - dei[pm]
                    self.acc_moves[mr] += 1
                    if self.danger[dm].any():
                        self._regrow()
            self.cursor += consumed
            self.iters += consumed
            remaining -= consumed
            # Diagnostics hook: rounds are the natural sampling grain
            # here — chunking run() itself would shift the proposal
            # streams' refill points (the tail of each regenerated
            # stream is discarded), changing trajectories.  The
            # observer only reads counters, so the streams are
            # untouched.
            if self.observer is not None:
                self.observer.maybe_observe(self)
            if self.state_hook is not None:
                self.state_hook(self)

    def _regrow(self) -> None:
        """Rebuild every replica's arena with a doubled safety margin."""
        self._margin *= 2
        W, A, ox, oy = self.W, self.A, self.ox, self.oy
        gp = self.gpos.reshape(self.R, self.n)
        local = gp - (np.arange(self.R, dtype=np.int64) * A)[:, None]
        xs = local % W + ox
        ys = local // W + oy
        vals = self.arena[gp]
        pad = self._margin
        nox, noy = int(xs.min()) - pad, int(ys.min()) - pad
        nW = int(xs.max() - xs.min()) + 1 + 2 * pad
        nH = int(ys.max() - ys.min()) + 1 + 2 * pad
        nA = nW * nH
        self.W, self.H, self.A, self.ox, self.oy = nW, nH, nA, nox, noy
        arena = np.zeros(self.R * nA, dtype=np.int8)
        row = (np.arange(self.R, dtype=np.int64) * nA)[:, None]
        gpos = (ys - noy) * nW + (xs - nox) + row
        arena[gpos.ravel()] = vals.ravel()
        self.arena, self.gpos = arena, gpos.ravel()
        self._geometry(nW, nH)
        # Direction deltas changed width: refresh the precomputed stream.
        np.take(self.MDELT, self.D, out=self.MD)

    # -- observables --------------------------------------------------------

    def perimeters(self) -> np.ndarray:
        """Per-replica perimeter via the identity p = 3n − 3 − e.

        Vectorized form of
        :func:`repro.lattice.boundary.perimeter_from_edges`, reading the
        incremental edge counters (valid because moves preserve
        connectivity and hole-freeness — Properties 4/5).
        """
        return 3 * self.n - 3 - self.edge

    def het_edges(self) -> np.ndarray:
        """Per-replica heterogeneous edge counts (incremental)."""
        return self.het.copy()

    def edge_totals(self) -> np.ndarray:
        """Per-replica total edge counts (incremental)."""
        return self.edge.copy()

    def acceptance_rates(self) -> np.ndarray:
        """Per-replica fraction of accepted proposals (NaN before any step)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.iters > 0,
                (self.acc_moves + self.acc_swaps) / np.maximum(self.iters, 1),
                np.nan,
            )

    def positions(self, replica: int) -> List[tuple]:
        """Lattice coordinates of every particle in one replica."""
        self._check_replica(replica)
        W, A, ox, oy = self.W, self.A, self.ox, self.oy
        gp = self.gpos.reshape(self.R, self.n)[replica] - replica * A
        return [(int(g % W + ox), int(g // W + oy)) for g in gp]

    def export_system(self, replica: int) -> ParticleSystem:
        """Reconstruct a :class:`ParticleSystem` for one replica.

        The returned system recomputes its counters from scratch in its
        constructor, so it independently cross-checks the kernel's
        incremental ``edge`` / ``het`` arrays (asserted in the fuzz
        tests, not here — export stays cheap).
        """
        self._check_replica(replica)
        W, A, ox, oy = self.W, self.A, self.ox, self.oy
        gp = self.gpos.reshape(self.R, self.n)[replica]
        local = gp - replica * A
        colors = {}
        for g, lg in zip(gp, local):
            x = int(lg % W + ox)
            y = int(lg // W + oy)
            colors[(x, y)] = int(self.arena[g]) - 1
        return ParticleSystem(colors, num_colors=self.k)

    def export_columns(self, replica: int):
        """One replica's state as packed columns, counters included.

        Returns ``(x, y, colors, num_colors, edge_total,
        hetero_total)`` with coordinate and color arrays in the same
        particle order :meth:`export_system` would use for its node
        dict — ready for :func:`repro.util.codec.encode_columns`
        without materializing a Python dict (the vectorized fast path
        the binary sweep transport rides on).  Counters come from the
        kernel's incremental ``edge``/``het`` arrays, which the fuzz
        tests cross-check against from-scratch recounts.
        """
        self._check_replica(replica)
        W, A, ox, oy = self.W, self.A, self.ox, self.oy
        gp = self.gpos.reshape(self.R, self.n)[replica]
        local = gp - replica * A
        x = local % W + ox
        y = local // W + oy
        colors = self.arena[gp].astype(np.int64) - 1
        return (
            x,
            y,
            colors,
            self.k,
            int(self.edge[replica]),
            int(self.het[replica]),
        )

    # -- crash-consistent state snapshots -----------------------------------

    def export_state(self) -> Dict[str, object]:
        """Full kernel state for a crash-consistent mid-run snapshot.

        Returns a mapping shaped for :func:`repro.util.codec.encode_state`:
        scalar geometry/identity metadata plus a ``columns`` dict holding
        the arenas, particle positions, proposal streams, and incremental
        counters.  The per-replica PCG64 bit-generator states ride along
        so :meth:`restore_state` resumes the *exact* draw sequence — the
        unconsumed tails of the ``IDXG``/``D``/``Q`` streams plus
        ``cursor`` are captured verbatim, because re-drawing them would
        shift every refill point downstream.  ``MD`` is derived
        (``MDELT[D]``) and the ratio tables are pure functions of
        ``(lam, gamma)``, so both are recomputed on restore.  A restored
        kernel is bit-identical to one that was never stopped.
        """
        return {
            "kind": "batch-kernel",
            "lam": self.lam,
            "gamma": self.gamma,
            "swaps": self.swaps,
            "replicas": self.R,
            "n": self.n,
            "num_colors": self.k,
            "window": self.window,
            "width": self.W,
            "height": self.H,
            "ox": self.ox,
            "oy": self.oy,
            "margin": self._margin,
            "rng_states": [g.bit_generator.state for g in self.gens],
            "columns": {
                "arena": self.arena,
                "gpos": self.gpos,
                "idxg": self.IDXG,
                "d": self.D,
                "q": self.Q,
                "cursor": self.cursor,
                "edge": self.edge,
                "het": self.het,
                "iters": self.iters,
                "acc_moves": self.acc_moves,
                "acc_swaps": self.acc_swaps,
            },
        }

    def restore_state(self, payload: Mapping) -> None:
        """Adopt a snapshot produced by :meth:`export_state`.

        The kernel must have been constructed for the same cell (same
        ``lam``/``gamma``/``swaps``/``replicas``/``n``/``window``); the
        constructor-built geometry and streams are discarded wholesale
        and replaced by the snapshot's.  Raises ``ValueError`` on any
        identity mismatch or malformed column — nothing is mutated
        until every field has validated, so a failed restore leaves the
        kernel usable for a cold start.
        """
        if payload.get("kind") != "batch-kernel":
            raise ValueError(
                f"state payload kind {payload.get('kind')!r} "
                "is not a batch-kernel snapshot"
            )
        expected = {
            "lam": self.lam,
            "gamma": self.gamma,
            "swaps": self.swaps,
            "replicas": self.R,
            "n": self.n,
            "num_colors": self.k,
            "window": self.window,
        }
        for field, current in expected.items():
            if payload.get(field) != current:
                raise ValueError(
                    f"state payload {field}={payload.get(field)!r} does not "
                    f"match kernel {field}={current!r}"
                )
        rng_states = payload.get("rng_states")
        if not isinstance(rng_states, (list, tuple)) or len(rng_states) != self.R:
            raise ValueError("state payload rng_states does not cover every replica")
        columns = payload.get("columns")
        if not isinstance(columns, dict):
            raise ValueError("state payload is missing its columns mapping")
        R, T, n = self.R, self.T, self.n
        W = int(payload["width"])
        H = int(payload["height"])
        A = W * H
        try:
            # np.array copies: decoded columns are read-only frombuffer
            # views over the decompressed frame body.
            arena = np.array(columns["arena"], dtype=np.int8)
            gpos = np.array(columns["gpos"], dtype=np.int64)
            idxg = np.array(columns["idxg"], dtype=np.int64)
            d = np.array(columns["d"], dtype=np.int64)
            q = np.array(columns["q"], dtype=np.float64)
            cursor = np.array(columns["cursor"], dtype=np.int64)
            counters = {
                name: np.array(columns[name], dtype=np.int64)
                for name in ("edge", "het", "iters", "acc_moves", "acc_swaps")
            }
        except KeyError as error:
            raise ValueError(f"state payload is missing column {error}") from error
        shapes = {
            "arena": (arena, (R * A,)),
            "gpos": (gpos, (R * n,)),
            "idxg": (idxg, (R, T)),
            "d": (d, (R, T)),
            "q": (q, (R, T)),
            "cursor": (cursor, (R,)),
        }
        for name, (array, want) in shapes.items():
            if array.shape != want:
                raise ValueError(
                    f"state column {name!r} has shape {array.shape}, "
                    f"expected {want}"
                )
        for name, array in counters.items():
            if array.shape != (R,):
                raise ValueError(
                    f"state column {name!r} has shape {array.shape}, "
                    f"expected {(R,)}"
                )
        if (d < 0).any() or (d >= 6).any():
            raise ValueError("state column 'd' holds out-of-range directions")
        self._margin = int(payload["margin"])
        self.W, self.H, self.A = W, H, A
        self.ox, self.oy = int(payload["ox"]), int(payload["oy"])
        self.arena = arena
        self.gpos = gpos
        self.IDXG = idxg
        self.D = d
        self.Q = q
        self.cursor = cursor
        self.edge = counters["edge"]
        self.het = counters["het"]
        self.iters = counters["iters"]
        self.acc_moves = counters["acc_moves"]
        self.acc_swaps = counters["acc_swaps"]
        self._geometry(W, H)
        self.MD = np.take(self.MDELT, self.D)
        for gen, state in zip(self.gens, rng_states):
            gen.bit_generator.state = state

    def _check_replica(self, replica: int) -> None:
        if not 0 <= replica < self.R:
            raise IndexError(
                f"replica index {replica} out of range [0, {self.R})"
            )
