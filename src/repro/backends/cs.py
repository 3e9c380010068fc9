"""Compressed-sensing delay tomography backend (``cs``).

The Domo QP estimates every interior arrival time directly — accurate,
but each window pays a full ADMM solve. The CS backend trades per-packet
resolution inside a window for a much cheaper solve, following the
network-tomography literature (synchronization-free CS delay tomography,
arXiv:1402.5196; FRANTIC's reference-based recovery, arXiv:1312.0825):

1. **Routing matrix.** Each received packet contributes one row: the
   end-to-end delay ``y_p = t_sink(p) - t_0(p)`` is the sum of the
   sojourn delays at the forwarding nodes ``path[0..L-2]`` it crossed.
   Columns are the forwarding nodes seen in the window, so the system is
   ``y = A d`` with ``A`` a 0/1 path-incidence matrix.

2. **Reference deltas.** Per FRANTIC, we solve for the *deviation* from
   a cheap reference rather than the raw delays: every hop costs at
   least the paper's ``omega`` (minimum software processing delay), so
   with ``x = d - omega`` the residual observation is
   ``y' = y - hops(p) * omega = A x`` and ``x >= 0`` is sparse whenever
   most nodes are uncongested — the regime CS recovery needs.

3. **Sparse recovery.** ``x`` is recovered with ISTA (iterative
   soft-thresholding for the nonnegative LASSO) or OMP (greedy orthogonal
   matching pursuit), selected by :class:`CsConfig.solver`. Both are a
   handful of dense matrix-vector products on a (packets x nodes) matrix
   — no constraint stack, no ADMM.

4. **Per-packet expansion.** Node estimates go back to per-packet
   :class:`~repro.core.records.ArrivalKey` values by distributing each
   packet's *exact* total delay along its path proportionally to the
   recovered per-node delays, then clamping into the Eq. (5) trivial
   intervals. Endpoints stay exact and the expansion is monotone along
   the path, so the output always satisfies the order constraints.

Accuracy envelope: per-node aggregation assumes sojourn times are
roughly stationary within one window, so the backend recovers
congestion *location and magnitude* well but cannot see per-packet
jitter at a single node — that is exactly the accuracy the Eq. (8) QP
buys. ``bench_backend_tradeoff`` pins the resulting MAE next to the
windows/sec gain.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    EstimatorBackend,
    WindowSolution,
)
from repro.core.constraints import ConstraintSystem
from repro.core.records import ArrivalKey
from repro.optim.result import SolverResult, SolverStatus


@dataclass
class CsConfig:
    """Knobs of the compressed-sensing recovery."""

    #: sparse-recovery algorithm: "ista" (nonnegative LASSO via
    #: iterative soft thresholding) or "omp" (orthogonal matching
    #: pursuit).
    solver: str = "ista"
    #: ISTA: soft-threshold weight as a fraction of ||A^T y'||_inf —
    #: scale-free across windows with very different delay magnitudes.
    lambda_scale: float = 0.01
    #: ISTA iteration cap.
    max_iterations: int = 200
    #: ISTA early stop: relative change of x between iterations.
    tolerance: float = 1e-6
    #: OMP: residual-norm fraction of ||y'|| at which to stop adding
    #: columns (also stops at full column rank).
    omp_residual_tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.solver not in ("ista", "omp"):
            raise ValueError(
                f"cs solver must be 'ista' or 'omp', got {self.solver!r}"
            )
        if self.max_iterations <= 0:
            raise ValueError("cs max_iterations must be > 0")
        if self.lambda_scale < 0:
            raise ValueError("cs lambda_scale must be >= 0")


def build_routing_system(
    system: ConstraintSystem,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The window's (A, y', nodes) compressed-sensing system.

    Rows are packets with at least one forwarding hop; columns are the
    forwarding nodes of the window in sorted order; ``y'`` is the
    end-to-end delay minus the ``omega`` floor of every hop (the
    FRANTIC-style reference delta).
    """
    omega = system.index.omega_ms
    nodes = sorted(system.index.node_visits)
    column = {node: j for j, node in enumerate(nodes)}
    rows: list[np.ndarray] = []
    deltas: list[float] = []
    for packet in system.index.packets:
        hops = packet.path_length - 1
        if hops < 1:
            continue
        row = np.zeros(len(nodes))
        for node in packet.path[:-1]:
            row[column[node]] += 1.0
        rows.append(row)
        deltas.append(
            packet.sink_arrival_ms
            - packet.generation_time_ms
            - hops * omega
        )
    if not rows:
        return np.zeros((0, len(nodes))), np.zeros(0), nodes
    return np.vstack(rows), np.asarray(deltas), nodes


def ista_recover(
    A: np.ndarray, y: np.ndarray, config: CsConfig
) -> tuple[np.ndarray, int]:
    """Nonnegative LASSO ``min ||Ax-y||^2 + lam*||x||_1, x >= 0`` via ISTA.

    Returns ``(x, iterations)``. The step size is ``1/L`` with ``L`` the
    largest eigenvalue of ``A^T A`` (power iteration), the thresholding
    is one-sided because delays never fall below the omega reference.
    """
    n = A.shape[1]
    x = np.zeros(n)
    if A.size == 0 or not np.any(y):
        return x, 0
    gram = A.T @ A
    # Power iteration for the Lipschitz constant of the gradient.
    v = np.ones(n) / np.sqrt(n)
    for _ in range(30):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm <= 0:
            break
        v = w / norm
    lipschitz = float(v @ (gram @ v))
    if lipschitz <= 0:
        return x, 0
    step = 1.0 / lipschitz
    correlation = A.T @ y
    lam = config.lambda_scale * float(np.max(np.abs(correlation)))
    threshold = step * lam
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        gradient = gram @ x - correlation
        x_next = np.maximum(x - step * gradient - threshold, 0.0)
        change = np.linalg.norm(x_next - x)
        scale = max(np.linalg.norm(x), 1.0)
        x = x_next
        if change <= config.tolerance * scale:
            break
    return x, iterations


def omp_recover(
    A: np.ndarray, y: np.ndarray, config: CsConfig
) -> tuple[np.ndarray, int]:
    """Orthogonal matching pursuit with a nonnegativity clamp.

    Greedily grows the support by the column most correlated with the
    residual, re-fits least squares on the support each round, and stops
    when the residual falls under ``omp_residual_tol * ||y||`` or the
    support saturates. Returns ``(x, iterations)``.
    """
    m, n = A.shape
    x = np.zeros(n)
    if A.size == 0 or not np.any(y):
        return x, 0
    norms = np.linalg.norm(A, axis=0)
    usable = norms > 0
    residual = y.astype(float).copy()
    target = config.omp_residual_tol * max(np.linalg.norm(y), 1e-12)
    support: list[int] = []
    iterations = 0
    max_support = min(m, int(np.count_nonzero(usable)))
    while len(support) < max_support:
        correlation = A.T @ residual
        correlation[~usable] = 0.0
        correlation[support] = 0.0
        best = int(np.argmax(np.abs(correlation)))
        if abs(correlation[best]) <= 1e-12:
            break
        support.append(best)
        iterations += 1
        coeffs, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        coeffs = np.maximum(coeffs, 0.0)
        residual = y - A[:, support] @ coeffs
        if np.linalg.norm(residual) <= target:
            break
    if support:
        x[support] = coeffs
    return x, iterations


def expand_to_arrival_times(
    system: ConstraintSystem, node_extra: dict[int, float]
) -> dict[ArrivalKey, float]:
    """Per-packet arrival estimates from per-node delay estimates.

    Each packet's exact total delay is distributed along its path
    proportionally to ``omega + node_extra[node]`` per hop, then every
    interior estimate is clamped into its Eq. (5) trivial interval, so
    endpoints are exact and order constraints hold by construction.
    """
    omega = system.index.omega_ms
    space = system.index.key_space
    lows, highs = system.intervals.lows, system.intervals.highs
    estimates: dict[ArrivalKey, float] = {}
    for packet, offset in zip(space.packets, space.offsets):
        last = packet.path_length - 1
        if last < 2:
            continue
        weights = [
            max(omega + node_extra.get(node, 0.0), omega, 1e-9)
            for node in packet.path[:-1]
        ]
        total_weight = sum(weights)
        total_delay = packet.sink_arrival_ms - packet.generation_time_ms
        cumulative = 0.0
        for hop in range(1, last):
            cumulative += weights[hop - 1]
            value = (
                packet.generation_time_ms
                + total_delay * cumulative / total_weight
            )
            key = offset + hop
            estimates[ArrivalKey(packet.packet_id, hop)] = float(
                min(max(value, lows[key]), highs[key])
            )
    return estimates


class CsBackend(EstimatorBackend):
    """Compressed-sensing tomography: cheap per-node recovery per window."""

    name = "cs"
    capabilities = BackendCapabilities(
        exact=False, supports_relaxation=False, cost_rank=1
    )

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        config: CsConfig = spec.cs
        if system.num_unknowns == 0:
            return WindowSolution(estimates={}, solver="empty", result=None)
        started = time.perf_counter()
        A, y, nodes = build_routing_system(system)
        if config.solver == "omp":
            x, iterations = omp_recover(A, y, config)
        else:
            x, iterations = ista_recover(A, y, config)
        node_extra = {node: float(x[j]) for j, node in enumerate(nodes)}
        estimates = expand_to_arrival_times(system, node_extra)
        residual = (
            float(np.linalg.norm(A @ x - y, np.inf)) if A.size else 0.0
        )
        result = SolverResult(
            status=SolverStatus.OPTIMAL,
            x=x,
            objective=float(np.dot(A @ x - y, A @ x - y)) if A.size else 0.0,
            iterations=iterations,
            primal_residual=residual,
            dual_residual=0.0,
            solve_time_s=time.perf_counter() - started,
            info={"nodes": len(nodes), "rows": int(A.shape[0])},
        )
        return WindowSolution(
            estimates=estimates,
            solver=f"cs-{config.solver}",
            result=result,
        )
