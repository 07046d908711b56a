"""Exact propagation of the truncated thermal-bath master equation.

The dissipator acts on a single truncated mode,

    d rho/dt = g (1+nbar) (2 a rho ad - n rho - rho n)
             + g nbar     (2 ad rho a - a ad rho - rho a ad).

Every term maps the k-th diagonal x_k[m] = rho[m, m+k] onto itself, so the
generator splits into d real tridiagonal blocks of size d - k, each
propagated exactly by its matrix exponential; there is no time step to choose.
The blocks use only the truncated matrix elements, never the closed-form bath
solution, so the engine stays an independent check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailureError, MiniEnvError
from .fock import FockOperator, _require_hermitian, single_mode
from .models import Model, ModelParams, master_solution_params
from .states import displaced_thermal_state, min_cutoff_for_coherent, min_cutoff_for_thermal

TRACE_DRIFT_TOL = 1e-8
MIN_EIGENVALUE_TOL = -1e-8
# Largest snapshot storage (points d^2 16 bytes) and block work (distinct steps
# d^4) a run may ask for; one distinct step at d = 181 takes about 2 s.
MAX_RUN_SIZE = 1 << 30


@dataclass(frozen=True)
class LindbladConfig:
    """Decay rate, bath occupation and truncation."""

    gamma: float
    nbar: float
    cutoff: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be at least 1, got {self.cutoff}")


def _mode_ops(cutoff: int):
    """Truncated a, a^dagger, n = a^dagger a and a a^dagger."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    return a, a.T, a.T @ a, a @ a.T


def lindblad_rhs(rho: FockOperator, cfg: LindbladConfig) -> FockOperator:
    """Right-hand side of the master equation; traceless and hermitian."""
    if rho.mode_count != 1 or rho.dim != cfg.cutoff + 1:
        raise ValueError(
            f"density matrix dimension {rho.dim} does not match cutoff {cfg.cutoff}"
        )
    a, ad, num, a_ad = _mode_ops(cfg.cutoff)
    r = rho.entries
    g_down = cfg.gamma * (1.0 + cfg.nbar)
    out = g_down * (2.0 * (a @ r @ ad) - num @ r - r @ num)
    if cfg.nbar > 0:
        g_up = cfg.gamma * cfg.nbar
        out += g_up * (2.0 * (ad @ r @ a) - a_ad @ r - r @ a_ad)
    return single_mode(out)


def default_cutoff(alpha0: complex, nbar: float, tol: float = 1e-10) -> int:
    """Cutoff covering the coherent transient and the thermal steady state."""
    return max(min_cutoff_for_coherent(alpha0, tol), min_cutoff_for_thermal(nbar, tol), 1)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-18 Taylor series.

    Scaling to 1-norm at most 0.5 leaves a series remainder below 1e-22.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = a / 2.0 ** squarings
    term = np.eye(a.shape[0], dtype=x.dtype)
    out = term.copy()
    for j in range(1, 19):
        term = term @ x / j
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def evolve_master(rho0: FockOperator, cfg: LindbladConfig, times) -> list[FockOperator]:
    """Exact trajectory of the truncated equation at the requested times
    (ascending, from 0).

    The generator of diagonal k is tridiagonal of size cutoff + 1 - k, built
    from the truncated matrix elements that ``lindblad_rhs`` uses, and takes
    one matrix exponential per distinct step of the grid.  Every snapshot is
    assembled hermitian from its diagonals; its trace drift must stay within
    1e-8 and its spectrum above -1e-8.  A run whose snapshot bytes or block
    work exceeds ``MAX_RUN_SIZE`` is refused before anything is allocated.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a nonempty 1-D grid")
    if not np.all(np.isfinite(times)) or times[0] < 0 or not np.all(np.diff(times) > 0):
        raise ValueError("times must be finite, ascending and nonnegative")
    if rho0.mode_count != 1 or rho0.dim != cfg.cutoff + 1:
        raise ValueError(
            f"initial state dimension {rho0.dim} does not match cutoff {cfg.cutoff}"
        )
    d = cfg.cutoff + 1
    steps = np.diff(times, prepend=0.0)
    snapshot_bytes = times.size * d * d * 16
    block_work = np.unique(steps[steps > 0.0]).size * d ** 4
    if max(snapshot_bytes, block_work) > MAX_RUN_SIZE:
        raise MiniEnvError(
            f"master run too large at dimension {d}: {snapshot_bytes:.3g} snapshot bytes and "
            f"{block_work:.3g} block work (distinct steps x d^4); the limit is "
            f"{MAX_RUN_SIZE:.3g} for each"
        )
    _require_hermitian(rho0, what="initial state")
    r0 = 0.5 * (rho0.entries + rho0.entries.conj().T)
    trace0 = float(np.trace(r0).real)
    a, _, num, a_ad = _mode_ops(cfg.cutoff)
    s, n, c = np.diagonal(a, 1), np.diagonal(num), np.diagonal(a_ad)
    g_down, g_up = cfg.gamma * (1.0 + cfg.nbar), cfg.gamma * cfg.nbar
    snaps = [np.zeros((d, d), dtype=np.complex128) for _ in times]
    for k in range(d):
        size = d - k
        m = np.arange(size)
        # x[m] = rho[m, m+k] couples to x[m +- 1] through a[m, m+1] a[m+k, m+k+1]
        hop = s[: size - 1] * s[k:]
        gen = (np.diag(-g_down * (n[:size] + n[k:]) - g_up * (c[:size] + c[k:]))
               + np.diag(2.0 * g_down * hop, 1) + np.diag(2.0 * g_up * hop, -1))
        propagators: dict[float, np.ndarray] = {}
        x = np.diagonal(r0, k)
        for snap, step in zip(snaps, steps):
            if step > 0.0:
                if step not in propagators:
                    # cast once, not at every product with the complex x; the
                    # per-product casts also left a fragmented heap (+5 MB peak)
                    propagators[step] = expm(gen * step).astype(np.complex128)
                x = propagators[step] @ x
            # lower triangle first: on the main diagonal x is real and the upper write wins
            snap[m + k, m] = x.conj()
            snap[m, m + k] = x
    for t, snap in zip(times, snaps):
        drift = abs(float(np.trace(snap).real) - trace0)
        if not drift <= TRACE_DRIFT_TOL:
            raise IntegrationFailureError(
                f"trace drift {drift:.3e} exceeds {TRACE_DRIFT_TOL:g} at t={t:g}"
            )
        lam_min = float(np.linalg.eigvalsh(snap).min())
        if lam_min < MIN_EIGENVALUE_TOL:
            raise IntegrationFailureError(
                f"negative eigenvalue {lam_min:.3e} at t={t:g}; raise the cutoff"
            )
    return [FockOperator(snap, (d,)) for snap in snaps]


def closed_form_master_state(
    t: float, p: ModelParams, cutoff: int, tol: float = 1e-10
) -> FockOperator:
    """Exact bath solution as a displaced thermal state at time t."""
    if p.model is not Model.MASTER:
        raise ValueError("closed_form_master_state requires the master model")
    alpha_t, nbar_t = master_solution_params(t, p)
    return displaced_thermal_state(alpha_t, nbar_t, cutoff, tol=tol)
