"""Exact two-oscillator evolution: exchange coupling and cross-Kerr coupling.

The exchange (amplitude) model diagonalizes the joint Hamiltonian once per
configuration and propagates each thermal Fock component of the environment as
a pure state, which costs (number of retained components) x dimension per time
instead of dimension squared and exposes per-component purity checks.  The
cross-Kerr model never materializes the joint space: its reduced state is an
exact mixture of phase-rotated coherent projectors, built directly in the
system mode's number basis.  A separate small-cutoff constructor builds the
full joint cross-Kerr state explicitly so the two routes can be compared.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CutoffTooSmallError
from .fock import FockOperator, single_mode, two_mode
from .models import Model
from .states import coherent_amplitudes, coherent_tail, thermal_tail, thermal_weights

DEFAULT_TAIL_TOL = 1e-6         # joint-space work tolerates looser tails
DEFAULT_MAX_JOINT_DIM = 4096
MAX_JOINT_DIM_ENV = "MINIENV_MAX_JOINT_DIM"


def joint_dim_cap(explicit: int | None = None) -> int:
    """Configured cap on the joint dimension; the environment variable
    MINIENV_MAX_JOINT_DIM overrides the default."""
    if explicit is not None:
        return int(explicit)
    raw = os.environ.get(MAX_JOINT_DIM_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"{MAX_JOINT_DIM_ENV}={raw!r} is not an integer") from exc
    return DEFAULT_MAX_JOINT_DIM


@dataclass(frozen=True)
class JointConfig:
    """Two-mode truncation, coupling strength and model selector."""

    cutoff_a: int
    cutoff_b: int
    coupling: float
    model: Model
    max_joint_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        if self.model is Model.MASTER:
            raise ValueError("joint evolution covers the amplitude and kerr models only")
        if self.cutoff_a < 1 or self.cutoff_b < 1:
            raise ValueError("per-mode cutoffs must be at least 1")
        if self.coupling <= 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        cap = joint_dim_cap(self.max_joint_dim)
        if self.joint_dim > cap:
            raise ValueError(
                f"joint dimension {self.joint_dim} exceeds the cap {cap}; "
                f"set {MAX_JOINT_DIM_ENV} to raise it"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return (self.cutoff_a + 1, self.cutoff_b + 1)

    @property
    def joint_dim(self) -> int:
        return (self.cutoff_a + 1) * (self.cutoff_b + 1)


def build_joint_hamiltonian(cfg: JointConfig) -> FockOperator:
    """Hermitian two-mode Hamiltonian (mode A is the slow tensor index).

    Exchange model: coupling (ad b + a bd).
    Cross-Kerr model: diagonal coupling * na * nb.
    """
    da, db = cfg.dims
    if cfg.model is Model.KERR:
        diag = cfg.coupling * np.multiply.outer(np.arange(da, dtype=float),
                                                np.arange(db, dtype=float))
        return two_mode(np.diag(diag.ravel()).astype(np.complex128), (da, db))
    a = np.diag(np.sqrt(np.arange(1.0, da)), k=1).astype(np.complex128)
    b = np.diag(np.sqrt(np.arange(1.0, db)), k=1).astype(np.complex128)
    h = cfg.coupling * (np.kron(a.conj().T, b) + np.kron(a, b.conj().T))
    return two_mode(h, (da, db))


def _check_joint_tails(alpha0: complex, nbar: float, cfg: JointConfig, tail_tol: float):
    tail_a = coherent_tail(alpha0, cfg.cutoff_a)
    if tail_a >= tail_tol:
        raise CutoffTooSmallError(
            f"coherent tail {tail_a:.3e} at cutoff_a={cfg.cutoff_a} is not below "
            f"tolerance {tail_tol:.3e} for alpha0={alpha0}"
        )
    tail_b = thermal_tail(nbar, cfg.cutoff_b)
    if tail_b >= tail_tol:
        raise CutoffTooSmallError(
            f"thermal tail {tail_b:.3e} at cutoff_b={cfg.cutoff_b} is not below "
            f"tolerance {tail_tol:.3e} for nbar={nbar}"
        )


class AmplitudeEvolver:
    """Exchange-coupling propagator with the eigensystem computed once.

    Each environment Fock component |alpha0> x |k> is evolved as a pure state;
    the reduced system state is the thermal-weighted sum of the per-component
    reductions.  The summation order over components is fixed, so results are
    deterministic.
    """

    def __init__(self, alpha0: complex, nbar: float, cfg: JointConfig,
                 tail_tol: float = DEFAULT_TAIL_TOL):
        if cfg.model is not Model.AMPLITUDE:
            raise ValueError("AmplitudeEvolver requires the amplitude model")
        _check_joint_tails(alpha0, nbar, cfg, tail_tol)
        self.alpha0 = complex(alpha0)
        self.nbar = float(nbar)
        self.cfg = cfg
        self.weights = thermal_weights(nbar, cfg.cutoff_b)
        da, db = cfg.dims
        h = build_joint_hamiltonian(cfg)
        self._evals, self._vecs = np.linalg.eigh(h.entries)
        amps = coherent_amplitudes(alpha0, cfg.cutoff_a)
        init = np.zeros((da * db, db), dtype=np.complex128)
        for k in range(db):
            init[k::db, k] = amps
        self._components0 = self._vecs.conj().T @ init

    def component_vectors(self, t: float) -> np.ndarray:
        """Evolved pure components as columns, one per environment Fock state."""
        phases = np.exp(-1j * self._evals * t)
        return self._vecs @ (phases[:, None] * self._components0)

    def reduced_state(self, t: float) -> FockOperator:
        """Thermal-weighted reduction of the evolved components to the system mode."""
        da, db = self.cfg.dims
        psi = self.component_vectors(t)
        mats = psi.T.reshape(db, da, db)
        rho = np.einsum("k,kab,kcb->ac", self.weights, mats, mats.conj(), optimize=True)
        return single_mode(rho)

    def mean_occupations(self, t: float) -> tuple[float, float]:
        da, db = self.cfg.dims
        psi = self.component_vectors(t)
        prob = (np.abs(psi.T.reshape(db, da, db)) ** 2)
        weighted = np.tensordot(self.weights, prob, axes=(0, 0))
        na = float((weighted.sum(axis=1) * np.arange(da)).sum())
        nb = float((weighted.sum(axis=0) * np.arange(db)).sum())
        return na, nb


@lru_cache(maxsize=8)
def _cached_amplitude_evolver(alpha0: complex, nbar: float, cfg: JointConfig,
                              tail_tol: float) -> AmplitudeEvolver:
    return AmplitudeEvolver(alpha0, nbar, cfg, tail_tol=tail_tol)


def evolve_kerr_reduced(alpha0: complex, nbar: float, t: float, cfg: JointConfig,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> FockOperator:
    """Reduced cross-Kerr state: thermal mixture of phase-rotated coherent
    projectors, built directly in the system mode's number basis."""
    if cfg.model is not Model.KERR:
        raise ValueError("evolve_kerr_reduced requires the kerr model")
    _check_joint_tails(alpha0, nbar, cfg, tail_tol)
    da, db = cfg.dims
    amps = coherent_amplitudes(alpha0, cfg.cutoff_a)
    weights = thermal_weights(nbar, cfg.cutoff_b)
    n = np.arange(da, dtype=float)
    k = np.arange(db, dtype=float)
    phases = np.exp(-1j * t * np.multiply.outer(n, cfg.coupling * k))
    cols = amps[:, None] * phases
    rho = (cols * weights[None, :]) @ cols.conj().T
    return single_mode(rho)


def evolve_kerr_joint(alpha0: complex, nbar: float, t: float, cfg: JointConfig,
                      tail_tol: float = DEFAULT_TAIL_TOL) -> FockOperator:
    """Explicit joint cross-Kerr state, for small cutoffs only; its partial
    trace must match evolve_kerr_reduced at the same truncation."""
    if cfg.model is not Model.KERR:
        raise ValueError("evolve_kerr_joint requires the kerr model")
    _check_joint_tails(alpha0, nbar, cfg, tail_tol)
    da, db = cfg.dims
    amps = coherent_amplitudes(alpha0, cfg.cutoff_a)
    weights = thermal_weights(nbar, cfg.cutoff_b)
    rho0 = np.kron(np.outer(amps, amps.conj()), np.diag(weights).astype(np.complex128))
    energies = cfg.coupling * np.multiply.outer(np.arange(da, dtype=float),
                                                np.arange(db, dtype=float))
    phases = np.exp(-1j * t * energies.ravel())
    return two_mode(phases[:, None] * rho0 * phases.conj()[None, :], (da, db))


def mean_occupation_exchange(alpha0: complex, nbar: float, t: float, cfg: JointConfig,
                             tail_tol: float = DEFAULT_TAIL_TOL) -> tuple[float, float]:
    """Mean occupations (n_a, n_b) at time t for the configured model."""
    if cfg.model is Model.AMPLITUDE:
        evolver = _cached_amplitude_evolver(complex(alpha0), float(nbar), cfg, tail_tol)
        return evolver.mean_occupations(t)
    rho_a = evolve_kerr_reduced(alpha0, nbar, t, cfg, tail_tol=tail_tol)
    da, db = cfg.dims
    na = float((np.diag(rho_a.entries).real * np.arange(da)).sum())
    norm_a = float(np.abs(coherent_amplitudes(alpha0, cfg.cutoff_a) ** 2).sum())
    weights = thermal_weights(nbar, cfg.cutoff_b)
    nb = norm_a * float((weights * np.arange(db)).sum())
    return na, nb
