"""Dense complex linear algebra over truncated Fock spaces.

Operators and density matrices are dense matrices tagged with their per-mode
basis sizes (one or two bosonic modes).  Truncation keeps the exact
infinite-dimensional matrix elements restricted to number states up to the
cutoff; no boundary correction is applied.  All values are immutable after
construction and every operation is a pure function, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalContractError

# Hermiticity / positivity tolerances scale with matrix dimension; roundoff from
# state construction and propagation at desk scale stays well inside these bounds.
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A dense operator on one or two truncated bosonic modes.

    Attributes
    ----------
    entries : complex matrix of shape (dim, dim), read-only
    per_mode_dims : per-mode basis sizes; their product equals ``dim``
    """

    entries: np.ndarray
    per_mode_dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        dims = tuple(int(d) for d in self.per_mode_dims)
        if len(dims) not in (1, 2):
            raise ValueError("only one- and two-mode operators are supported")
        if any(d < 1 for d in dims):
            raise ValueError(f"per-mode dimensions must be positive, got {dims}")
        if math.prod(dims) != mat.shape[0]:
            raise ValueError(
                f"per-mode dims {dims} do not multiply to matrix size {mat.shape[0]}"
            )
        if not np.all(np.isfinite(mat)):
            raise NumericalContractError("operator entries contain NaN or Inf")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "per_mode_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def mode_count(self) -> int:
        return len(self.per_mode_dims)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.entries.conj().T, self.per_mode_dims)

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from the adjoint."""
        return float(np.abs(self.entries - self.entries.conj().T).max())


def single_mode(entries) -> FockOperator:
    """Wrap a square matrix as a single-mode operator."""
    entries = np.asarray(entries)
    return FockOperator(entries, (entries.shape[0],))


def two_mode(entries, dims: tuple[int, int]) -> FockOperator:
    """Wrap a square matrix as a two-mode operator with the given mode sizes."""
    return FockOperator(np.asarray(entries), tuple(dims))


def identity(cutoff: int) -> FockOperator:
    """Identity on a single mode truncated at ``cutoff``."""
    return single_mode(np.eye(cutoff + 1, dtype=np.complex128))


def annihilation(cutoff: int) -> FockOperator:
    """Annihilation operator with matrix elements sqrt(n) on the superdiagonal."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    mat = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    return single_mode(mat)


def trace(op: FockOperator) -> complex:
    return complex(np.trace(op.entries))


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    """Kronecker product with mode A as the slow index."""
    if a.mode_count != 1 or b.mode_count != 1:
        raise ValueError("tensor requires two single-mode operators")
    return two_mode(np.kron(a.entries, b.entries), (a.dim, b.dim))


def _require_hermitian(op: FockOperator, what="operator"):
    defect = op.hermiticity_defect()
    tol = HERMITICITY_TOL * op.dim
    if defect > tol:
        raise NumericalContractError(
            f"{what} is not hermitian within tolerance: defect {defect:.3e} > {tol:.3e}"
        )


def partial_trace_b(rho: FockOperator) -> FockOperator:
    """Trace out the second mode of a two-mode density matrix."""
    if rho.mode_count != 2:
        raise ValueError("partial_trace_b requires a two-mode operator")
    _require_hermitian(rho, what="two-mode density matrix")
    da, db = rho.per_mode_dims
    reshaped = rho.entries.reshape(da, db, da, db)
    reduced = np.einsum("ikjk->ij", reshaped)
    return single_mode(reduced)


def purity(rho: FockOperator, trace_tol: float = 1e-3) -> float:
    """Tr(rho^2) of a hermitian density matrix; linear entropy is 1 - purity.

    For hermitian input Tr(rho^2) equals the squared Frobenius norm, which is
    what is computed here; hermiticity is therefore enforced first.
    """
    _require_hermitian(rho, what="density matrix")
    tr = float(np.trace(rho.entries).real)
    if abs(tr - 1.0) > trace_tol:
        raise NumericalContractError(
            f"density matrix trace {tr:.12g} deviates from 1 beyond tolerance {trace_tol:g}"
        )
    return float(np.vdot(rho.entries, rho.entries).real)


def trace_distance(a: FockOperator, b: FockOperator) -> float:
    """Half the trace norm of the (hermitian) difference of two states."""
    diff = a.entries - b.entries
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def min_eigenvalue(rho: FockOperator) -> float:
    return float(np.linalg.eigvalsh(0.5 * (rho.entries + rho.entries.conj().T)).min())
