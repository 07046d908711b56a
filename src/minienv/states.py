"""Coherent, thermal and displaced-thermal states on truncated Fock spaces.

Constructed density matrices are not renormalized after truncation: their
trace equals 1 minus the reported tail mass, so tail accounting stays visible
to callers.  Constructors reject cutoffs whose tail mass exceeds the requested
tolerance instead of silently degrading.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffTooSmallError, MiniEnvError
from .fock import FockOperator, single_mode

# Default tail tolerance for single-mode work.  Joint-space brute force uses a
# looser default (see the joint-evolution module) to keep dimensions tractable.
DEFAULT_TAIL_TOL = 1e-10

_MAX_SCAN = 1_000_000
_LOG_UNDERFLOW = -700.0   # exp() of anything above stays a normal float


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes exp(-|a|^2/2) a^n / sqrt(n!), log-stable."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    alpha = complex(alpha)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    if alpha == 0:
        amps[0] = 1.0
        return amps
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, cutoff + 1)))))
    mag = np.exp(-abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * log_fact)
    return mag * np.exp(1j * n * np.angle(alpha))


def coherent_tail(alpha: complex, cutoff: int) -> float:
    """Poisson mass discarded beyond the cutoff, summed upward in log space.

    Below the mode |alpha|^2 the terms grow with n, so every kept term is
    smaller than the first discarded one: if that one is below the normal
    float range, the kept mass is too and the tail is 1.  Above the mode the
    sum stops once a term no longer counts.
    """
    a2 = abs(complex(alpha)) ** 2
    if a2 == 0.0:
        return 0.0
    log_term = -a2 + (cutoff + 1) * math.log(a2) - math.lgamma(cutoff + 2)
    if cutoff + 1 < a2 and log_term < _LOG_UNDERFLOW:
        return 1.0
    term = math.exp(log_term)
    total = 0.0
    n = cutoff + 1
    for _ in range(_MAX_SCAN):
        total += term
        n += 1
        term *= a2 / n
        if n > a2 and term <= total * 1e-18 + 1e-300:
            break
    return min(total, 1.0)


def thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    """Geometric weights nbar^k / (1+nbar)^(k+1) for k = 0..cutoff."""
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    q = nbar / (1.0 + nbar)
    return q ** np.arange(cutoff + 1) / (1.0 + nbar)


def thermal_tail(nbar: float, cutoff: int) -> float:
    """Mass of the geometric distribution discarded beyond the cutoff."""
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    if nbar == 0.0:
        return 0.0
    q = nbar / (1.0 + nbar)
    return q ** (cutoff + 1)


def min_cutoff_for_coherent(alpha: complex, tol: float) -> int:
    """Smallest cutoff c with coherent_tail(alpha, c) < tol <= coherent_tail(alpha, c - 1).

    Found by doubling and then bisection on the directly summed tail.  An
    |alpha| whose square overflows is refused with a MiniEnvError.
    """
    if not tol > 0.0:
        raise ValueError(f"tail tolerance must be positive, got {tol}")
    a = abs(complex(alpha))
    if math.isinf(a * a):
        raise MiniEnvError(
            f"coherent amplitude |alpha0| = {a:.6g} is above {math.sqrt(sys.float_info.max):.6g},"
            f" where |alpha0|^2 overflows"
        )
    if coherent_tail(alpha, 0) < tol:
        return 0
    lo, hi = 0, 1   # coherent_tail(alpha, lo) >= tol throughout
    while coherent_tail(alpha, hi) >= tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coherent_tail(alpha, mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def min_cutoff_for_thermal(nbar: float, tol: float) -> int:
    """Smallest cutoff whose geometric tail is below tol."""
    if nbar == 0.0:
        return 0
    q = nbar / (1.0 + nbar)
    c = max(0, math.ceil(math.log(tol) / math.log(q) - 1.0))
    while thermal_tail(nbar, c) >= tol:
        c += 1
    while c > 0 and thermal_tail(nbar, c - 1) < tol:
        c -= 1
    return c


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent amplitude plus truncation bookkeeping."""

    alpha: complex
    cutoff: int
    tail_mass: float = field(init=False)

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.cutoff}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "tail_mass", coherent_tail(self.alpha, self.cutoff))


@dataclass(frozen=True)
class ThermalSpec:
    """Mean occupation plus truncation bookkeeping."""

    nbar: float
    cutoff: int
    tail_mass: float = field(init=False)

    def __post_init__(self):
        if self.nbar < 0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.cutoff}")
        object.__setattr__(self, "nbar", float(self.nbar))
        object.__setattr__(self, "tail_mass", thermal_tail(self.nbar, self.cutoff))


def _check_tail(tail: float, tol: float, what: str):
    if tail >= tol:
        raise CutoffTooSmallError(
            f"{what}: tail mass {tail:.3e} is not below tolerance {tol:.3e}; raise the cutoff"
        )


def coherent_state(spec: CoherentSpec, tol: float = DEFAULT_TAIL_TOL) -> FockOperator:
    """Rank-1 projector onto a truncated coherent state; trace = 1 - tail_mass."""
    _check_tail(spec.tail_mass, tol, f"coherent state alpha={spec.alpha}, cutoff={spec.cutoff}")
    c = coherent_amplitudes(spec.alpha, spec.cutoff)
    return single_mode(np.outer(c, c.conj()))


def thermal_state(spec: ThermalSpec, tol: float = DEFAULT_TAIL_TOL) -> FockOperator:
    """Diagonal thermal density matrix; nbar = 0 gives the vacuum projector."""
    _check_tail(spec.tail_mass, tol, f"thermal state nbar={spec.nbar}, cutoff={spec.cutoff}")
    return single_mode(np.diag(thermal_weights(spec.nbar, spec.cutoff)).astype(np.complex128))


def displacement_operator(alpha: complex, cutoff: int) -> FockOperator:
    """Truncated displacement, built by unitary exponentiation of the generator.

    The anti-hermitian generator (alpha ad - conj(alpha) a) is exponentiated
    through the eigensystem of its hermitian counterpart, which keeps the
    result exactly unitary at machine precision and avoids normal-ordering
    truncation artifacts near the cutoff.
    """
    alpha = complex(alpha)
    d = cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    generator_h = -1j * (alpha * a.conj().T - np.conj(alpha) * a)
    evals, v = np.linalg.eigh(generator_h)
    disp = (v * np.exp(1j * evals)) @ v.conj().T
    return single_mode(disp)


def displaced_thermal_state(
    alpha: complex, nbar_t: float, cutoff: int, tol: float = DEFAULT_TAIL_TOL
) -> FockOperator:
    """Displaced thermal mixture D(alpha) thermal(nbar_t) D(alpha)^dagger."""
    _check_tail(coherent_tail(alpha, cutoff), tol, f"displacement alpha={alpha}, cutoff={cutoff}")
    _check_tail(thermal_tail(nbar_t, cutoff), tol, f"thermal part nbar={nbar_t}, cutoff={cutoff}")
    th = np.diag(thermal_weights(nbar_t, cutoff)).astype(np.complex128)
    if complex(alpha) == 0:
        return single_mode(th)
    disp = displacement_operator(alpha, cutoff).entries
    return single_mode(disp @ th @ disp.conj().T)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """Exact closed-form overlap exp(-|a|^2/2 - |b|^2/2 + conj(a) b)."""
    alpha, beta = complex(alpha), complex(beta)
    return complex(
        np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
    )
