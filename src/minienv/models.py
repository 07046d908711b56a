"""Closed-form linear-entropy results for the three environment models.

The three models share one initial condition (a coherent state of amplitude
alpha0) and one mixedness measure, the linear entropy 1 - Tr(rho^2) of the
reduced single-mode state:

* ``master``     - Markovian thermal bath with decay rate ``rate``;
* ``amplitude``  - excitation exchange with one thermal oscillator at
  coupling ``rate``;
* ``kerr``       - cross-Kerr (occupation-occupation) coupling to one thermal
  oscillator at coupling ``rate``.

Every function here is a pure closed form; the brute-force counterparts live
in the master-equation and joint-evolution modules and are used as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MiniEnvError, NumericalContractError

# Bessel orders grow as 9 sqrt(2) |alpha0|; at this limit (|alpha0| near 8e4)
# the weight grid holds 16 MB and a 2000-point series about 2e9 terms
MAX_BESSEL_ORDER = 1 << 20
# entries of one (times x orders) block of the cross-Kerr series
_BLOCK_ELEMENTS = 1 << 18

_CROSSING_FRACTION = 1.0 - math.exp(-1.0)


class Model(str, Enum):
    MASTER = "master"
    AMPLITUDE = "amplitude"
    KERR = "kerr"


@dataclass(frozen=True)
class ModelParams:
    """Shared parameter bundle: initial amplitude, environment occupation,
    coupling/decay rate and model tag."""

    alpha0: complex
    nbar: float
    rate: float
    model: Model

    def __post_init__(self):
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        object.__setattr__(self, "nbar", float(self.nbar))
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "model", Model(self.model))
        if not np.all(np.isfinite([self.alpha0, self.nbar, self.rate])):
            raise ValueError("alpha0, nbar and rate must be finite")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.nbar < 0:
            raise ValueError(f"nbar must be nonnegative, got {self.nbar}")


@dataclass(frozen=True)
class PFunctionGaussian:
    """Gaussian diagonal coherent-state weight: center C(t), width S(t)."""

    center: complex
    width: float

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"width must be nonnegative, got {self.width}")


def _require_model(p: ModelParams, model: Model, op: str):
    if p.model is not model:
        raise ValueError(f"{op} requires model={model.value!r}, got {p.model.value!r}")


def _check_times(t):
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("time must be nonnegative")
    return tt


def _scalar_like(t, values):
    return float(values) if np.ndim(t) == 0 else values


def master_linear_entropy(t, p: ModelParams):
    """1 - 1/(1 + 2 nbar (1 - exp(-2 rate t))); independent of alpha0."""
    _require_model(p, Model.MASTER, "master_linear_entropy")
    tt = _check_times(t)
    x = 2.0 * p.nbar * (-np.expm1(-2.0 * p.rate * tt))
    return _scalar_like(t, 1.0 - 1.0 / (1.0 + x))


def amplitude_linear_entropy(t, p: ModelParams):
    """1 - 1/(1 + 2 nbar sin^2(rate t)); period pi/rate, independent of alpha0."""
    _require_model(p, Model.AMPLITUDE, "amplitude_linear_entropy")
    tt = _check_times(t)
    x = 2.0 * p.nbar * np.sin(p.rate * tt) ** 2
    return _scalar_like(t, 1.0 - 1.0 / (1.0 + x))


def _series_argument(alpha0: complex) -> float:
    """x = 2 |alpha0|^2 of the cross-Kerr series.

    Its ceil(9 sqrt(x) + 32) Bessel orders are checked against
    MAX_BESSEL_ORDER on |alpha0| itself, before squaring, so an |alpha0| whose
    square would overflow is refused by name too.
    """
    a = abs(alpha0)
    orders = 9.0 * math.sqrt(2.0) * a + 32.0
    if not orders <= MAX_BESSEL_ORDER:
        limit = (MAX_BESSEL_ORDER - 32.0) / (9.0 * math.sqrt(2.0))
        raise MiniEnvError(
            f"|alpha0| = {a:.6g} needs {orders:.6g} Bessel orders; the limit is "
            f"{MAX_BESSEL_ORDER}, reached at |alpha0| = {limit:.6g}"
        )
    return 2.0 * a ** 2


def bessel_weights(x: float) -> np.ndarray:
    """Weights e^{-x} I_n(x) for n = 0 .. ceil(9 sqrt(x) + 32).

    They are the Fourier coefficients of exp(-x (1 - cos phi)) (Jacobi-Anger),
    taken by the trapezoid rule on a power-of-two grid of at least twice as
    many points, so aliasing only folds in orders whose weight is below 1e-17.
    Over all integer orders (w_{-n} = w_n) they sum to 1.
    """
    orders = math.ceil(9.0 * math.sqrt(x) + 32.0)
    grid = 1 << (2 * orders - 1).bit_length()
    sin_half = np.sin(np.pi / grid * np.arange(grid))
    dephase = np.exp(-2.0 * x * sin_half ** 2)
    return np.fft.rfft(dephase).real[: orders + 1] / grid


def kerr_linear_entropy(t, p: ModelParams):
    """Exact series sum over integer n of e^{-x} I_n(x) s_n / (1 + s_n).

    Here x = 2 |alpha0|^2 and s_n = 4 nbar (nbar + 1) sin^2(n rate t / 2):
    Jacobi-Anger expands every coherent overlap and the geometric thermal
    weights sum in closed form, so nothing is truncated but the Bessel orders
    and zeta(0) = 0 exactly.  Orders are summed in blocks, so memory does not
    grow with alpha0.  Period 2 pi / rate.
    """
    _require_model(p, Model.KERR, "kerr_linear_entropy")
    tt = _check_times(t)
    w = bessel_weights(_series_argument(p.alpha0))
    gain = 4.0 * p.nbar * (p.nbar + 1.0)
    if math.isinf(gain):
        raise OverflowError(f"4 nbar (nbar + 1) overflows at nbar={p.nbar:g}")
    half_angle = 0.5 * p.rate * tt.ravel()
    zeta = np.zeros(half_angle.size)
    step = max(1, _BLOCK_ELEMENTS // max(1, half_angle.size))
    # s_0 = 0, and orders n and -n contribute alike
    for lo in range(1, w.size, step):
        n = np.arange(lo, min(lo + step, w.size))
        s = gain * np.sin(np.multiply.outer(half_angle, n)) ** 2
        zeta += (s / (1.0 + s)) @ w[n]
    return _scalar_like(t, np.maximum(0.0, 2.0 * zeta).reshape(tt.shape))


def linear_entropy_of_model(t, p: ModelParams):
    """Dispatch to the closed form matching ``p.model``."""
    if p.model is Model.MASTER:
        return master_linear_entropy(t, p)
    if p.model is Model.AMPLITUDE:
        return amplitude_linear_entropy(t, p)
    return kerr_linear_entropy(t, p)


def master_solution_params(t: float, p: ModelParams) -> tuple[complex, float]:
    """Displaced-thermal parameters (alpha_t, nbar_t) of the exact bath solution."""
    _require_model(p, Model.MASTER, "master_solution_params")
    if t < 0:
        raise ValueError("time must be nonnegative")
    alpha_t = p.alpha0 * math.exp(-p.rate * t)
    nbar_t = -math.expm1(-2.0 * p.rate * t) * p.nbar
    return alpha_t, nbar_t


def heisenberg_coeffs(t: float, p: ModelParams) -> tuple[complex, complex]:
    """Mode-mixing coefficients (A, B) of the exchange coupling; |A|^2+|B|^2 = 1."""
    _require_model(p, Model.AMPLITUDE, "heisenberg_coeffs")
    return complex(math.cos(p.rate * t)), complex(-1j * math.sin(p.rate * t))


def p_function_gaussian(t: float, p: ModelParams) -> PFunctionGaussian:
    """Gaussian coherent-state weight of the reduced state: width nbar sin^2(rate t),
    center alpha0 cos(rate t)."""
    _require_model(p, Model.AMPLITUDE, "p_function_gaussian")
    width = p.nbar * math.sin(p.rate * t) ** 2
    center = p.alpha0 * math.cos(p.rate * t)
    return PFunctionGaussian(center=center, width=width)


@dataclass(frozen=True, eq=False)
class EntropySeries:
    """Linear entropy sampled on an ascending time grid, with parameter echo."""

    times: np.ndarray
    zeta: np.ndarray
    model: Model
    params: ModelParams

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        zeta = np.asarray(self.zeta, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a nonempty 1-D grid")
        if zeta.shape != times.shape:
            raise ValueError("zeta and times must have matching shapes")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly ascending")
        if not np.all(np.isfinite(zeta)):
            raise NumericalContractError("zeta contains NaN or Inf")
        bound = 2.0 * self.params.nbar / (1.0 + 2.0 * self.params.nbar) + 1e-9
        if np.any(zeta < -1e-12) or np.any(zeta > bound):
            raise ValueError("zeta values leave the [0, plateau] band")
        if times[0] == 0.0 and abs(zeta[0]) > 1e-12:
            raise ValueError(f"zeta(0) = {zeta[0]:.3e} is not 0 within 1e-12")
        if self.model is not self.params.model:
            raise ValueError("series model tag must match its parameters")
        zeta = np.maximum(zeta, 0.0)
        times.setflags(write=False)
        zeta.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "zeta", zeta)


def entropy_series(p: ModelParams, times) -> EntropySeries:
    """Evaluate the model's closed form on a grid."""
    times = np.asarray(times, dtype=float)
    return EntropySeries(times, linear_entropy_of_model(times, p), p.model, p)


def analytic_plateau(p: ModelParams) -> float:
    """Long-time mixedness level used by the crossing criterion.

    For the bath and exchange models this is the exact maximum
    2 nbar / (1 + 2 nbar).  The cross-Kerr entropy has no closed-form maximum;
    its plateau is the level reached once every unequal-occupation pair has
    dephased to its time-averaged overlap, the n = 0 Bessel weight
    e^{-x} I_0(x) at x = 2 |alpha0|^2; it lies below the diagonal bound.
    """
    if p.nbar == 0:
        return 0.0
    base = 2.0 * p.nbar / (1.0 + 2.0 * p.nbar)
    if p.model is not Model.KERR:
        return base
    if p.alpha0 == 0:
        return 0.0
    w0 = 1.0 / (1.0 + 2.0 * p.nbar)
    return 1.0 - w0 - (1.0 - w0) * bessel_weights(_series_argument(p.alpha0))[0]


def decoherence_time_estimate(p: ModelParams) -> float:
    """Closed-form decoherence-time estimate per model; inf when no mixing occurs."""
    if p.nbar == 0:
        return math.inf
    if p.model is Model.MASTER:
        return 1.0 / (4.0 * p.rate * p.nbar)
    if p.model is Model.AMPLITUDE:
        return 1.0 / (p.rate * math.sqrt(2.0 * p.nbar))
    a2 = abs(p.alpha0) ** 2
    if a2 == 0:
        return math.inf
    return 1.0 / (5.0 * p.rate * math.sqrt(a2 * p.nbar))


def measured_decoherence_time(series: EntropySeries) -> float | None:
    """First time the sampled entropy reaches (1 - 1/e) of the analytic plateau.

    Linear interpolation between grid points; returns None when the series
    never crosses (for instance at zero temperature).
    """
    plateau = analytic_plateau(series.params)
    if plateau <= 0.0:
        return None
    target = _CROSSING_FRACTION * plateau
    above = series.zeta >= target
    if not above.any():
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(series.times[0])
    t0, t1 = series.times[i - 1], series.times[i]
    z0, z1 = series.zeta[i - 1], series.zeta[i]
    return float(t0 + (target - z0) * (t1 - t0) / (z1 - z0))

