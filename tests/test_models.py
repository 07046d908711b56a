import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minienv import models
from minienv.errors import MiniEnvError, NumericalContractError
from minienv.models import EntropySeries, Model, ModelParams


def params(model, alpha0=1.0, nbar=1.0, rate=1.0):
    return ModelParams(alpha0, nbar, rate, model)


def brute_kerr_double_sum(t, alpha0, nbar, rate=1.0, kmax=400):
    """Independent oracle: literal double sum over thermal weights."""
    q = nbar / (1.0 + nbar)
    k = np.arange(kmax + 1)
    w = q**k / (1.0 + nbar)
    total = 0.0
    for ki in range(kmax + 1):
        total += float(
            np.sum(w[ki] * w * np.exp(-2 * abs(alpha0) ** 2 * (1 - np.cos(rate * (ki - k) * t))))
        )
    return 1.0 - total


def bisect_crossing(f, lo, hi):
    """Independent oracle: bisection root-find for f(t) = 0."""
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestMasterEntropy:
    def test_zero_at_start(self):
        assert models.master_linear_entropy(0.0, params(Model.MASTER)) == 0.0

    def test_frozen_value(self):
        # high-precision evaluation of 1 - 1/(1 + 2(1 - e^-1))
        got = models.master_linear_entropy(0.5, params(Model.MASTER, nbar=1.0))
        assert got == pytest.approx(0.55835092287577, abs=1e-13)

    def test_plateau(self):
        got = models.master_linear_entropy(50.0, params(Model.MASTER, nbar=25.0))
        assert got == pytest.approx(50.0 / 51.0, abs=1e-9)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            models.master_linear_entropy(-0.1, params(Model.MASTER))

    def test_independent_of_alpha0(self):
        a = models.master_linear_entropy(0.7, params(Model.MASTER, alpha0=5.0))
        b = models.master_linear_entropy(0.7, params(Model.MASTER, alpha0=0.3))
        assert a == b


class TestMasterSolutionParams:
    def test_initial(self):
        alpha_t, nbar_t = models.master_solution_params(0.0, params(Model.MASTER, alpha0=2.0))
        assert alpha_t == 2.0 and nbar_t == 0.0

    def test_half_amplitude_at_ln2(self):
        p = params(Model.MASTER, alpha0=5.0, nbar=2.0)
        alpha_t, nbar_t = models.master_solution_params(math.log(2.0), p)
        assert alpha_t == pytest.approx(2.5, rel=1e-14)
        assert nbar_t == pytest.approx(0.75 * 2.0, rel=1e-14)

    def test_equilibrium(self):
        alpha_t, nbar_t = models.master_solution_params(40.0, params(Model.MASTER, nbar=3.0))
        assert abs(alpha_t) < 1e-15
        assert nbar_t == pytest.approx(3.0, rel=1e-14)


class TestHeisenbergCoeffs:
    def test_initial(self):
        assert models.heisenberg_coeffs(0.0, params(Model.AMPLITUDE)) == (1.0, 0.0)

    def test_full_swap(self):
        a, b = models.heisenberg_coeffs(math.pi / 2, params(Model.AMPLITUDE))
        assert abs(a) < 1e-15 and b == pytest.approx(-1j, abs=1e-15)

    def test_recurrence(self):
        a, b = models.heisenberg_coeffs(math.pi, params(Model.AMPLITUDE))
        assert a == pytest.approx(-1.0, abs=1e-15) and abs(b) < 1e-12

    @settings(max_examples=50)
    @given(st.floats(0.0, 20.0))
    def test_normalized(self, t):
        a, b = models.heisenberg_coeffs(t, params(Model.AMPLITUDE))
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestPFunction:
    def test_initial_delta_limit(self):
        g = models.p_function_gaussian(0.0, params(Model.AMPLITUDE, alpha0=1.5))
        assert g.width == 0.0 and g.center == 1.5

    def test_full_swap_holds_thermal(self):
        g = models.p_function_gaussian(math.pi / 2, params(Model.AMPLITUDE, nbar=2.0))
        assert g.width == pytest.approx(2.0, abs=1e-14)
        assert abs(g.center) < 1e-15

    def test_zero_temperature_width(self):
        p = params(Model.AMPLITUDE, nbar=0.0)
        for t in (0.0, 0.3, 1.0, 2.5):
            assert models.p_function_gaussian(t, p).width == 0.0

    def test_width_bounds(self):
        p = params(Model.AMPLITUDE, nbar=3.0, alpha0=2.0)
        for t in np.linspace(0.0, 4.0, 50):
            g = models.p_function_gaussian(float(t), p)
            assert 0.0 <= g.width <= 3.0
            assert abs(g.center) <= 2.0 + 1e-12


class TestAmplitudeEntropy:
    def test_recurrence_zeros(self):
        p = params(Model.AMPLITUDE, nbar=2.0, rate=1.3)
        for m in (1, 2, 3):
            assert models.amplitude_linear_entropy(m * math.pi / 1.3, p) <= 1e-12

    def test_swap_value(self):
        got = models.amplitude_linear_entropy(math.pi / 2, params(Model.AMPLITUDE, nbar=1.0))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_max_equals_master_plateau(self):
        p = params(Model.AMPLITUDE, nbar=25.0)
        ts = np.linspace(0.0, math.pi, 1001)
        assert models.amplitude_linear_entropy(ts, p).max() == pytest.approx(
            50.0 / 51.0, abs=1e-9
        )

    def test_periodicity(self):
        p = params(Model.AMPLITUDE, nbar=1.5, rate=1.0)
        ts = np.linspace(0.0, 3.0, 1000)
        shift = models.amplitude_linear_entropy(ts + math.pi, p)
        assert np.abs(shift - models.amplitude_linear_entropy(ts, p)).max() <= 1e-12


class TestKerrEntropy:
    def test_zero_at_start(self):
        assert models.kerr_linear_entropy(0.0, params(Model.KERR)) <= 1e-12

    def test_recurrence(self):
        p = params(Model.KERR, nbar=1.0, rate=1.0)
        assert models.kerr_linear_entropy(2.0 * math.pi, p) <= 1e-12

    def test_frozen_half_period_value(self):
        # oracle: brute-force double sum; even/odd parity masses 5/9 and 4/9
        oracle = brute_kerr_double_sum(math.pi, 1.0, 1.0)
        closed = (4.0 / 9.0) * (1.0 - math.exp(-4.0))
        assert oracle == pytest.approx(closed, abs=1e-12)
        got = models.kerr_linear_entropy(math.pi, params(Model.KERR, nbar=1.0, alpha0=1.0))
        assert got == pytest.approx(closed, abs=1e-13)

    @pytest.mark.parametrize("alpha0,nbar", [(1.0, 1.0), (1.5, 2.0), (0.5, 0.3)])
    def test_matches_literal_double_sum(self, alpha0, nbar):
        p = params(Model.KERR, alpha0=alpha0, nbar=nbar)
        for t in (0.3, 1.1, 2.5, 4.0):
            want = brute_kerr_double_sum(t, alpha0, nbar)
            assert models.kerr_linear_entropy(t, p) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("nbar", [1e4, 1e6])
    def test_large_nbar(self, nbar):
        series = models.entropy_series(
            params(Model.KERR, alpha0=5.0, nbar=nbar), np.linspace(0.0, 3.0, 2000)
        )
        assert series.zeta[0] == 0.0
        # no order n <= 100 is resonant at t = 1, so every s_n is O(nbar^2) and
        # zeta = 1 - exp(-x) I_0(x) at x = 2 |alpha0|^2, up to O(1/nbar^2)
        got = models.kerr_linear_entropy(1.0, params(Model.KERR, alpha0=5.0, nbar=nbar))
        want = 1.0 - math.exp(-50.0) * float(np.i0(50.0))
        assert got == pytest.approx(want, abs=10.0 / nbar**2)

    def test_periodicity(self):
        p = params(Model.KERR, nbar=1.5, rate=1.3)
        ts = np.linspace(0.0, 2.0, 1000)
        shift = models.kerr_linear_entropy(ts + 2.0 * math.pi / 1.3, p)
        assert np.abs(shift - models.kerr_linear_entropy(ts, p)).max() <= 1e-12

    def test_refuses_alpha0_beyond_bessel_order_limit(self):
        # 9 sqrt(2) 1e5 + 32 orders is above MAX_BESSEL_ORDER = 2^20
        with pytest.raises(MiniEnvError, match="Bessel orders"):
            models.kerr_linear_entropy(1.0, params(Model.KERR, alpha0=1e5))

    def test_nbar_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            models.kerr_linear_entropy(1.0, params(Model.KERR, nbar=1e200))

    def test_short_time_quadratic(self):
        # Richardson extrapolation of zeta/t^2; the limit is the curvature
        # 2 |alpha0|^2 rate^2 nbar (nbar + 1)
        p = params(Model.KERR, nbar=1.0, alpha0=1.0)
        t0 = 2e-3
        ratios = [
            models.kerr_linear_entropy(t0 / 2**i, p) / (t0 / 2**i) ** 2 for i in range(3)
        ]
        extr1 = (4 * ratios[1] - ratios[0]) / 3
        extr2 = (4 * ratios[2] - ratios[1]) / 3
        assert abs(extr1 - extr2) <= 1e-5
        assert extr2 == pytest.approx(4.0, rel=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(0.0, 6.0),
        st.floats(0.1, 4.0),
        st.floats(0.2, 3.0),
        st.floats(0.1, 2.0),
    )
    def test_bounds(self, t, nbar, alpha_mag, rate):
        p = params(Model.KERR, alpha0=alpha_mag, nbar=nbar, rate=rate)
        z = models.kerr_linear_entropy(t, p)
        assert 0.0 <= z <= 2 * nbar / (1 + 2 * nbar) + 1e-12


class TestSharedStructure:
    def test_matched_argument_identity(self):
        nbar = 3.0
        p1 = params(Model.MASTER, nbar=nbar)
        p2 = params(Model.AMPLITUDE, nbar=nbar)
        for t1 in (0.05, 0.3, 1.0, 2.0):
            x = 2 * nbar * (1 - math.exp(-2 * t1))
            t2 = math.asin(math.sqrt(x / (2 * nbar)))
            assert models.master_linear_entropy(t1, p1) == pytest.approx(
                models.amplitude_linear_entropy(t2, p2), abs=1e-14
            )

    def test_zero_temperature_all_models(self):
        ts = np.linspace(0.0, 10.0, 300)
        for model in Model:
            z = models.linear_entropy_of_model(ts, params(model, nbar=0.0))
            assert np.abs(z).max() <= 1e-14


class TestDecoherenceTimes:
    def test_estimates(self):
        assert models.decoherence_time_estimate(
            params(Model.MASTER, nbar=25.0)
        ) == pytest.approx(0.01, rel=1e-14)
        assert models.decoherence_time_estimate(
            params(Model.AMPLITUDE, nbar=25.0)
        ) == pytest.approx(1.0 / math.sqrt(50.0), rel=1e-14)
        assert models.decoherence_time_estimate(
            params(Model.KERR, alpha0=5.0, nbar=25.0)
        ) == pytest.approx(0.008, rel=1e-14)
        # the printed short-time estimate for alpha0=5, nbar=1 evaluates to 0.04
        assert models.decoherence_time_estimate(
            params(Model.KERR, alpha0=5.0, nbar=1.0)
        ) == pytest.approx(0.04, rel=1e-14)

    def test_no_decoherence_at_zero_temperature(self):
        assert models.decoherence_time_estimate(params(Model.MASTER, nbar=0.0)) == math.inf
        assert models.decoherence_time_estimate(
            params(Model.KERR, alpha0=0.0, nbar=2.0)
        ) == math.inf

    def test_measured_master_crossing(self):
        p = params(Model.MASTER, nbar=25.0)
        series = models.entropy_series(p, np.linspace(0.0, 0.12, 6001))
        measured = models.measured_decoherence_time(series)
        # oracle: bisection on the closed form against the crossing target
        target = (1 - math.exp(-1)) * 50.0 / 51.0
        oracle = bisect_crossing(
            lambda t: models.master_linear_entropy(t, p) - target, 0.0, 0.12
        )
        assert oracle == pytest.approx(0.01656833321580896, abs=1e-12)
        assert measured == pytest.approx(oracle, abs=1e-8)
        assert 1.0 / 3.0 <= measured / 0.01 <= 3.0

    def test_measured_amplitude_crossing(self):
        p = params(Model.AMPLITUDE, nbar=25.0)
        series = models.entropy_series(p, np.linspace(0.0, 0.5, 8001))
        measured = models.measured_decoherence_time(series)
        target = (1 - math.exp(-1)) * 50.0 / 51.0
        oracle = bisect_crossing(
            lambda t: models.amplitude_linear_entropy(t, p) - target, 0.0, 0.5
        )
        assert oracle == pytest.approx(0.1815325445884356, abs=1e-12)
        assert measured == pytest.approx(oracle, abs=1e-7)
        assert 1.0 / 3.0 <= measured / (1.0 / math.sqrt(50.0)) <= 3.0

    def test_flat_series_never_crosses(self):
        p = params(Model.MASTER, nbar=0.0)
        series = models.entropy_series(p, np.linspace(0.0, 2.0, 50))
        assert models.measured_decoherence_time(series) is None


class TestModelParams:
    @pytest.mark.parametrize("field,value", [
        ("alpha0", complex(1.0, math.nan)), ("nbar", math.inf),
        ("rate", math.nan),
    ])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(alpha0=1.0, nbar=1.0, rate=1.0, model=Model.KERR)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**kwargs)


class TestEntropySeries:
    def test_rejects_descending_grid(self):
        p = params(Model.MASTER)
        with pytest.raises(ValueError):
            EntropySeries(np.array([0.0, 2.0, 1.0]), np.zeros(3), Model.MASTER, p)

    def test_rejects_out_of_band_values(self):
        p = params(Model.MASTER, nbar=1.0)
        with pytest.raises(ValueError):
            EntropySeries(np.array([0.0, 1.0]), np.array([0.0, 0.9]), Model.MASTER, p)

    def test_rejects_nonzero_start(self):
        p = params(Model.MASTER, nbar=1.0)
        with pytest.raises(ValueError):
            EntropySeries(np.array([0.0, 1.0]), np.array([1e-6, 0.5]), Model.MASTER, p)

    def test_rejects_non_finite_values(self):
        p = params(Model.MASTER, nbar=1.0)
        with pytest.raises(NumericalContractError):
            EntropySeries(np.array([0.0, 1.0]), np.array([0.0, np.nan]), Model.MASTER, p)

    def test_series_construction(self):
        p = params(Model.AMPLITUDE, nbar=2.0)
        ts = np.linspace(0.0, 3.0, 100)
        series = models.entropy_series(p, ts)
        assert series.zeta[0] == 0.0
        assert series.model is Model.AMPLITUDE
        assert np.all(series.zeta >= 0.0)
