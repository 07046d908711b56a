import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minienv import fock, states
from minienv.errors import CutoffTooSmallError

complex_amplitudes = st.complex_numbers(
    max_magnitude=2.5, allow_nan=False, allow_infinity=False
)


class TestCoherentState:
    def test_vacuum(self):
        rho = states.coherent_state(states.CoherentSpec(0.0, 5))
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.entries, expected)

    def test_mean_occupation_is_poisson_mean(self):
        rho = states.coherent_state(states.CoherentSpec(1.0, 30))
        mean = float((np.diag(rho.entries).real * np.arange(31)).sum())
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_min_cutoff_alpha5(self):
        # independent oracle: cumulative Poisson scan at |alpha|^2 = 25
        a2, term, cum, c = 25.0, math.exp(-25.0), math.exp(-25.0), 0
        while 1.0 - cum >= 1e-6:
            c += 1
            term *= a2 / c
            cum += term
        assert c == 52
        assert states.min_cutoff_for_coherent(5.0, 1e-6) == c
        states.coherent_state(states.CoherentSpec(5.0, c), tol=1e-6)
        with pytest.raises(CutoffTooSmallError):
            states.coherent_state(states.CoherentSpec(5.0, c - 1), tol=1e-6)

    def test_min_cutoff_scan_beyond_exp_underflow(self):
        # exp(-900) underflows to 0, so the search must not stop on it
        c = states.min_cutoff_for_coherent(30.0, 1e-10)
        assert states.coherent_tail(30.0, c) < 1e-10 <= states.coherent_tail(30.0, c - 1)

    @pytest.mark.parametrize("alpha", [27.0, 30.0, 100.0])
    def test_min_cutoff_settled_by_direct_tail(self, alpha):
        # at |alpha| = 100 the summed mass alone stops at 10640, whose tail is 1.15e-10
        c = states.min_cutoff_for_coherent(alpha, 1e-10)
        assert states.coherent_tail(alpha, c) < 1e-10 <= states.coherent_tail(alpha, c - 1)

    def test_min_cutoff_unresolvable_tolerance(self):
        # 1 - sum p_n cannot resolve 1e-30; the directly summed tail can
        c = states.min_cutoff_for_coherent(5.0, 1e-30)
        assert states.coherent_tail(5.0, c) < 1e-30 <= states.coherent_tail(5.0, c - 1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_min_cutoff_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            states.min_cutoff_for_coherent(2.0, tol)

    def test_tail_below_the_mode_is_one(self):
        # every kept term is smaller than the first discarded one, which underflows
        assert states.coherent_tail(30.0, 0) == 1.0
        # the first discarded term is 6e-303, a normal float: the sum goes on past the mode
        assert states.coherent_tail(27.25, 8) == pytest.approx(1.0, abs=1e-12)

    def test_tail_gate_refuses_cutoff_far_below_the_mode(self):
        with pytest.raises(CutoffTooSmallError):
            states.coherent_state(states.CoherentSpec(30.0, 0))

    def test_trace_deficit_equals_tail(self):
        spec = states.CoherentSpec(2.0, 12)
        rho = states.coherent_state(spec, tol=1.0)
        deficit = 1.0 - float(np.trace(rho.entries).real)
        assert deficit == pytest.approx(spec.tail_mass, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(complex_amplitudes)
    def test_hermitian_and_psd(self, alpha):
        rho = states.coherent_state(states.CoherentSpec(alpha, 40))
        assert rho.hermiticity_defect() <= 1e-14
        assert fock.min_eigenvalue(rho) >= -1e-12


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        rho = states.thermal_state(states.ThermalSpec(0.0, 4))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.entries, expected)

    def test_purity_geometric_series(self):
        rho = states.thermal_state(states.ThermalSpec(1.0, 60))
        assert fock.purity(rho) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_first_weights(self):
        rho = states.thermal_state(states.ThermalSpec(1.0, 60))
        assert rho.entries[0, 0].real == pytest.approx(0.5, abs=1e-15)
        assert rho.entries[1, 1].real == pytest.approx(0.25, abs=1e-15)

    def test_tail_formula(self):
        spec = states.ThermalSpec(1.7, 33)
        assert spec.tail_mass == pytest.approx((1.7 / 2.7) ** 34, abs=1e-14)
        weights = states.thermal_weights(1.7, 33)
        assert weights.sum() == pytest.approx(1.0 - spec.tail_mass, abs=1e-14)

    def test_mean_matches_nbar(self):
        for nbar in (0.4, 1.0, 6.0):
            cutoff = states.min_cutoff_for_thermal(nbar, 1e-10)
            w = states.thermal_weights(nbar, cutoff)
            mean = float((w * np.arange(cutoff + 1)).sum())
            assert abs(mean - nbar) <= 1e-8 * (1.0 + nbar)

    def test_rejects_small_cutoff(self):
        with pytest.raises(CutoffTooSmallError):
            states.thermal_state(states.ThermalSpec(25.0, 10))


class TestDisplacedThermal:
    def test_zero_displacement_is_thermal(self):
        direct = states.thermal_state(states.ThermalSpec(0.8, 40))
        displaced = states.displaced_thermal_state(0.0, 0.8, 40)
        assert np.abs(direct.entries - displaced.entries).max() <= 1e-14

    def test_displaced_vacuum_matches_coherent(self):
        coherent = states.coherent_state(states.CoherentSpec(2.0, 40))
        displaced = states.displaced_thermal_state(2.0, 0.0, 40)
        assert fock.trace_distance(coherent, displaced) <= 1e-12

    def test_purity_independent_of_displacement(self):
        rho = states.displaced_thermal_state(3.0, 0.5, 60, tol=1e-8)
        assert fock.purity(rho) == pytest.approx(0.5, abs=1e-8)

    def test_displacement_operator_unitary(self):
        disp = states.displacement_operator(1.3 - 0.4j, 30).entries
        assert np.abs(disp @ disp.conj().T - np.eye(31)).max() <= 1e-13

    def test_rejects_small_cutoff(self):
        with pytest.raises(CutoffTooSmallError):
            states.displaced_thermal_state(5.0, 1.0, 8)


class TestCoherentOverlap:
    def test_equal_amplitudes(self):
        assert states.coherent_overlap(1.2 + 0.3j, 1.2 + 0.3j) == pytest.approx(1.0)

    def test_vacuum_against_unit(self):
        assert states.coherent_overlap(0.0, 1.0) == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )

    @settings(max_examples=50)
    @given(complex_amplitudes, complex_amplitudes)
    def test_magnitude_identity(self, alpha, beta):
        overlap = states.coherent_overlap(alpha, beta)
        assert abs(overlap) ** 2 == pytest.approx(
            math.exp(-abs(alpha - beta) ** 2), rel=1e-10, abs=1e-12
        )

    def test_matches_truncated_inner_product(self):
        alpha, beta = 1.1 + 0.2j, -0.4 + 0.9j
        ca = states.coherent_amplitudes(alpha, 60)
        cb = states.coherent_amplitudes(beta, 60)
        assert np.vdot(ca, cb) == pytest.approx(
            states.coherent_overlap(alpha, beta), abs=1e-12
        )
