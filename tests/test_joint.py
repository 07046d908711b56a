import math

import numpy as np
import pytest

from minienv import fock, joint, states
from minienv.errors import CutoffTooSmallError
from minienv.models import Model, ModelParams, amplitude_linear_entropy, kerr_linear_entropy


def amplitude_cfg(cut_a=24, cut_b=24, coupling=1.0):
    return joint.JointConfig(cut_a, cut_b, coupling, Model.AMPLITUDE)


def kerr_cfg(cut_a=30, cut_b=40, coupling=1.0):
    return joint.JointConfig(cut_a, cut_b, coupling, Model.KERR)


class TestJointHamiltonian:
    def test_amplitude_single_excitation_block(self):
        h = joint.build_joint_hamiltonian(amplitude_cfg(1, 1, coupling=2.0))
        expected = np.zeros((4, 4))
        expected[1, 2] = expected[2, 1] = 2.0  # |01> <-> |10| only
        assert np.abs(h.entries - expected).max() == 0.0

    def test_kerr_diagonal_entries(self):
        h = joint.build_joint_hamiltonian(kerr_cfg(4, 4, coupling=1.5))
        idx = 2 * 5 + 3  # occupations (2, 3), mode A slow
        diag = np.diag(h.entries).real
        assert diag[idx] == pytest.approx(1.5 * 6.0, abs=0.0)
        assert np.abs(h.entries - np.diag(diag)).max() == 0.0

    def test_amplitude_conserves_total_excitation(self):
        cfg = amplitude_cfg(15, 15)
        h = joint.build_joint_hamiltonian(cfg).entries
        da, db = cfg.dims
        n_total = np.kron(np.diag(np.arange(da, dtype=float)), np.eye(db)) + np.kron(
            np.eye(da), np.diag(np.arange(db, dtype=float))
        )
        assert np.abs(h @ n_total - n_total @ h).max() < 1e-12

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            joint.JointConfig(80, 80, 1.0, Model.AMPLITUDE)

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv(joint.MAX_JOINT_DIM_ENV, "8000")
        joint.JointConfig(80, 80, 1.0, Model.KERR)
        monkeypatch.setenv(joint.MAX_JOINT_DIM_ENV, "100")
        with pytest.raises(ValueError):
            joint.JointConfig(24, 24, 1.0, Model.KERR)

    def test_explicit_cap_field(self):
        joint.JointConfig(80, 80, 1.0, Model.KERR, max_joint_dim=10000)


class TestAmplitudeEvolution:
    def test_initial_state(self):
        cfg = amplitude_cfg()
        rho = joint.AmplitudeEvolver(1.0, 1.0, cfg).reduced_state(0.0)
        ref = states.coherent_state(states.CoherentSpec(1.0, cfg.cutoff_a))
        assert fock.trace_distance(rho, ref) < 1e-7

    def test_recurrence_returns_pure(self):
        rho = joint.AmplitudeEvolver(1.0, 1.0, amplitude_cfg()).reduced_state(math.pi)
        assert fock.purity(rho) == pytest.approx(1.0, abs=1e-6)
        # the returned amplitude carries the half-period sign flip
        a = fock.annihilation(24).entries
        assert np.trace(a @ rho.entries) == pytest.approx(-1.0, abs=1e-6)

    def test_swap_purity(self):
        rho = joint.AmplitudeEvolver(1.0, 1.0, amplitude_cfg()).reduced_state(math.pi / 2.0)
        assert fock.purity(rho) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_entropy_matches_closed_form_on_grid(self):
        nbar = 1.0
        evolver = joint.AmplitudeEvolver(1.0, nbar, amplitude_cfg())
        p = ModelParams(1.0, nbar, 1.0, Model.AMPLITUDE)
        for t in np.linspace(0.0, math.pi, 50):
            brute = 1.0 - fock.purity(evolver.reduced_state(float(t)))
            assert abs(brute - amplitude_linear_entropy(float(t), p)) < 1e-6

    def test_component_purity_time_invariant(self):
        evolver = joint.AmplitudeEvolver(1.0, 1.0, amplitude_cfg())
        norms0 = np.linalg.norm(evolver.component_vectors(0.0), axis=0)
        for t in (0.4, 1.2, 2.7):
            norms = np.linalg.norm(evolver.component_vectors(t), axis=0)
            assert np.abs(norms**4 - norms0**4).max() <= 1e-8

    def test_rejects_oversized_tails(self):
        with pytest.raises(CutoffTooSmallError):
            joint.AmplitudeEvolver(4.0, 1.0, amplitude_cfg(6, 24))
        with pytest.raises(CutoffTooSmallError):
            joint.AmplitudeEvolver(1.0, 20.0, amplitude_cfg(24, 24))


class TestKerrEvolution:
    def test_initial_state(self):
        cfg = kerr_cfg()
        rho = joint.evolve_kerr_reduced(1.0, 1.0, 0.0, cfg)
        ref = states.coherent_state(states.CoherentSpec(1.0, cfg.cutoff_a))
        assert fock.trace_distance(rho, ref) < 1e-7

    def test_zero_temperature_stays_pure(self):
        cfg = kerr_cfg()
        for t in (0.0, 0.8, 2.9, 6.0):
            rho = joint.evolve_kerr_reduced(2.0, 0.0, t, cfg)
            assert 1.0 - fock.purity(rho) < 1e-7

    def test_half_period_entropy(self):
        rho = joint.evolve_kerr_reduced(1.0, 1.0, math.pi, kerr_cfg())
        expected = (4.0 / 9.0) * (1.0 - math.exp(-4.0))
        assert 1.0 - fock.purity(rho) == pytest.approx(expected, abs=1e-8)

    def test_purity_two_routes_agree(self):
        # Fock-matrix purity versus the closed-form overlap double sum
        for alpha0, nbar in ((1.0, 1.0), (2.0, 2.0), (1.5, 0.5)):
            kmax = states.min_cutoff_for_thermal(nbar, 1e-12)
            cutoff_a = states.min_cutoff_for_coherent(alpha0, 1e-12)
            cfg = joint.JointConfig(max(cutoff_a, 10), max(kmax, 1), 1.0, Model.KERR)
            p = ModelParams(alpha0, nbar, 1.0, Model.KERR)
            for t in (0.4, 1.7, 3.9):
                matrix_route = 1.0 - fock.purity(
                    joint.evolve_kerr_reduced(alpha0, nbar, t, cfg)
                )
                sum_route = kerr_linear_entropy(t, p)
                assert abs(matrix_route - sum_route) <= 1e-8

    def test_joint_construction_reduces_to_direct_mixture(self):
        cfg = joint.JointConfig(12, 12, 1.0, Model.KERR)
        for t in (0.0, 0.9, 2.4, 5.5):
            full = joint.evolve_kerr_joint(1.0, 1.0, t, cfg, tail_tol=1e-3)
            reduced = fock.partial_trace_b(full)
            direct = joint.evolve_kerr_reduced(1.0, 1.0, t, cfg, tail_tol=1e-3)
            assert np.abs(reduced.entries - direct.entries).max() <= 1e-10


class TestMeanOccupations:
    def test_amplitude_heisenberg_moments(self):
        cfg = amplitude_cfg()
        p = ModelParams(1.0, 1.0, 1.0, Model.AMPLITUDE)
        from minienv.models import heisenberg_coeffs

        for t in (0.0, 0.4, 1.1, 2.3):
            na, _ = joint.mean_occupation_exchange(1.0, 1.0, t, cfg)
            a_coef, b_coef = heisenberg_coeffs(t, p)
            predicted = abs(a_coef) ** 2 * 1.0 + abs(b_coef) ** 2 * 1.0
            assert abs(na - predicted) < 1e-6

    def test_amplitude_conservation(self):
        cfg = amplitude_cfg()
        na0, nb0 = joint.mean_occupation_exchange(1.0, 1.0, 0.0, cfg)
        for t in (0.5, 1.3, 2.9):
            na, nb = joint.mean_occupation_exchange(1.0, 1.0, t, cfg)
            assert abs((na + nb) - (na0 + nb0)) <= 1e-8

    def test_kerr_no_exchange(self):
        cfg = kerr_cfg(24, 30)
        for t in (0.0, 0.7, 2.2):
            na, nb = joint.mean_occupation_exchange(1.0, 1.0, t, cfg)
            assert abs(na - 1.0) <= 1e-8
            assert abs(nb - 1.0) <= 1e-7
