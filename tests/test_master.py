import math

import numpy as np
import pytest

from minienv import fock, master, states
from minienv.errors import MiniEnvError, NumericalContractError
from minienv.models import Model, ModelParams


def coherent_rho(alpha0, cutoff):
    return states.coherent_state(states.CoherentSpec(alpha0, cutoff))


class TestRhs:
    def test_thermal_state_is_stationary(self):
        nbar = 1.4
        cutoff = states.min_cutoff_for_thermal(nbar, 1e-13)
        cfg = master.LindbladConfig(gamma=0.7, nbar=nbar, cutoff=cutoff)
        rho = states.thermal_state(states.ThermalSpec(nbar, cutoff), tol=1e-10)
        rhs = master.lindblad_rhs(rho, cfg)
        assert np.abs(rhs.entries).max() <= 1e-10

    def test_vacuum_stationary_at_zero_temperature(self):
        cfg = master.LindbladConfig(gamma=1.0, nbar=0.0, cutoff=10)
        vac = np.zeros((11, 11), dtype=complex)
        vac[0, 0] = 1.0
        rhs = master.lindblad_rhs(fock.single_mode(vac), cfg)
        assert np.abs(rhs.entries).max() == 0.0

    def test_traceless_for_random_state(self):
        rng = np.random.default_rng(5)
        dim = 20
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = m @ m.conj().T
        rho = fock.single_mode(rho / np.trace(rho).real)
        cfg = master.LindbladConfig(gamma=1.0, nbar=0.7, cutoff=dim - 1)
        rhs = master.lindblad_rhs(rho, cfg)
        assert abs(np.trace(rhs.entries)) <= 1e-12 * dim
        assert rhs.hermiticity_defect() <= 1e-13

    def test_rejects_dimension_mismatch(self):
        cfg = master.LindbladConfig(gamma=1.0, nbar=0.0, cutoff=10)
        with pytest.raises(ValueError):
            master.lindblad_rhs(fock.identity(5), cfg)


class TestEvolve:
    def test_zero_temperature_purity_preserved(self):
        cutoff = 40
        cfg = master.LindbladConfig(gamma=1.0, nbar=0.0, cutoff=cutoff)
        snaps = master.evolve_master(coherent_rho(2.0, cutoff), cfg,
                                     np.linspace(0.0, 3.0, 30))
        for snap in snaps:
            assert abs(fock.purity(snap) - 1.0) <= 1e-7

    def test_entropy_matches_closed_form(self):
        cutoff = 40
        cfg = master.LindbladConfig(gamma=1.0, nbar=1.0, cutoff=cutoff)
        times = np.linspace(0.0, 3.0, 60)
        snaps = master.evolve_master(coherent_rho(2.0, cutoff), cfg, times)
        zeta = np.array([1.0 - fock.purity(s) for s in snaps])
        p = ModelParams(2.0, 1.0, 1.0, Model.MASTER)
        from minienv.models import master_linear_entropy

        assert np.abs(zeta - master_linear_entropy(times, p)).max() < 1e-5

    def test_amplitude_decay_law(self):
        cutoff = 40
        cfg = master.LindbladConfig(gamma=1.0, nbar=1.0, cutoff=cutoff)
        times = np.linspace(0.0, 2.0, 20)
        snaps = master.evolve_master(coherent_rho(2.0, cutoff), cfg, times)
        a = fock.annihilation(cutoff).entries
        for t, snap in zip(times, snaps):
            amp = np.trace(a @ snap.entries)
            assert abs(amp - 2.0 * math.exp(-t)) <= 1e-6

    def test_snapshots_stay_physical(self):
        cutoff = master.default_cutoff(1.5, 2.0)
        cfg = master.LindbladConfig(gamma=1.0, nbar=2.0, cutoff=cutoff)
        snaps = master.evolve_master(coherent_rho(1.5, cutoff), cfg,
                                     np.linspace(0.0, 2.0, 15))
        trace0 = fock.trace(snaps[0]).real
        for snap in snaps:
            assert snap.hermiticity_defect() <= 1e-9
            assert abs(fock.trace(snap).real - trace0) < 1e-8
            assert fock.min_eigenvalue(snap) >= -1e-8

    @pytest.mark.parametrize("nbar", [0.0, 1.3])
    def test_blocks_match_dense_generator(self, nbar):
        cutoff = 9
        d = cutoff + 1
        cfg = master.LindbladConfig(gamma=0.8, nbar=nbar, cutoff=cutoff)
        basis = np.eye(d * d).reshape(d * d, d, d)
        dense = np.column_stack([
            master.lindblad_rhs(fock.single_mode(unit), cfg).entries.ravel() for unit in basis
        ])
        rng = np.random.default_rng(7)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0).real
        times = np.array([0.2, 0.5, 1.7])
        snaps = master.evolve_master(fock.single_mode(rho0), cfg, times)
        for t, snap in zip(times, snaps):
            ref = master.expm(dense * t) @ rho0.ravel()
            assert np.abs(snap.entries.ravel() - ref).max() <= 1e-12

    def test_rejects_non_hermitian_initial_state(self):
        cfg = master.LindbladConfig(gamma=1.0, nbar=1.0, cutoff=3)
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(NumericalContractError):
            master.evolve_master(fock.single_mode(rho), cfg, [0.0, 1.0])

    @pytest.mark.parametrize("points", [2, 300])
    def test_refuses_oversized_run(self, points):
        # |alpha0| = 30 at nbar = 0 needs d = 1098: one block step alone is d^4 = 1.5e12
        cfg = master.LindbladConfig(gamma=1.0, nbar=0.0, cutoff=1097)
        with pytest.raises(MiniEnvError, match="dimension 1098"):
            master.evolve_master(fock.identity(1097), cfg, np.linspace(0.0, 3.0, points))

    def test_monotone_rise_to_plateau(self):
        cutoff = master.default_cutoff(1.5, 2.0)
        cfg = master.LindbladConfig(gamma=1.0, nbar=2.0, cutoff=cutoff)
        snaps = master.evolve_master(coherent_rho(1.5, cutoff), cfg,
                                     np.linspace(0.0, 2.5, 40))
        zeta = np.array([1.0 - fock.purity(s) for s in snaps])
        assert np.diff(zeta).min() >= -1e-8


class TestExpm:
    def test_matches_eigh_route_for_unitary_propagator(self):
        rng = np.random.default_rng(3)
        for dim, t in ((6, 0.3), (20, 4.0)):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (m + m.conj().T)
            w, v = np.linalg.eigh(h)
            ref = (v * np.exp(-1j * w * t)) @ v.conj().T
            assert np.abs(master.expm(-1j * t * h) - ref).max() <= 1e-12

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(master.expm(np.zeros((4, 4))), np.eye(4))


class TestClosedFormState:
    def test_initial_state(self):
        p = ModelParams(2.0, 1.0, 1.0, Model.MASTER)
        rho = master.closed_form_master_state(0.0, p, 40)
        assert fock.trace_distance(rho, coherent_rho(2.0, 40)) <= 1e-10

    def test_matches_rk4_trajectory(self):
        cutoff = 40
        p = ModelParams(2.0, 1.0, 1.0, Model.MASTER)
        cfg = master.LindbladConfig(gamma=1.0, nbar=1.0, cutoff=cutoff)
        rho0 = coherent_rho(2.0, cutoff)
        for t in (0.1, 0.5, 1.0):
            snap = master.evolve_master(rho0, cfg, np.array([t]))[-1]
            ref = master.closed_form_master_state(t, p, cutoff)
            assert fock.trace_distance(snap, ref) < 1e-5

    def test_equilibrium_limit(self):
        # the residual displacement exp(-rate t) alpha0 dominates the distance;
        # at rate*t = 15 it has shrunk below the 1e-6 target
        p = ModelParams(2.0, 1.0, 1.0, Model.MASTER)
        rho = master.closed_form_master_state(15.0, p, 40)
        th = states.thermal_state(states.ThermalSpec(1.0, 40), tol=1e-10)
        assert fock.trace_distance(rho, th) < 1e-6


class TestDefaults:
    def test_default_cutoff_covers_transient_and_steady_state(self):
        assert master.default_cutoff(2.0, 1.0) >= 17
        assert master.default_cutoff(0.0, 25.0) >= states.min_cutoff_for_thermal(25.0, 1e-10)

    def test_default_cutoff_covers_coherent_tail_at_zero_temperature(self):
        for alpha0 in (0.5, 2.0, 5.0, 2.0 + 1.0j):
            cutoff = master.default_cutoff(alpha0, 0.0)
            assert states.coherent_tail(alpha0, cutoff) < 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            master.LindbladConfig(gamma=0.0, nbar=1.0, cutoff=10)
        with pytest.raises(ValueError):
            master.LindbladConfig(gamma=1.0, nbar=-0.5, cutoff=10)
