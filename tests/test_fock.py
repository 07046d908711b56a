import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minienv import fock
from minienv.errors import NumericalContractError


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return fock.single_mode(rho / np.trace(rho).real)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


class TestAnnihilation:
    def test_cutoff_one(self):
        op = fock.annihilation(1)
        assert np.array_equal(op.entries, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sqrt_two_element(self):
        op = fock.annihilation(2)
        assert op.entries[1, 2] == math.sqrt(2.0)
        assert op.entries[0, 1] == 1.0

    def test_rejects_cutoff_below_one(self):
        with pytest.raises(ValueError):
            fock.annihilation(0)

    def test_commutator_identity_in_bulk(self):
        # in binary64 (sqrt 2)^2 rounds to 2 + 4.4e-16, so the bulk defect is
        # machine-epsilon scale rather than an exact zero
        a = fock.annihilation(20).entries
        ad = a.conj().T
        comm = a @ ad - ad @ a
        defect = np.abs((comm - np.eye(21))[:20, :20]).max()
        assert defect <= 1e-14
        # the last diagonal entry deviates by design of the truncation
        assert comm[20, 20].real == pytest.approx(-20.0, abs=1e-12)

    def test_number_operator_from_products(self):
        a = fock.annihilation(8)
        n = a.dagger().entries @ a.entries
        assert np.abs(np.diag(n).real - np.arange(9)).max() <= 1e-13


class TestTensor:
    def test_identity_tensor_identity(self):
        prod = fock.tensor(fock.identity(1), fock.identity(2))
        assert prod.per_mode_dims == (2, 3)
        assert np.array_equal(prod.entries, np.eye(6))

    def test_acts_on_mode_a_only(self):
        a = fock.annihilation(1)
        op = fock.tensor(a, fock.identity(1))
        ket_10 = np.zeros(4)
        ket_10[2] = 1.0  # |1>|0> with mode A as the slow index
        out = op.entries @ ket_10
        expected = np.zeros(4)
        expected[0] = 1.0  # |0>|0>
        assert np.abs(out - expected).max() == 0.0

    def test_rejects_two_mode_input(self):
        joint = fock.tensor(fock.identity(1), fock.identity(1))
        with pytest.raises(ValueError):
            fock.tensor(joint, fock.identity(1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        x = fock.single_mode(random_hermitian(rng, 4))
        y = fock.single_mode(random_hermitian(rng, 4))
        lhs = fock.trace(fock.tensor(x, y))
        rhs = fock.trace(x) * fock.trace(y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_associative_on_dim2_factors(self):
        rng = np.random.default_rng(7)
        x, y, z = (random_hermitian(rng, 2) for _ in range(3))
        left = np.kron(np.kron(x, y), z)
        right = np.kron(x, np.kron(y, z))
        assert np.abs(left - right).max() <= 1e-12


class TestPartialTrace:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(2, 5))
    def test_product_state_returns_a_factor(self, seed, da, db):
        rng = np.random.default_rng(seed)
        ra = random_density(rng, da)
        rb = random_density(rng, db)
        reduced = fock.partial_trace_b(fock.tensor(ra, rb))
        assert np.abs(reduced.entries - ra.entries).max() <= 1e-12

    def test_bell_state(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
        rho = fock.two_mode(np.outer(psi, psi.conj()), (2, 2))
        reduced = fock.partial_trace_b(rho)
        assert np.abs(reduced.entries - 0.5 * np.eye(2)).max() <= 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        rho = fock.tensor(random_density(rng, 3), random_density(rng, 4))
        assert abs(fock.trace(fock.partial_trace_b(rho)) - fock.trace(rho)) <= 1e-12

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            fock.partial_trace_b(fock.identity(3))

    def test_rejects_non_hermitian(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 3] = 1.0
        with pytest.raises(NumericalContractError):
            fock.partial_trace_b(fock.two_mode(mat, (2, 2)))

    def test_swap_point_purity_of_exchange_state(self):
        # full swap: mode A holds the environment's thermal state, purity 1/(1+2nbar)
        from minienv.joint import AmplitudeEvolver, JointConfig
        from minienv.models import Model

        cfg = JointConfig(24, 24, 1.0, Model.AMPLITUDE)
        evolver = AmplitudeEvolver(1.0, 1.0, cfg)
        da, db = cfg.dims
        psi = evolver.component_vectors(math.pi / 2)
        joint_rho = np.zeros((da * db, da * db), dtype=complex)
        for k, w in enumerate(evolver.weights):
            joint_rho += w * np.outer(psi[:, k], psi[:, k].conj())
        reduced = fock.partial_trace_b(fock.two_mode(joint_rho, (da, db)))
        assert fock.purity(reduced) == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestPurity:
    def test_pure_coherent_state(self):
        from minienv.states import CoherentSpec, coherent_state

        rho = coherent_state(CoherentSpec(2.0, 40))
        assert fock.purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_one(self):
        from minienv.states import ThermalSpec, thermal_state

        rho = thermal_state(ThermalSpec(1.0, 45))  # tail (1/2)^46 < 1e-12
        assert fock.purity(rho) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_thermal_twenty_five(self):
        from minienv.states import ThermalSpec, thermal_state

        cutoff = 705  # geometric tail below 1e-12
        rho = thermal_state(ThermalSpec(25.0, cutoff))
        assert fock.purity(rho) == pytest.approx(1.0 / 51.0, abs=1e-9)

    def test_rejects_non_hermitian(self):
        mat = np.eye(3, dtype=complex) / 3.0
        mat[0, 2] = 1e-3
        with pytest.raises(NumericalContractError):
            fock.purity(fock.single_mode(mat))

    def test_rejects_wrong_trace(self):
        with pytest.raises(NumericalContractError):
            fock.purity(fock.single_mode(0.25 * np.eye(2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_bounds(self, seed, dim):
        rho = random_density(np.random.default_rng(seed), dim)
        pur = fock.purity(rho)
        assert 1.0 / dim - 1e-9 <= pur <= 1.0 + 1e-9


class TestTraceLinearity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, 8)
        y = random_hermitian(rng, 8)
        a, b = rng.standard_normal(2)
        lhs = np.trace(a * x + b * y)
        rhs = a * np.trace(x) + b * np.trace(y)
        assert abs(lhs - rhs) <= 1e-12


class TestOperatorValidation:
    def test_rejects_nonfinite(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 0] = np.nan
        with pytest.raises(NumericalContractError):
            fock.single_mode(mat)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            fock.FockOperator(np.eye(6), (2, 2))

    def test_entries_read_only(self):
        op = fock.identity(3)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0
