"""Small-scale invariant and cross-engine checks behind the `validate` command.

Each check is a named callable returning a one-line detail string; the runner
turns exceptions into failures.  Everything runs at reduced scale so the full
suite finishes in well under five minutes.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import fock, joint, master, models, states
from .errors import MiniEnvError
from .models import Model, ModelParams


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_density(rng, dim: int) -> fock.FockOperator:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return fock.single_mode(rho / np.trace(rho).real)


# ---------------------------------------------------------------- fock core

def check_partial_trace_product() -> str:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        ra = _random_density(rng, 4)
        rb = _random_density(rng, 5)
        reduced = fock.partial_trace_b(fock.tensor(ra, rb))
        worst = max(worst, float(np.abs(reduced.entries - ra.entries).max()))
    assert worst <= 1e-12, f"product-state reduction defect {worst:.3e}"
    return f"max entry defect {worst:.2e} over 20 random product states"


def check_purity_bounds() -> str:
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        rho = _random_density(rng, dim)
        pur = fock.purity(rho)
        assert pur <= 1.0 + 1e-9 and pur >= 1.0 / dim - 1e-9, f"purity {pur} out of band"
    return "purity within [1/dim - 1e-9, 1 + 1e-9] for 20 random states"


# ------------------------------------------------------------------- states

def check_state_hermitian_psd() -> str:
    worst_h, worst_e = 0.0, 0.0
    for rho in (
        states.coherent_state(states.CoherentSpec(1.5 + 0.5j, 30)),
        states.thermal_state(states.ThermalSpec(1.7, 70)),
        states.displaced_thermal_state(1.0 - 0.7j, 0.8, 40),
    ):
        worst_h = max(worst_h, rho.hermiticity_defect())
        worst_e = max(worst_e, -fock.min_eigenvalue(rho))
    assert worst_h <= 1e-14, f"hermiticity defect {worst_h:.3e}"
    assert worst_e <= 1e-12, f"negative eigenvalue {worst_e:.3e}"
    return f"hermiticity defect {worst_h:.2e}, min eigenvalue above -{max(worst_e, 0):.2e}"


def check_tail_accounting() -> str:
    worst = 0.0
    for spec, build in (
        (states.CoherentSpec(2.0, 12), states.coherent_state),
        (states.ThermalSpec(1.0, 20), states.thermal_state),
    ):
        rho = build(spec, tol=1.0)
        deficit = 1.0 - float(np.trace(rho.entries).real)
        worst = max(worst, abs(deficit - spec.tail_mass))
    assert worst <= 1e-12, f"tail accounting defect {worst:.3e}"
    return f"trace deficit matches reported tail mass to {worst:.2e}"


def check_thermal_mean() -> str:
    worst = 0.0
    for nbar in (0.3, 1.0, 4.0):
        cutoff = states.min_cutoff_for_thermal(nbar, 1e-10)
        w = states.thermal_weights(nbar, cutoff)
        mean = float((w * np.arange(cutoff + 1)).sum())
        worst = max(worst, abs(mean - nbar) / (1.0 + nbar))
    assert worst <= 1e-8, f"thermal mean defect {worst:.3e}"
    return f"mean occupation matches nbar within {worst:.2e} relative"


def _make_cutoff_guard(lowered_cutoff: int | None) -> Callable[[], str]:
    def check_cutoff_guard() -> str:
        cutoff = lowered_cutoff if lowered_cutoff is not None else \
            states.min_cutoff_for_coherent(2.0, 1e-10)
        rho = states.coherent_state(states.CoherentSpec(2.0, cutoff))
        return f"cutoff {cutoff} passes the tail gate (trace {np.trace(rho.entries).real:.12f})"

    return check_cutoff_guard


# ---------------------------------------------------------- analytic models

def check_entropy_bounds() -> str:
    ts = np.linspace(0.0, 8.0, 400)
    for nbar in (0.5, 2.0, 25.0):
        bound = 2 * nbar / (1 + 2 * nbar) + 1e-12
        for model in Model:
            p = ModelParams(1.5, nbar, 1.0, model)
            z = models.linear_entropy_of_model(ts, p)
            assert np.all(z >= 0) and np.all(z <= bound), f"{model} leaves band at nbar={nbar}"
    return "all three entropies inside [0, 2nbar/(1+2nbar)] on 400-point grids"


def check_zero_temperature() -> str:
    ts = np.linspace(0.0, 6.0, 200)
    worst = 0.0
    for model in Model:
        p = ModelParams(2.0, 0.0, 1.0, model)
        worst = max(worst, float(np.abs(models.linear_entropy_of_model(ts, p)).max()))
    assert worst <= 1e-14, f"nbar=0 entropy {worst:.3e}"
    return f"nbar=0 keeps every model exactly pure (max {worst:.2e})"


def check_periodicity() -> str:
    ts = np.linspace(0.0, 2.0, 1000)
    p2 = ModelParams(1.0, 1.5, 1.3, Model.AMPLITUDE)
    d2 = np.abs(
        models.amplitude_linear_entropy(ts + math.pi / p2.rate, p2)
        - models.amplitude_linear_entropy(ts, p2)
    ).max()
    p3 = ModelParams(1.0, 1.5, 1.3, Model.KERR)
    d3 = np.abs(
        models.kerr_linear_entropy(ts + 2 * math.pi / p3.rate, p3)
        - models.kerr_linear_entropy(ts, p3)
    ).max()
    assert d2 <= 1e-12 and d3 <= 1e-12, f"period defects {d2:.3e}, {d3:.3e}"
    return f"period defects {d2:.2e} (amplitude), {d3:.2e} (kerr) on 1000-point grids"


def check_shared_functional_form() -> str:
    nbar = 3.0
    p1 = ModelParams(1.0, nbar, 1.0, Model.MASTER)
    p2 = ModelParams(1.0, nbar, 1.0, Model.AMPLITUDE)
    worst = 0.0
    for t1 in (0.05, 0.2, 0.7, 2.0):
        x = 2 * nbar * (1 - math.exp(-2 * t1))
        t2 = math.asin(math.sqrt(x / (2 * nbar)))
        worst = max(worst, abs(models.master_linear_entropy(t1, p1)
                               - models.amplitude_linear_entropy(t2, p2)))
    assert worst <= 1e-12, f"form mismatch {worst:.3e}"
    return f"1 - 1/(1+x) forms agree at matched x within {worst:.2e}"


def check_kerr_bessel_weights() -> str:
    worst_sum, worst_i0 = 0.0, 0.0
    for x in (0.02, 2.0, 50.0, 600.0):
        w = models.bessel_weights(x)
        worst_sum = max(worst_sum, abs(w[0] + 2.0 * w[1:].sum() - 1.0))
        worst_i0 = max(worst_i0, abs(w[0] - math.exp(-x) * float(np.i0(x))))
    assert worst_sum <= 1e-15, f"Bessel weight sum defect {worst_sum:.3e}"
    assert worst_i0 <= 1e-15, f"n=0 weight vs exp(-x) I_0(x) defect {worst_i0:.3e}"
    return (f"Bessel weights sum to 1 within {worst_sum:.2e}, n=0 weight matches "
            f"exp(-x) I_0(x) within {worst_i0:.2e}")


def check_kerr_short_time() -> str:
    p = ModelParams(1.0, 1.0, 1.0, Model.KERR)
    t0 = 2e-3
    r = [models.kerr_linear_entropy(t0 / 2 ** i, p) / (t0 / 2 ** i) ** 2 for i in range(3)]
    extr1 = (4 * r[1] - r[0]) / 3
    extr2 = (4 * r[2] - r[1]) / 3
    limit = 2 * abs(p.alpha0) ** 2 * p.rate ** 2 * p.nbar * (p.nbar + 1)
    assert abs(extr2 - extr1) <= 1e-6 * limit, "Richardson extrapolants disagree"
    assert abs(extr2 - limit) <= 1e-4 * limit, f"quadratic coefficient {extr2} vs {limit}"
    return f"zeta/t^2 -> {extr2:.6f} (expected {limit:.6f})"


# ---------------------------------------------------------- master equation

def check_master_fixed_point() -> str:
    nbar = 1.3
    cutoff = states.min_cutoff_for_thermal(nbar, 1e-13)
    cfg = master.LindbladConfig(gamma=0.8, nbar=nbar, cutoff=cutoff)
    rho = states.thermal_state(states.ThermalSpec(nbar, cutoff), tol=1e-10)
    rhs = master.lindblad_rhs(rho, cfg)
    worst = float(np.abs(rhs.entries).max())
    assert worst <= 1e-10, f"thermal state not stationary: {worst:.3e}"
    return f"thermal state is a fixed point within {worst:.2e}"


def check_master_dense_generator() -> str:
    rng = np.random.default_rng(15)
    d = 9
    # column j of the dense d^2 x d^2 generator is the image of the j-th unit matrix
    basis = np.eye(d * d).reshape(d * d, d, d)
    worst = 0.0
    for nbar in (0.0, 1.3):
        cfg = master.LindbladConfig(gamma=0.9, nbar=nbar, cutoff=d - 1)
        dense = np.column_stack([
            master.lindblad_rhs(fock.single_mode(unit), cfg).entries.ravel() for unit in basis
        ])
        rho0 = _random_density(rng, d)
        times = np.array([0.3, 1.1])
        for t, snap in zip(times, master.evolve_master(rho0, cfg, times)):
            ref = master.expm(dense * t) @ rho0.entries.ravel()
            worst = max(worst, float(np.abs(snap.entries.ravel() - ref).max()))
    assert worst <= 1e-12, f"block propagation vs dense generator {worst:.3e}"
    return f"diagonal blocks match the dense {d * d}x{d * d} generator within {worst:.2e}"


def _master_snapshots(alpha0: float, nbar: float, times):
    """Master-engine trajectory of a coherent state at rate 1 and the default cutoff."""
    cutoff = master.default_cutoff(alpha0, nbar)
    cfg = master.LindbladConfig(gamma=1.0, nbar=nbar, cutoff=cutoff)
    rho0 = states.coherent_state(states.CoherentSpec(alpha0, cutoff))
    return master.evolve_master(rho0, cfg, times)


def check_master_monotone_rise() -> str:
    snaps = _master_snapshots(1.5, 2.0, np.linspace(0.0, 2.5, 40))
    zeta = np.array([1.0 - fock.purity(s) for s in snaps])
    drop = float(np.diff(zeta).min())
    assert drop >= -1e-8, f"entropy decreased by {-drop:.3e} before the plateau"
    return f"entropy nondecreasing within grid noise ({max(-drop, 0):.2e})"


def check_master_oracle() -> str:
    nbar, alpha0 = 1.0, 2.0
    times = np.linspace(0.0, 3.0, 40)
    zeta = np.array([1.0 - fock.purity(s) for s in _master_snapshots(alpha0, nbar, times)])
    p = ModelParams(alpha0, nbar, 1.0, Model.MASTER)
    worst = float(np.abs(zeta - models.master_linear_entropy(times, p)).max())
    assert worst < 1e-5, f"master engine vs closed form defect {worst:.3e}"
    return f"master engine entropy matches the closed form within {worst:.2e}"


def check_master_closed_form_state() -> str:
    nbar, alpha0 = 1.0, 2.0
    p = ModelParams(alpha0, nbar, 1.0, Model.MASTER)
    times = (0.1, 0.5, 1.0)
    worst = 0.0
    for t, snap in zip(times, _master_snapshots(alpha0, nbar, times)):
        ref = master.closed_form_master_state(t, p, snap.dim - 1)
        worst = max(worst, fock.trace_distance(snap, ref))
    assert worst < 1e-5, f"trace distance {worst:.3e}"
    return f"master engine state matches the displaced-thermal solution within {worst:.2e}"


# ------------------------------------------------------------- joint engine

def _amplitude_cfg(cut: int = 24) -> joint.JointConfig:
    return joint.JointConfig(cut, cut, 1.0, Model.AMPLITUDE)


def check_joint_unitarity() -> str:
    ev = joint.AmplitudeEvolver(1.0, 1.0, _amplitude_cfg())
    norms0 = np.linalg.norm(ev.component_vectors(0.0), axis=0)
    worst = 0.0
    for t in (0.7, 2.2):
        norms = np.linalg.norm(ev.component_vectors(t), axis=0)
        # squared norm squared is the purity of each pure joint component
        worst = max(worst, float(np.abs(norms ** 4 - norms0 ** 4).max()))
    assert worst <= 1e-8, f"component purity drift {worst:.3e}"
    return f"pure-component purity drift at most {worst:.2e}"


def check_joint_swap_purity() -> str:
    worst = 0.0
    for nbar in (0.5, 1.0, 2.0):
        cut = max(states.min_cutoff_for_thermal(nbar, 1e-7),
                  states.min_cutoff_for_coherent(1.0, 1e-8))
        ev = joint.AmplitudeEvolver(1.0, nbar, _amplitude_cfg(cut))
        pur = fock.purity(ev.reduced_state(math.pi / 2))
        worst = max(worst, abs(pur - 1.0 / (1.0 + 2.0 * nbar)))
    assert worst <= 1e-6, f"swap purity defect {worst:.3e}"
    return f"half-period purity equals 1/(1+2nbar) within {worst:.2e}"


def check_joint_amplitude_oracle() -> str:
    nbar = 1.0
    ev = joint.AmplitudeEvolver(1.0, nbar, _amplitude_cfg())
    p = ModelParams(1.0, nbar, 1.0, Model.AMPLITUDE)
    ts = np.linspace(0.0, math.pi, 40)
    worst = max(
        abs((1.0 - fock.purity(ev.reduced_state(t))) - models.amplitude_linear_entropy(t, p))
        for t in ts
    )
    assert worst < 1e-6, f"exchange brute force vs closed form {worst:.3e}"
    return f"brute-force entropy matches the closed form within {worst:.2e}"


def check_joint_kerr_two_routes() -> str:
    worst = 0.0
    for alpha0, nbar in ((1.0, 1.0), (2.0, 2.0), (0.5, 1.5)):
        cutoff_a = max(states.min_cutoff_for_coherent(alpha0, 1e-12), 10)
        cutoff_b = states.min_cutoff_for_thermal(nbar, 1e-12)
        cfg = joint.JointConfig(cutoff_a, cutoff_b, 1.0, Model.KERR)
        p = ModelParams(alpha0, nbar, 1.0, Model.KERR)
        for t in (0.3, 1.0, 2.6):
            direct = 1.0 - fock.purity(joint.evolve_kerr_reduced(alpha0, nbar, t, cfg))
            series = models.kerr_linear_entropy(t, p)
            worst = max(worst, abs(direct - series))
    assert worst <= 1e-8, f"kerr route disagreement {worst:.3e}"
    return f"matrix purity and Bessel series agree within {worst:.2e}"


def check_joint_kerr_partial_trace() -> str:
    cfg = joint.JointConfig(12, 12, 1.0, Model.KERR)
    worst = 0.0
    for t in (0.0, 0.9, 2.4):
        full = joint.evolve_kerr_joint(1.0, 1.0, t, cfg, tail_tol=1e-3)
        reduced = fock.partial_trace_b(full)
        direct = joint.evolve_kerr_reduced(1.0, 1.0, t, cfg, tail_tol=1e-3)
        worst = max(worst, float(np.abs(reduced.entries - direct.entries).max()))
    assert worst <= 1e-10, f"joint-space reduction defect {worst:.3e}"
    return f"explicit joint state reduces to the direct mixture within {worst:.2e}"


def check_joint_occupation_conservation() -> str:
    cfg = _amplitude_cfg()
    worst = 0.0
    n0 = sum(joint.mean_occupation_exchange(1.0, 1.0, 0.0, cfg))
    for t in (0.5, 1.3, 2.9):
        na, nb = joint.mean_occupation_exchange(1.0, 1.0, t, cfg)
        worst = max(worst, abs(na + nb - n0))
    kerr_cfg = joint.JointConfig(24, 30, 1.0, Model.KERR)
    for t in (0.5, 1.3):
        na, _ = joint.mean_occupation_exchange(1.0, 1.0, t, kerr_cfg)
        worst = max(worst, abs(na - 1.0))
    assert worst <= 1e-8, f"occupation bookkeeping defect {worst:.3e}"
    return f"excitation exchange and kerr no-exchange hold within {worst:.2e}"


# ------------------------------------------------------- decoherence report

def _decoherence_row(model: Model, alpha0: float, nbar: float) -> str:
    p = ModelParams(alpha0, nbar, 1.0, model)
    estimate = models.decoherence_time_estimate(p)
    grid = np.linspace(0.0, max(6.0 * estimate, 1.0), 6000)
    measured = models.measured_decoherence_time(models.entropy_series(p, grid))
    assert measured is not None, "crossing not reached"
    ratio = measured / estimate
    assert 1.0 / 3.0 <= ratio <= 3.0, (
        f"measured {measured:.4g} vs estimate {estimate:.4g} (ratio {ratio:.3g})"
    )
    return f"measured {measured:.4g}, estimate {estimate:.4g}, ratio {ratio:.2f}"


def check_decoherence_master() -> str:
    return _decoherence_row(Model.MASTER, 2.0, 2.0)


def check_decoherence_amplitude() -> str:
    return _decoherence_row(Model.AMPLITUDE, 2.0, 2.0)


def check_decoherence_kerr() -> str:
    return _decoherence_row(Model.KERR, 2.0, 2.0)


# ---------------------------------------------------------------------- cli

def check_cli_determinism() -> str:
    import contextlib
    import io

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path_a = Path(tmp) / "a.csv"
        path_b = Path(tmp) / "b.csv"
        assert cli_main(["figure", "2", "--output", str(path_a), "--points", "200"]) == 0
        assert cli_main(["figure", "2", "--output", str(path_b), "--points", "200"]) == 0
        blob_a, blob_b = path_a.read_bytes(), path_b.read_bytes()
        assert blob_a == blob_b, "figure output is not byte-identical across runs"
        header = [line for line in blob_a.decode().splitlines() if line.startswith("#")]
        for key in ("alpha0", "nbar", "rate", "points", "tmax"):
            assert any(key in line for line in header), f"missing {key} echo"
    return f"byte-identical output with {len(header)} echo lines"


def _registry(lowered_cutoff: int | None):
    return [
        ("fock.partial_trace_product", check_partial_trace_product),
        ("fock.purity_bounds", check_purity_bounds),
        ("states.hermitian_psd", check_state_hermitian_psd),
        ("states.tail_accounting", check_tail_accounting),
        ("states.thermal_mean", check_thermal_mean),
        ("states.cutoff_guard", _make_cutoff_guard(lowered_cutoff)),
        ("analytic.entropy_bounds", check_entropy_bounds),
        ("analytic.zero_temperature", check_zero_temperature),
        ("analytic.periodicity", check_periodicity),
        ("analytic.shared_functional_form", check_shared_functional_form),
        ("analytic.kerr_bessel_weights", check_kerr_bessel_weights),
        ("analytic.kerr_short_time", check_kerr_short_time),
        ("master.fixed_point", check_master_fixed_point),
        ("master.dense_generator", check_master_dense_generator),
        ("master.monotone_rise", check_master_monotone_rise),
        ("master.entropy_oracle", check_master_oracle),
        ("master.closed_form_state", check_master_closed_form_state),
        ("joint.component_unitarity", check_joint_unitarity),
        ("joint.swap_purity", check_joint_swap_purity),
        ("joint.amplitude_oracle", check_joint_amplitude_oracle),
        ("joint.kerr_two_routes", check_joint_kerr_two_routes),
        ("joint.kerr_partial_trace", check_joint_kerr_partial_trace),
        ("joint.occupation_exchange", check_joint_occupation_conservation),
        ("decoherence.master_crossing", check_decoherence_master),
        ("decoherence.amplitude_crossing", check_decoherence_amplitude),
        ("decoherence.kerr_crossing", check_decoherence_kerr),
        ("cli.figure_determinism", check_cli_determinism),
    ]


def run_checks(lowered_cutoff: int | None = None) -> list[CheckResult]:
    """Run every registered check; exceptions become failures."""
    results = []
    for name, fn in _registry(lowered_cutoff):
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except (AssertionError, MiniEnvError, ValueError) as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
