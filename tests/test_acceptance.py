"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from minienv import fock, joint, master, states
from minienv.cli import main as cli_main
from minienv.models import (
    Model,
    ModelParams,
    amplitude_linear_entropy,
    entropy_series,
    kerr_linear_entropy,
    master_linear_entropy,
    measured_decoherence_time,
)
from minienv.validate import run_checks


def report(criterion: int, detail: str):
    print(f"criterion {criterion}: PASS - {detail}")


def crossing_time(model: Model, alpha0: float, nbar: float, tmax: float,
                  points: int = 8001) -> float:
    p = ModelParams(alpha0, nbar, 1.0, model)
    series = entropy_series(p, np.linspace(0.0, tmax, points))
    measured = measured_decoherence_time(series)
    assert measured is not None, f"no crossing for {model} at nbar={nbar}"
    return measured


def test_criterion_1_closed_form_plateau():
    for nbar in (1.0, 25.0, 100.0):
        plateau = 2.0 * nbar / (1.0 + 2.0 * nbar)
        p1 = ModelParams(1.0, nbar, 1.0, Model.MASTER)
        z1_max = master_linear_entropy(np.linspace(0.0, 15.0, 2000), p1).max()
        assert abs(z1_max - plateau) < 1e-9, f"master plateau at nbar={nbar}"
        p2 = ModelParams(1.0, nbar, 1.0, Model.AMPLITUDE)
        grid = np.linspace(0.0, math.pi, 101)  # includes pi/2 where the max sits
        z2_max = amplitude_linear_entropy(grid, p2).max()
        assert abs(z2_max - plateau) < 1e-9, f"amplitude plateau at nbar={nbar}"
    report(1, "max zeta equals 2nbar/(1+2nbar) within 1e-9 for nbar in {1, 25, 100}")


def test_criterion_2_master_cross_engine():
    start = time.monotonic()
    alpha0, nbar, cutoff = 2.0, 1.0, 40
    cfg = master.LindbladConfig(gamma=1.0, nbar=nbar, cutoff=cutoff)
    rho0 = states.coherent_state(states.CoherentSpec(alpha0, cutoff))
    times = np.linspace(0.0, 3.0, 300)
    snaps = master.evolve_master(rho0, cfg, times)

    zeta = np.array([1.0 - fock.purity(s) for s in snaps])
    p = ModelParams(alpha0, nbar, 1.0, Model.MASTER)
    max_err = float(np.abs(zeta - master_linear_entropy(times, p)).max())
    assert max_err < 1e-5, f"entropy error {max_err:.3e}"

    trace0 = fock.trace(rho0).real
    drift = max(abs(fock.trace(s).real - trace0) for s in snaps)
    assert drift < 1e-8, f"trace drift {drift:.3e}"

    worst_dist = 0.0
    for t in (0.1, 0.5, 1.0):
        snap = master.evolve_master(rho0, cfg, np.array([t]))[-1]
        ref = master.closed_form_master_state(t, p, cutoff)
        worst_dist = max(worst_dist, fock.trace_distance(snap, ref))
    assert worst_dist < 1e-5, f"trace distance {worst_dist:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    report(2, f"max|dzeta|={max_err:.2e}, drift={drift:.2e}, "
              f"state distance={worst_dist:.2e}, {elapsed:.1f}s")


def test_criterion_3_amplitude_cross_engine():
    start = time.monotonic()
    alpha0, nbar = 1.0, 1.0
    cfg = joint.JointConfig(24, 24, 1.0, Model.AMPLITUDE)
    evolver = joint.AmplitudeEvolver(alpha0, nbar, cfg)
    p = ModelParams(alpha0, nbar, 1.0, Model.AMPLITUDE)

    times = np.linspace(0.0, math.pi, 200)
    max_err = max(
        abs((1.0 - fock.purity(evolver.reduced_state(float(t))))
            - amplitude_linear_entropy(float(t), p))
        for t in times
    )
    assert max_err < 1e-6, f"entropy error {max_err:.3e}"

    recurrence = 1.0 - fock.purity(evolver.reduced_state(math.pi))
    assert recurrence < 1e-6, f"recurrence entropy {recurrence:.3e}"

    swap = fock.purity(evolver.reduced_state(math.pi / 2.0))
    assert abs(swap - 1.0 / 3.0) < 1e-6, f"swap purity {swap}"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s"
    report(3, f"max|dzeta|={max_err:.2e}, recurrence={recurrence:.2e}, "
              f"swap purity off by {abs(swap - 1/3):.2e}, {elapsed:.1f}s")


def test_criterion_4_kerr_cross_engine():
    start = time.monotonic()
    alpha0, nbar = 1.0, 1.0
    kmax = 40
    cfg = joint.JointConfig(30, kmax, 1.0, Model.KERR)
    p = ModelParams(alpha0, nbar, 1.0, Model.KERR)
    times = np.linspace(0.0, 2.0 * math.pi, 200)
    max_err = max(
        abs((1.0 - fock.purity(joint.evolve_kerr_reduced(alpha0, nbar, float(t), cfg)))
            - kerr_linear_entropy(float(t), p))
        for t in times
    )
    assert max_err < 1e-8, f"route disagreement {max_err:.3e}"

    small = joint.JointConfig(12, 12, 1.0, Model.KERR)
    worst = 0.0
    for t in (0.0, 0.7, 1.9, 4.4):
        full = joint.evolve_kerr_joint(alpha0, nbar, t, small, tail_tol=1e-3)
        reduced = fock.partial_trace_b(full)
        direct = joint.evolve_kerr_reduced(alpha0, nbar, t, small, tail_tol=1e-3)
        worst = max(worst, float(np.abs(reduced.entries - direct.entries).max()))
    assert worst < 1e-10, f"joint-space reduction defect {worst:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    report(4, f"purity routes agree to {max_err:.2e}, joint reduction to {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_5_zero_temperature_purity():
    worst = 0.0
    for model in Model:
        p = ModelParams(2.0, 0.0, 1.0, model)
        analytic = entropy_series(p, np.linspace(0.0, 3.0, 60)).zeta
        assert np.abs(analytic).max() == 0.0, f"analytic {model} not exactly zero"

    cutoff = 40
    cfg = master.LindbladConfig(gamma=1.0, nbar=0.0, cutoff=cutoff)
    rho0 = states.coherent_state(states.CoherentSpec(2.0, cutoff))
    for snap in master.evolve_master(rho0, cfg, np.linspace(0.0, 3.0, 30)):
        worst = max(worst, 1.0 - fock.purity(snap))

    amp = joint.AmplitudeEvolver(2.0, 0.0, joint.JointConfig(24, 24, 1.0, Model.AMPLITUDE))
    for t in np.linspace(0.0, math.pi, 20):
        worst = max(worst, 1.0 - fock.purity(amp.reduced_state(float(t))))

    kerr_cfg = joint.JointConfig(30, 4, 1.0, Model.KERR)
    for t in np.linspace(0.0, 2.0 * math.pi, 20):
        worst = max(worst, 1.0 - fock.purity(joint.evolve_kerr_reduced(2.0, 0.0, float(t), kerr_cfg)))

    assert worst < 1e-7, f"zero-temperature entropy {worst:.3e}"
    report(5, f"all engines keep zeta below {worst:.2e} at nbar=0")


def test_criterion_6_decoherence_time_scaling():
    t1_25 = crossing_time(Model.MASTER, 5.0, 25.0, 0.12)
    assert 1.0 / 3.0 <= t1_25 / 0.01 <= 3.0, f"master crossing {t1_25}"

    t2_25 = crossing_time(Model.AMPLITUDE, 5.0, 25.0, 0.5)
    estimate2 = 1.0 / math.sqrt(50.0)
    assert 1.0 / 3.0 <= t2_25 / estimate2 <= 3.0, f"amplitude crossing {t2_25}"

    t3_25 = crossing_time(Model.KERR, 5.0, 25.0, 0.12)
    assert 1.0 / 3.0 <= t3_25 / 0.008 <= 3.0, f"kerr crossing {t3_25}"

    t1_100 = crossing_time(Model.MASTER, 5.0, 100.0, 0.05)
    ratio1 = t1_25 / t1_100
    assert abs(ratio1 - 4.0) <= 0.4, f"1/nbar scaling ratio {ratio1}"

    t2_100 = crossing_time(Model.AMPLITUDE, 5.0, 100.0, 0.3)
    ratio2 = t2_25 / t2_100
    assert abs(ratio2 - 2.0) <= 0.2, f"1/sqrt(nbar) scaling ratio {ratio2}"

    report(6, f"crossings ({t1_25:.4f}, {t2_25:.4f}, {t3_25:.4f}) within factor 3; "
              f"ratios {ratio1:.3f} (target 4), {ratio2:.3f} (target 2)")


def _read_columns(path):
    header, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(header)}


def test_criterion_7_figure_reproduction(tmp_path):
    start = time.monotonic()
    fig1 = tmp_path / "figure1.csv"
    assert cli_main(["figure", "1", "--output", str(fig1)]) == 0
    elapsed1 = time.monotonic() - start
    assert elapsed1 < 5.0, f"figure 1 took {elapsed1:.1f}s"
    cols = _read_columns(fig1)

    plateau = 50.0 / 51.0
    half = 0.5 * plateau
    idx = {name: int(np.argmax(cols[name] >= half)) for name in ("zeta1", "zeta2", "zeta3")}
    assert idx["zeta2"] > idx["zeta1"], "amplitude model should reach half-plateau last"
    assert idx["zeta2"] > idx["zeta3"], "amplitude model should reach half-plateau last"

    z3 = cols["zeta3"]
    falls = np.flatnonzero(np.diff(z3) < 0)
    assert falls.size > 0, "no first maximum found in zeta3"
    first_max = falls[0]
    rises_after = np.flatnonzero(np.diff(z3[first_max + 1:]) > 0)
    assert rises_after.size > 0, "zeta3 has no local minimum after its first maximum"

    start3 = time.monotonic()
    fig3 = tmp_path / "figure3.csv"
    assert cli_main(["figure", "3", "--output", str(fig3)]) == 0
    elapsed3 = time.monotonic() - start3
    assert elapsed3 < 5.0, f"figure 3 took {elapsed3:.1f}s"
    cols3 = _read_columns(fig3)
    assert cols3["zeta3"].max() < cols3["zeta1"].max(), "zeta3 must stay below zeta1"

    report(7, f"figure 1 ordering and dips hold, figure 3 max zeta3 "
              f"{cols3['zeta3'].max():.4f} < max zeta1 {cols3['zeta1'].max():.4f}")


def test_criterion_8_validation_suite():
    start = time.monotonic()
    results = run_checks()
    elapsed = time.monotonic() - start
    failed = [r for r in results if not r.ok]
    assert not failed, "failed checks: " + ", ".join(r.name for r in failed)
    assert elapsed < 300.0, f"validation took {elapsed:.1f}s"
    report(8, f"{len(results)} invariant/oracle checks passed in {elapsed:.1f}s")
