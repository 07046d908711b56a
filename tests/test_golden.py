"""Golden outputs: the CLI's tables must not change by a byte.

Analytic outputs (figures with their .dat mirrors, a sweep and one analytic
`simulate` per model) are compared by SHA-256.  Brute-force columns are
compared by value within 1e-12, since their last bits may depend on the BLAS
thread count.  A mismatch prints the numpy version the goldens were written
with; another CPU or numpy build may change a last digit of sin or exp.

Run this file as a script to rewrite ``golden.json``; an intended output
change then shows up as a golden update.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from minienv.cli import RunSpec, _brute_force_column, main
from minienv.models import Model

GOLDEN = Path(__file__).with_name("golden.json")
BRUTE_TOL = 1e-12

# |alpha0| and nbar lists of the benchmark's analytic sweep, two fixed phases each
SWEEP_SPEC = """\
model = master,amplitude,kerr
alpha0 = 1,0.6+0.8j,2,1.2-1.6j,5,-3+4j
nbar = 1,25,100,1000
rate = 1
tmax = 3.0
points = 200
"""

# name -> (argv, files written); paths are relative, since `sweep` echoes its spec path
ANALYTIC = {
    **{f"figure{i}": (["figure", str(i), "--points", "2000", "--tmax", "3.0", "--dat",
                       "--output", "out.csv"], ["out.csv", "out.dat"]) for i in range(1, 6)},
    "sweep": (["sweep", "--spec", "sweep.spec", "--output", "out.csv"], ["out.csv"]),
    "simulate_master": (["simulate", "--model", "master", "--alpha0=1.2+1.6j", "--nbar", "2",
                         "--rate", "0.7", "--tmax", "4", "--points", "500", "--output",
                         "out.csv"], ["out.csv"]),
    "simulate_amplitude": (["simulate", "--model", "amplitude", "--alpha0=-0.6+0.8j",
                            "--nbar", "25", "--tmax", "5", "--points", "500", "--output",
                            "out.csv"], ["out.csv"]),
    "simulate_kerr": (["simulate", "--model", "kerr", "--alpha0=-3-4j", "--nbar", "3",
                       "--rate", "1.3", "--tmax", "6", "--points", "500", "--output",
                       "out.csv"], ["out.csv"]),
}

# name -> (model, alpha0, nbar, points), the CLI's brute-force column on [0, 3]
BRUTE_FORCE = {
    "master_a2_n1": (Model.MASTER, 1.2 - 1.6j, 1.0, 300),
    "kerr_a2_n2": (Model.KERR, 2.0, 2.0, 300),
    "amplitude_a1_n1": (Model.AMPLITUDE, 0.6 + 0.8j, 1.0, 20),
}


def analytic_digests(name: str) -> list[str]:
    """Run one analytic command in the current directory; SHA-256 of each file."""
    argv, files = ANALYTIC[name]
    Path("sweep.spec").write_text(SWEEP_SPEC)
    assert main(argv) == 0
    return [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files]


def brute_force_values(name: str) -> list[float]:
    model, alpha0, nbar, points = BRUTE_FORCE[name]
    spec = RunSpec(models=(model,), alpha0=alpha0, nbar=nbar, points=points)
    return [float(z) for z in _brute_force_column(model, spec, np.linspace(0.0, 3.0, points))]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _platform(golden) -> str:
    return f"goldens written with numpy {golden['numpy']}, running numpy {np.__version__}"


@pytest.mark.parametrize("name", sorted(ANALYTIC))
def test_analytic_output_bytes(name, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = analytic_digests(name)
    assert got == golden["sha256"][name], f"{name} output bytes changed; {_platform(golden)}"


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE))
def test_brute_force_column(name, golden):
    got = np.array(brute_force_values(name))
    want = np.array(golden["brute_force"][name])
    assert got.shape == want.shape
    worst = float(np.abs(got - want).max())
    assert worst <= BRUTE_TOL, (
        f"{name} moved by {worst:.3e} > {BRUTE_TOL:g}; {_platform(golden)}"
    )


def write_golden():
    import os
    import tempfile

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            sha = {name: analytic_digests(name) for name in sorted(ANALYTIC)}
        finally:
            os.chdir(home)
    blob = {
        "numpy": np.__version__,
        "sha256": sha,
        "brute_force": {name: brute_force_values(name) for name in sorted(BRUTE_FORCE)},
    }
    GOLDEN.write_text(json.dumps(blob, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(write_golden())
