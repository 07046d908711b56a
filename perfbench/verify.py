"""Output checks behind the benchmark's failure count.

Every entropy must be finite and inside the band [0, 2 nbar/(1 + 2 nbar)],
with the slack the package's own `EntropySeries` allows.  Master and amplitude
columns are compared with their closed forms, evaluated here on the exact time
grid.  Brute-force columns must match their analytic columns within the
package's oracle bounds, and a seeded sample of analytic Kerr rows is
recomputed with `joint.evolve_kerr_reduced` and `fock.purity`.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from minienv import fock, joint, states
from minienv.errors import MiniEnvError
from minienv.models import Model

BAND_SLACK_LOW = 1e-12
BAND_SLACK_HIGH = 1e-9
TIME_TOL = 1e-11            # the CSV prints 12 significant digits
CLOSED_FORM_TOL = 1e-10
ORACLE_TOL = {"master": 1e-5, "amplitude": 1e-6, "kerr": 1e-6}  # the validate oracle bounds
KERR_SAMPLES = 12
KERR_ORACLE_TAIL = 1e-12


class OutputError(Exception):
    pass


def master_zeta(t: np.ndarray, nbar: float) -> np.ndarray:
    return 1.0 - 1.0 / (1.0 + 2.0 * nbar * (1.0 - np.exp(-2.0 * t)))


def amplitude_zeta(t: np.ndarray, nbar: float) -> np.ndarray:
    return 1.0 - 1.0 / (1.0 + 2.0 * nbar * np.sin(t) ** 2)


CLOSED_FORMS = {"master": master_zeta, "amplitude": amplitude_zeta}


def kerr_oracle(alpha0: complex, nbar: float, t: float) -> float:
    cut_a = max(states.min_cutoff_for_coherent(alpha0, KERR_ORACLE_TAIL), 1)
    cut_b = max(states.min_cutoff_for_thermal(nbar, KERR_ORACLE_TAIL), 1)
    cfg = joint.JointConfig(cut_a, cut_b, 1.0, Model.KERR, max_joint_dim=(cut_a + 1) * (cut_b + 1))
    rho = joint.evolve_kerr_reduced(alpha0, nbar, t, cfg, tail_tol=10 * KERR_ORACLE_TAIL)
    return 1.0 - fock.purity(rho)


def read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if header is None and line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise OutputError(f"{path.name}: no header line")
    return meta, header, rows


class Checker:
    """Checks one repetition's outputs; remembers the largest |delta zeta| it saw."""

    def __init__(self, seed: int, tmax: float):
        self.rng = random.Random(seed)
        self.tmax = tmax
        self.max_dzeta = 0.0
        self.kerr_rows: list[tuple[str, complex, float, float, float]] = []

    def _times(self, label: str, printed: np.ndarray) -> np.ndarray:
        exact = np.linspace(0.0, self.tmax, printed.size)
        if np.any(np.abs(printed - exact) > TIME_TOL * np.maximum(1.0, exact)):
            raise OutputError(f"{label}: time grid differs from linspace(0, tmax, points)")
        return exact

    def _band(self, label: str, zeta: np.ndarray, nbar: float):
        top = 2.0 * nbar / (1.0 + 2.0 * nbar)
        if not np.all(np.isfinite(zeta)):
            raise OutputError(f"{label}: non-finite zeta")
        if zeta.min() < -BAND_SLACK_LOW or zeta.max() > top + BAND_SLACK_HIGH:
            raise OutputError(f"{label}: zeta in [{zeta.min():.3e}, {zeta.max():.6f}] leaves "
                              f"[0, {top:.6f}]")

    def _close(self, label: str, got: np.ndarray, want: np.ndarray, tol: float):
        diff = float(np.max(np.abs(got - want)))
        self.max_dzeta = max(self.max_dzeta, diff)
        if not diff <= tol:
            raise OutputError(f"{label}: |delta zeta| {diff:.3e} exceeds {tol:.0e}")

    def _model_column(self, label: str, model: str, alpha0: complex, nbar: float,
                      t: np.ndarray, zeta: np.ndarray):
        self._band(label, zeta, nbar)
        if model in CLOSED_FORMS:
            self._close(label, zeta, CLOSED_FORMS[model](t, nbar), CLOSED_FORM_TOL)
        else:
            self.kerr_rows.extend((label, alpha0, nbar, ti, zi) for ti, zi in zip(t, zeta))

    def figure(self, path: Path, check: dict):
        meta, header, rows = read_csv(path)
        if header != ["gamma_t", "zeta1", "zeta2", "zeta3"]:
            raise OutputError(f"{path.name}: header {header}")
        if (float(meta.get("alpha0", "nan")), float(meta.get("nbar", "nan"))) != (
                check["alpha0"], check["nbar"]):
            raise OutputError(f"{path.name}: preset echo alpha0={meta.get('alpha0')} "
                              f"nbar={meta.get('nbar')}")
        data = np.array(rows, dtype=float)
        if data.shape != (check["points"], 4):
            raise OutputError(f"{path.name}: table shape {data.shape}")
        t = self._times(path.name, data[:, 0])
        for col, model in enumerate(("master", "amplitude", "kerr"), start=1):
            self._model_column(f"{path.name}:{model}", model, complex(check["alpha0"]),
                               check["nbar"], t, data[:, col])
        dat = path.with_suffix(".dat")
        lines = path.read_text().splitlines()
        meta_lines = len(lines) - len(rows) - 1
        mirror = lines[:meta_lines] + ["# " + lines[meta_lines].replace(",", " ")] + [
            line.replace(",", " ") for line in lines[meta_lines + 1:]]
        if not dat.is_file() or dat.read_text() != "\n".join(mirror) + "\n":
            raise OutputError(f"{dat.name}: does not mirror {path.name}")

    def sweep(self, path: Path, check: dict):
        meta, header, rows = read_csv(path)
        if header != ["model", "alpha0", "nbar", "rate", "t", "zeta"]:
            raise OutputError(f"{path.name}: header {header}")
        points = check["points"]
        blocks = [(m, complex(*a), n) for m in check["models"] for a in check["alphas"]
                  for n in check["nbars"]]
        if len(rows) != len(blocks) * points:
            raise OutputError(f"{path.name}: {len(rows)} rows, expected {len(blocks) * points}")
        for index, (model, alpha0, nbar) in enumerate(blocks):
            block = rows[index * points:(index + 1) * points]
            label = f"{path.name}:{model},|alpha0|={abs(alpha0):g},nbar={nbar:g}"
            keys = {(r[0], r[1], r[2], r[3]) for r in block}
            if len(keys) != 1:
                raise OutputError(f"{label}: parameters change inside a block")
            got_model, got_alpha, got_nbar, got_rate = keys.pop()
            if (got_model != model or abs(complex(got_alpha) - alpha0) > 1e-10 * abs(alpha0)
                    or float(got_nbar) != nbar or float(got_rate) != 1.0):
                raise OutputError(f"{label}: row parameters {got_model},{got_alpha},{got_nbar},"
                                  f"{got_rate}")
            values = np.array([(r[4], r[5]) for r in block], dtype=float)
            t = self._times(label, values[:, 0])
            self._model_column(label, model, alpha0, nbar, t, values[:, 1])

    def simulate(self, path: Path, check: dict):
        meta, header, rows = read_csv(path)
        model, nbar, alpha0 = check["model"], check["nbar"], complex(*check["alpha0"])
        if header != ["t", f"zeta_{model}_analytic", f"zeta_{model}_brute"]:
            raise OutputError(f"{path.name}: header {header}")
        if abs(complex(meta.get("alpha0", "nan")) - alpha0) > 1e-10 * abs(alpha0):
            raise OutputError(f"{path.name}: alpha0 echo {meta.get('alpha0')}")
        data = np.array(rows, dtype=float)
        if data.shape != (check["points"], 3):
            raise OutputError(f"{path.name}: table shape {data.shape}")
        t = self._times(path.name, data[:, 0])
        self._model_column(f"{path.name}:analytic", model, alpha0, nbar, t, data[:, 1])
        self._band(f"{path.name}:brute", data[:, 2], nbar)
        self._close(f"{path.name}:brute", data[:, 2], data[:, 1], ORACLE_TOL[model])

    def kerr_sample(self):
        """Recompute a seeded sample of analytic Kerr rows with the matrix route."""
        problems = {}
        for label, alpha0, nbar, t, zeta in self.rng.sample(
                self.kerr_rows, min(KERR_SAMPLES, len(self.kerr_rows))):
            try:
                self._close(f"{label} at t={t:.6g}", np.array([zeta]),
                            np.array([kerr_oracle(alpha0, nbar, t)]), ORACLE_TOL["kerr"])
            except (OutputError, MiniEnvError, ValueError) as exc:
                problems[label.split(":", 1)[0]] = str(exc)
        return problems


def check_outputs(commands, rundir: Path, seed: int, tmax: float):
    """Return ({output file: problem}, largest |delta zeta|) for one repetition."""
    checker = Checker(seed, tmax)
    problems: dict[str, str] = {}
    for command in commands:
        kind = command.check["kind"]
        if kind == "validate":
            continue
        path = rundir / command.outputs[0]
        try:
            if not path.is_file():
                raise OutputError(f"{path.name}: missing")
            getattr(checker, kind)(path, command.check)
        except (OutputError, ValueError, IndexError, KeyError) as exc:
            problems[path.name] = f"{type(exc).__name__}: {exc}"
    problems.update(checker.kerr_sample())
    return problems, checker.max_dzeta
