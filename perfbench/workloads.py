"""The benchmark's workloads: fixed `minienv` command lists built from a seed.

The seed only sets the phase of every alpha0 given to `simulate` and `sweep`.
Cutoffs and entropies depend on |alpha0| alone, so every seed asks for the
same work while the inputs (and the echoed parameters) differ.  `figure`
presets and `validate` take no generated input.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

POINTS_ANALYTIC = 2000
TMAX = 3.0

# figure presets as documented in the README: id -> (alpha0, nbar), rate 1
FIGURE_PRESETS = {1: (5.0, 25.0), 2: (5.0, 1.0), 3: (1.0, 25.0), 4: (1.0, 2.0), 5: (5.0, 100.0)}
SWEEP_MODELS = ("master", "amplitude", "kerr")
SWEEP_ALPHAS = (1.0, 2.0, 5.0)
SWEEP_NBARS = (1.0, 25.0, 100.0, 1000.0)

# (model, |alpha0|, nbar, points): the brute-force sizes of the ROADMAP baseline
SIMULATE_CASES = (
    ("master", 2.0, 1.0, 300),
    ("master", 1.5, 2.0, 300),
    ("amplitude", 2.0, 2.0, 50),
    ("kerr", 2.0, 2.0, 300),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it must write (relative to its run dir)."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    # what the output checks need to know; see verify.py
    check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> text


def _alpha(magnitude: float, rng: random.Random) -> complex:
    return cmath.rect(magnitude, rng.uniform(0.0, 2.0 * math.pi))


def _alpha_text(alpha: complex) -> str:
    """Round-trip text form accepted by `complex()`, e.g. ``1.2+1.6j``."""
    sign = "-" if math.copysign(1.0, alpha.imag) < 0 else "+"
    return f"{alpha.real!r}{sign}{abs(alpha.imag)!r}j"


def analytic(seed: int) -> Workload:
    rng = random.Random(seed)
    commands = []
    for fig, (alpha0, nbar) in FIGURE_PRESETS.items():
        out = f"figure{fig}.csv"
        commands.append(Command(
            ("figure", str(fig), "--points", str(POINTS_ANALYTIC), "--tmax", repr(TMAX),
             "--dat", "--output", out),
            (out, f"figure{fig}.dat"),
            {"kind": "figure", "alpha0": alpha0, "nbar": nbar, "points": POINTS_ANALYTIC},
        ))
    alphas = [_alpha(m, rng) for m in SWEEP_ALPHAS]
    spec = "\n".join([
        "model = " + ",".join(SWEEP_MODELS),
        "alpha0 = " + ",".join(_alpha_text(a) for a in alphas),
        "nbar = " + ",".join(f"{n:g}" for n in SWEEP_NBARS),
        "rate = 1",
        f"tmax = {TMAX!r}",
        f"points = {POINTS_ANALYTIC}",
    ]) + "\n"
    commands.append(Command(
        ("sweep", "--spec", "sweep.spec", "--output", "sweep.csv"),
        ("sweep.csv",),
        {"kind": "sweep", "models": SWEEP_MODELS, "alphas": [(a.real, a.imag) for a in alphas],
         "nbars": SWEEP_NBARS, "points": POINTS_ANALYTIC},
    ))
    return Workload(tuple(commands), {"sweep.spec": spec})


def bruteforce(seed: int) -> Workload:
    rng = random.Random(seed)
    commands = []
    for model, magnitude, nbar, points in SIMULATE_CASES:
        alpha0 = _alpha(magnitude, rng)
        out = f"{model}_a{magnitude:g}_n{nbar:g}.csv"
        commands.append(Command(
            ("simulate", "--model", model, f"--alpha0={_alpha_text(alpha0)}", "--nbar", f"{nbar:g}",
             "--rate", "1", "--tmax", repr(TMAX), "--points", str(points), "--engine", "both",
             "--output", out),
            (out,),
            {"kind": "simulate", "model": model, "alpha0": (alpha0.real, alpha0.imag),
             "nbar": nbar, "points": points},
        ))
    return Workload(tuple(commands))


def validate(seed: int) -> Workload:
    """The full check registry; it has no generated input, so the seed is unused."""
    del seed
    return Workload((Command(("validate",), (), {"kind": "validate"}),))


WORKLOADS = {"analytic": analytic, "bruteforce": bruteforce, "validate": validate}
