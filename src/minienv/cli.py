"""Command-line front end: figure reproduction, simulations, sweeps, validation.

Output CSVs are deterministic: floats carry 12 significant digits, lines end
with a bare newline, and every file starts with `#`-prefixed parameter echo
lines sufficient to re-run the command.  Exit codes: 0 success, 1 numerical or
validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MiniEnvError
from .fock import purity
from .joint import AmplitudeEvolver, JointConfig, evolve_kerr_reduced
from .master import LindbladConfig, default_cutoff, evolve_master
from .models import Model, ModelParams, entropy_series
from .states import (
    CoherentSpec,
    coherent_state,
    min_cutoff_for_coherent,
    min_cutoff_for_thermal,
)
from .validate import run_checks

FIGURE_PARAMS = {
    1: (5.0, 25.0),
    2: (5.0, 1.0),
    3: (1.0, 25.0),
    4: (1.0, 2.0),
    5: (5.0, 100.0),
}
CANONICAL_MODELS = (Model.MASTER, Model.AMPLITUDE, Model.KERR)
ENGINES = ("analytic", "brute-force", "both")
BRUTE_TAIL_TOL = 1e-8
SWEEP_KEYS = ("model", "alpha0", "nbar", "rate", "tmax", "points", "engine", "output")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _write_table(path: Path, meta: dict, header: list[str], columns: list[np.ndarray],
                 dat_mirror: bool = False):
    rows = len(columns[0])
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for i in range(rows):
        lines.append(",".join(_fmt(float(col[i])) for col in columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", newline="")
    if dat_mirror:
        dat_lines = [f"# {key}={value}" for key, value in meta.items()]
        dat_lines.append("# " + " ".join(header))
        for i in range(rows):
            dat_lines.append(" ".join(_fmt(float(col[i])) for col in columns))
        path.with_suffix(".dat").write_text("\n".join(dat_lines) + "\n", newline="")


@dataclass
class RunSpec:
    """Parsed simulation request."""

    models: tuple[Model, ...] = (Model.MASTER,)
    alpha0: complex = 1.0 + 0.0j
    nbar: float = 1.0
    rate: float = 1.0
    tmax: float = 3.0
    points: int = 200
    engine: str = "analytic"
    output: str = "simulate.csv"
    tail_tol: float = 1e-10
    joint_tail_tol: float = BRUTE_TAIL_TOL

    def validate(self):
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if not (self.tmax > 0 and np.isfinite(self.tmax)):
            raise ValueError("tmax must be positive and finite")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if not self.models:
            raise ValueError("at least one model is required")
        for name in ("tail_tol", "joint_tail_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value:g}")


def _parse_models(text: str) -> tuple[Model, ...]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    chosen = []
    for name in names:
        try:
            chosen.append(Model(name))
        except ValueError:
            raise ValueError(f"unknown model {name!r}; expected master, amplitude or kerr")
    return tuple(m for m in CANONICAL_MODELS if m in chosen)


SPEC_CONVERTERS = {
    "model": ("models", _parse_models),
    "alpha0": ("alpha0", complex),
    "nbar": ("nbar", float),
    "rate": ("rate", float),
    "tmax": ("tmax", float),
    "points": ("points", int),
    "engine": ("engine", str),
    "output": ("output", str),
    "tail_tol": ("tail_tol", float),
    "joint_tail_tol": ("joint_tail_tol", float),
}


def _parse_spec_file(path: str, known_keys) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key not in known_keys:
            raise ValueError(f"{path}:{lineno}: unknown spec key {key!r}")
        values[key] = value
    return values


def _spec_from_sources(file_values: dict[str, str], args) -> RunSpec:
    spec = RunSpec()
    for key, value in file_values.items():
        field, conv = SPEC_CONVERTERS[key]
        try:
            spec = replace(spec, **{field: conv(value)})
        except ValueError as exc:
            raise ValueError(f"spec key {key}={value!r}: {exc}")
    overrides = {
        "models": _parse_models(args.model) if args.model else None,
        "alpha0": args.alpha0,
        "nbar": args.nbar,
        "rate": args.rate,
        "tmax": args.tmax,
        "points": args.points,
        "engine": args.engine,
        "output": args.output,
        "tail_tol": args.tail_tol,
        "joint_tail_tol": args.joint_tail_tol,
    }
    for field, value in overrides.items():
        if value is not None:
            spec = replace(spec, **{field: value})
    spec.validate()
    return spec


def _brute_force_column(model: Model, spec: RunSpec, times: np.ndarray) -> np.ndarray:
    alpha0, nbar, rate = spec.alpha0, spec.nbar, spec.rate
    if model is Model.MASTER:
        cutoff = default_cutoff(alpha0, nbar, tol=spec.tail_tol)
        cfg = LindbladConfig(gamma=rate, nbar=nbar, cutoff=cutoff)
        rho0 = coherent_state(CoherentSpec(alpha0, cutoff), tol=spec.tail_tol)
        snaps = evolve_master(rho0, cfg, times)
        return np.array([1.0 - purity(s) for s in snaps])
    if model is Model.AMPLITUDE:
        cut = max(
            min_cutoff_for_coherent(alpha0, spec.joint_tail_tol),
            min_cutoff_for_thermal(nbar, spec.joint_tail_tol),
            1,
        )
        cfg = JointConfig(cut, cut, rate, Model.AMPLITUDE)
        evolver = AmplitudeEvolver(alpha0, nbar, cfg, tail_tol=spec.joint_tail_tol)
        return np.array([1.0 - purity(evolver.reduced_state(t)) for t in times])
    cutoff_a = max(min_cutoff_for_coherent(alpha0, spec.joint_tail_tol), 1)
    cutoff_b = max(min_cutoff_for_thermal(nbar, spec.joint_tail_tol), 1)
    cfg = JointConfig(cutoff_a, cutoff_b, rate, Model.KERR)
    return np.array(
        [
            1.0 - purity(evolve_kerr_reduced(alpha0, nbar, t, cfg,
                                             tail_tol=spec.joint_tail_tol))
            for t in times
        ]
    )


def cmd_figure(args) -> int:
    if args.points < 2:
        raise ValueError("points must be at least 2")
    alpha0, nbar = FIGURE_PARAMS[args.id]
    times = np.linspace(0.0, args.tmax, args.points)
    columns = [times]
    for model in CANONICAL_MODELS:
        p = ModelParams(alpha0, nbar, 1.0, model)
        columns.append(entropy_series(p, times).zeta)
    meta = {
        "command": f"minienv figure {args.id} --points {args.points} --tmax {_fmt(args.tmax)}",
        "version": __version__,
        "alpha0": _fmt(alpha0),
        "nbar": _fmt(nbar),
        "rate": "1",
        "tmax": _fmt(args.tmax),
        "points": str(args.points),
        "engine": "analytic",
    }
    _write_table(Path(args.output), meta, ["gamma_t", "zeta1", "zeta2", "zeta3"],
                 columns, dat_mirror=args.dat)
    print(f"wrote {args.output}")
    return 0


def cmd_simulate(args) -> int:
    file_values = _parse_spec_file(args.spec, SPEC_CONVERTERS) if args.spec else {}
    spec = _spec_from_sources(file_values, args)
    times = np.linspace(0.0, spec.tmax, spec.points)
    engines = ("analytic", "brute") if spec.engine == "both" else (
        ("brute",) if spec.engine == "brute-force" else ("analytic",)
    )
    header = ["t"]
    columns = [times]
    for model in spec.models:
        p = ModelParams(spec.alpha0, spec.nbar, spec.rate, model)
        for engine in engines:
            if engine == "analytic":
                columns.append(entropy_series(p, times).zeta)
            else:
                columns.append(_brute_force_column(model, spec, times))
            suffix = f"_{engine}" if len(engines) > 1 else ""
            header.append(f"zeta_{model.value}{suffix}")
    meta = {
        "command": "minienv simulate",
        "version": __version__,
        "model": ",".join(m.value for m in spec.models),
        "alpha0": _fmt_complex(spec.alpha0),
        "nbar": _fmt(spec.nbar),
        "rate": _fmt(spec.rate),
        "tmax": _fmt(spec.tmax),
        "points": str(spec.points),
        "engine": spec.engine,
        "tail_tol": _fmt(spec.tail_tol),
        "joint_tail_tol": _fmt(spec.joint_tail_tol),
    }
    _write_table(Path(spec.output), meta, header, columns, dat_mirror=args.dat)
    print(f"wrote {spec.output}")
    return 0


def cmd_sweep(args) -> int:
    values = _parse_spec_file(args.spec, SWEEP_KEYS)
    if values.get("engine", "analytic") != "analytic":
        raise ValueError("sweep runs the analytic engine only; use simulate for brute force")
    models = _parse_models(values.get("model", "master,amplitude,kerr"))
    alphas = [complex(tok) for tok in values.get("alpha0", "1").split(",")]
    nbars = [float(tok) for tok in values.get("nbar", "1").split(",")]
    rates = [float(tok) for tok in values.get("rate", "1").split(",")]
    tmax = float(values.get("tmax", "3"))
    points = int(values.get("points", "200"))
    output = args.output or values.get("output", "sweep.csv")
    if points < 2 or not (tmax > 0 and np.isfinite(tmax)):
        raise ValueError("sweep needs points >= 2 and a positive finite tmax")
    times = np.linspace(0.0, tmax, points)
    rows_model, rows_a, rows_n, rows_r, rows_t, rows_z = [], [], [], [], [], []
    for model, alpha0, nbar, rate in product(models, alphas, nbars, rates):
        series = entropy_series(ModelParams(alpha0, nbar, rate, model), times)
        for t, z in zip(series.times, series.zeta):
            rows_model.append(model.value)
            rows_a.append(_fmt_complex(alpha0))
            rows_n.append(_fmt(nbar))
            rows_r.append(_fmt(rate))
            rows_t.append(_fmt(t))
            rows_z.append(_fmt(z))
    meta = {
        "command": f"minienv sweep --spec {args.spec}",
        "version": __version__,
        "model": ",".join(m.value for m in models),
        "alpha0": ",".join(_fmt_complex(a) for a in alphas),
        "nbar": ",".join(_fmt(x) for x in nbars),
        "rate": ",".join(_fmt(x) for x in rates),
        "tmax": _fmt(tmax),
        "points": str(points),
        "engine": "analytic",
    }
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append("model,alpha0,nbar,rate,t,zeta")
    lines.extend(
        ",".join(cells)
        for cells in zip(rows_model, rows_a, rows_n, rows_r, rows_t, rows_z)
    )
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", newline="")
    print(f"wrote {output}")
    return 0


def cmd_validate(args) -> int:
    results = run_checks(lowered_cutoff=args.hook_lower_cutoff)
    for res in results:
        print(f"{'PASS' if res.ok else 'FAIL'}  {res.name}: {res.detail}")
    failed = [res for res in results if not res.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minienv",
        description="Linear-entropy dynamics of an oscillator in thermal environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write a reference linear-entropy CSV")
    fig.add_argument("id", type=int, choices=sorted(FIGURE_PARAMS),
                     help="figure preset (fixes alpha0 and nbar)")
    fig.add_argument("--output", default=None, help="output CSV path")
    fig.add_argument("--points", type=int, default=2000)
    fig.add_argument("--tmax", type=float, default=3.0)
    fig.add_argument("--dat", action="store_true", help="also write a gnuplot .dat mirror")
    fig.set_defaults(func=cmd_figure)

    sim = sub.add_parser("simulate", help="run one or more models on a grid")
    sim.add_argument("--spec", default=None, help="key=value spec file")
    sim.add_argument("--model", default=None, help="comma list of master,amplitude,kerr")
    sim.add_argument("--alpha0", type=complex, default=None)
    sim.add_argument("--nbar", type=float, default=None)
    sim.add_argument("--rate", type=float, default=None)
    sim.add_argument("--tmax", type=float, default=None)
    sim.add_argument("--points", type=int, default=None)
    sim.add_argument("--engine", choices=ENGINES, default=None)
    sim.add_argument("--output", default=None)
    sim.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)
    sim.add_argument("--joint-tail-tol", dest="joint_tail_tol", type=float, default=None)
    sim.add_argument("--dat", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    swp = sub.add_parser("sweep", help="cartesian parameter sweep from a spec file")
    swp.add_argument("--spec", required=True)
    swp.add_argument("--output", default=None)
    swp.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="run the invariant and oracle suite")
    val.add_argument("--hook-lower-cutoff", type=int, default=None,
                     help="test hook: force an undersized coherent-state cutoff")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure" and args.output is None:
        args.output = f"figure{args.id}.csv"
    try:
        return args.func(args)
    except MiniEnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
