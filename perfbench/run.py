"""Time `minienv` workloads end to end, or per layer with tracing.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Each repetition runs the workload's command list through `minienv.cli.main`
in a fresh Python process (child.py), so set-up time and peak memory belong
to one repetition.  Repetitions repeat while they fit in `--seconds`; a run
reports medians over them.  `--trace 0` reports the end-to-end
metrics of BENCHMARK.json; `--trace 1` alternates untraced and traced
repetitions and reports its per-layer metrics.  Every run checks the outputs
(verify.py) and that every repetition wrote the same bytes.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS_MAX = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6         # import-only processes before each untraced repetition and after the last
MIN_PLAIN_REPS = 2       # untraced repetitions per --trace 0 run, at least
RUN_LIMIT_S = 160.0      # a run ends within 180 s even when repetitions are slow


class Rep:
    """One repetition: its directory, its child's result, its output digests."""

    def __init__(self, index: int, traced: bool, rundir: Path):
        self.index, self.traced, self.rundir = index, traced, rundir
        self.result: dict | None = None
        self.error = ""
        self.digests: dict[str, str] = {}
        self.csv_bytes = 0


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def run_child(rundir: Path, deadline: float, traced=False, probe=False) -> tuple[dict | None, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(rundir / "tmp")
    (rundir / "tmp").mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), "--rundir", str(rundir)]
    argv += ["--trace"] * traced + ["--probe"] * probe
    try:
        proc = subprocess.run(argv + ["--spawned-at", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    result = rundir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return None, f"child exit {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(result.read_text()), ""


def probe_setup(stem: Path, deadline: float, setups: list[float]):
    """Start SETUP_PROBES processes that only import minienv; keep their set-up times."""
    for probe in range(SETUP_PROBES):
        result, _ = run_child(stem.with_name(f"{stem.name}.{probe}"), deadline, probe=True)
        if result is not None:
            setups.append(result["setup_s"])


def run_reps(workload, workdir: Path, seconds: float, trace: bool, deadline: float,
             setups: list[float]) -> list[Rep]:
    """Repeat the workload while the repetitions fit in `seconds` (alternating
    untraced and traced repetitions when tracing).  Without tracing, set-up
    probes run before every repetition and after the last, so their samples
    span the whole run."""
    reps: list[Rep] = []
    spent = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        if not trace:
            probe_setup(workdir / f"probe{len(reps)}", deadline, setups)
        rep = Rep(len(reps), traced, workdir / f"rep{len(reps)}")
        rep.rundir.mkdir(parents=True)
        (rep.rundir / "commands.json").write_text(
            json.dumps([list(command.argv) for command in workload.commands]))
        for name, text in workload.inputs.items():
            (rep.rundir / name).write_text(text)
        began = time.monotonic()
        rep.result, rep.error = run_child(rep.rundir, deadline, traced=traced)
        took = time.monotonic() - began
        spent += took
        for command in workload.commands:
            for name in command.outputs:
                path = rep.rundir / name
                if path.is_file():
                    blob = path.read_bytes()
                    rep.digests[name] = hashlib.sha256(blob).hexdigest()
                    rep.csv_bytes += len(blob)
        if reps:  # the first repetition's files stay for the output checks
            shutil.rmtree(rep.rundir / "tmp", ignore_errors=True)
            for name in rep.digests:
                (rep.rundir / name).unlink()
        reps.append(rep)
        plain = sum(not r.traced for r in reps)
        enough = plain >= (1 if trace else MIN_PLAIN_REPS) and (not trace or plain < len(reps))
        if (enough and spent + took > seconds) or time.monotonic() + 1.5 * took > deadline:
            if not trace:
                probe_setup(workdir / "probe_last", deadline, setups)
            return reps


def count_ops(workload, reps: list[Rep], problems: dict[str, str]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed: one per CLI command, one per validate check."""
    reference = reps[0].digests
    attempted = failed = 0
    notes = []
    for rep in reps:
        if rep.result is None:
            attempted += len(workload.commands)
            failed += len(workload.commands)
            notes.append(f"rep {rep.index}: {rep.error}")
            continue
        for command, outcome in zip(workload.commands, rep.result["commands"]):
            if command.check["kind"] == "validate":
                lines = [line for line in outcome["stdout"].splitlines()
                         if line.startswith(("PASS", "FAIL"))]
                bad = [line for line in lines if line.startswith("FAIL")]
                ok_exit = outcome["exit"] == (1 if bad else 0)
                attempted += max(len(lines), 1)
                failed += len(bad) + (not lines or not ok_exit)
                notes += [f"rep {rep.index}: {line}" for line in bad]
                if not ok_exit or not lines:
                    notes.append(f"rep {rep.index}: validate exit {outcome['exit']} "
                                 f"{outcome['stderr'][-500:]}")
                continue
            attempted += 1
            why = [] if outcome["exit"] == 0 else [f"exit {outcome['exit']} "
                                                   f"{outcome['stderr'][-500:]}"]
            for name in command.outputs:
                if name in problems:
                    why.append(problems[name])
                elif rep.digests.get(name) != reference.get(name):
                    why.append(f"{name} differs from repetition 0")
            if why:
                failed += 1
                notes.append(f"rep {rep.index}: {' '.join(command.argv[:2])}: {'; '.join(why)}")
    return attempted, failed, notes


def median_of(reps: list[Rep], key: str) -> float:
    values = [rep.result[key] for rep in reps if rep.result is not None]
    return statistics.median(values) if values else 0.0


def lowest_decile(values: list[float]) -> float:
    """Set-up noise on a shared machine only ever adds time, and slow spells
    last minutes, so the lowest decile moves less between runs than the median."""
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else min(values, default=0.0)


def layer_metrics(reps: list[Rep]) -> dict[str, float]:
    """Per-layer numbers of each traced repetition, median over repetitions."""
    from tracing import summarize

    per_rep = []
    for rep in reps:
        if rep.traced and rep.result is not None:
            values = summarize(json.loads((rep.rundir / "spans.json").read_text()))
            values.update(rep.result["counts"])
            values["cli.csv_bytes"] = rep.csv_bytes
            per_rep.append(values)
    keys = {key for values in per_rep for key in values}
    return {key: statistics.median(values.get(key, 0.0) for values in per_rep) for key in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "minienv" / "__init__.py").is_file():
        print(f"error: no minienv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    import verify  # imports numpy and minienv, after the thread pin
    from workloads import TMAX, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args.seed, threads)
    workdir = HERE / ".work" / f"run{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups: list[float] = []
        reps = run_reps(workload, workdir, args.seconds, bool(args.trace), deadline, setups)
        problems, max_dzeta = verify.check_outputs(workload.commands, reps[0].rundir, args.seed,
                                                   TMAX)
        attempted, failed, notes = count_ops(workload, reps, problems)
        plain = [rep for rep in reps if not rep.traced]
        traced = [rep for rep in reps if rep.traced]
        left = sum(rep.result.get("wrappers_left", 0) for rep in traced if rep.result)
        if args.trace:
            values = layer_metrics(reps)
            values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
            values["verify.max_abs_dzeta"] = max_dzeta
            wanted = spec["per_layer"]
        else:
            setups += [rep.result["setup_s"] for rep in plain if rep.result is not None]
            values = {
                "wall_s": median_of(plain, "wall_s"),
                "cpu_s": median_of(plain, "cpu_s"),
                "setup_s": lowest_decile(setups),
                "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                "success_ratio": (attempted - failed) / max(attempted, 1),
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = os.getloadavg()
    env["samples"] = {
        "wall_s": [rep.result["wall_s"] for rep in plain if rep.result],
        "traced_wall_s": [rep.result["wall_s"] for rep in traced if rep.result],
        "setup_s": setups,
    }
    env["run_s"] = time.monotonic() - started
    print(json.dumps({"environment": env}))
    for note in notes:
        print(f"FAILED {note}")
    if left:
        print(f"FAILED {left} tracing wrappers left in place after the traced run")
    print(f"{args.workload}: fail_ratio {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and left == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
