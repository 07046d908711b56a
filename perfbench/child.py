"""One repetition of a workload, in a fresh Python process.

    python3 perfbench/child.py --rundir DIR --spawned-at T [--trace] [--probe]

T is the parent's `time.monotonic()` just before it started this process, so
set-up time covers interpreter start and `import minienv.cli`.  With `--probe`
the child stops there.  Otherwise it runs the command list in DIR/commands.json
through `minienv.cli.main` with DIR as working directory, and writes
DIR/result.json (and, with `--trace`, the spans to DIR/spans.json).
"""

from __future__ import annotations

import sys
import time


def _run_command(cli, argv: list[str]) -> dict:
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed operation; the run goes on
        import traceback

        code = None
        err.write(traceback.format_exc())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def main() -> int:
    argv = sys.argv[1:]
    spawned_at = float(argv[argv.index("--spawned-at") + 1])
    import minienv.cli as cli

    setup_s = time.monotonic() - spawned_at
    # the harness's own imports come after the set-up time is taken
    import json
    import os
    import resource
    from pathlib import Path

    rundir = Path(argv[argv.index("--rundir") + 1])
    result: dict = {"setup_s": setup_s}
    if "--probe" not in argv:
        os.chdir(rundir)
        commands = json.loads(Path("commands.json").read_text())
        tracer = None
        if "--trace" in argv:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result["commands"] = [_run_command(cli, command) for command in commands]
        result["wall_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            result["wrappers_left"] = tracer.uninstall()
            result["counts"] = tracer.counts
            Path("spans.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
