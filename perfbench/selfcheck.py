"""Self-check of the benchmark: one short traced run of every workload.

    python3 perfbench/selfcheck.py

Each traced run, with the seed fixed, alternates an untraced and a traced
repetition, so it checks that both wrote byte-identical outputs, that every
tracing wrapper was removed afterwards, and that no operation failed.  Exits
0 only if every workload reports correct with a fail ratio of 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 0


def main() -> int:
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(SEED),
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=200,
        )
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        passed = bool(result and result["correct"] and result["failed"] == 0)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: "
              + (f"{result['failed']} of {result['attempted']} operations failed"
                 if result else f"exit {proc.returncode} {proc.stderr[-500:]}"))
        if not passed:
            print("\n".join(line for line in lines if line.startswith("FAILED")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
