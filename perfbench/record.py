"""Record the reference answers that the benchmark's pool jobs are checked
against, by running each pool job once through the CLI:

    python3 perfbench/record.py

Run it only at a commit whose outputs are trusted (it was run at the commit
that added the benchmark); the reference file then pins those outputs, to
the tolerances stated in workloads.py.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    env, _ = run.program_env()
    with tempfile.TemporaryDirectory(prefix=".perfbench-run-", dir=run.ROOT) as workdir:
        runner = run.Runner(env, Path(workdir))
        run.check_program(runner)

        def artifact(argv) -> str:
            code, out, err, _, _ = runner.run([sys.executable, "-m", "vecmag.cli", *argv])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {code}: {err}")
            return out

        jobs = {}
        for kind, size in workloads.POOL_SIZES.items():
            for argv in workloads.pool(kind, size):
                jobs[" ".join(argv)] = workloads.artifact_values(argv[0], artifact(argv))
        scaling = {}
        for duration in workloads.SCALING_DURATIONS:
            rows = workloads.artifact_values("scaling", artifact(workloads.scaling_argv(duration)))
            scaling[duration] = {f"{probe},{n}": values for n, probe, *values in rows}
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "scaling": scaling}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} jobs and {len(scaling)} scaling tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
