"""Record the reference output digests at the reference seed.

    python3 perfbench/record_reference.py

Runs every op of every workload once at seed 0, refuses to record if any
output check fails, and rewrites reference_digests.json.  Re-record only
when a change to the program is meant to change its CLI output, and say
why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    digests = {}
    ok = True
    for workload in sorted(run.WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=scratch))
        try:
            gk, ops, _ = run.setup(workload, run.REFERENCE_SEED, work, 1)
            outcomes = run.Outcomes(ops, {})
            for op in ops:
                _, status, stdout, stderr = run.run_op(gk.cli.main, op)
                outcomes.record(op, status, stdout, stderr)
            outcomes.finish()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for op_id, problems in sorted(outcomes.problems.items()):
            print(f"{workload} {op_id}: {'; '.join(problems)}", file=sys.stderr)
        ok = ok and not outcomes.problems
        digests[workload] = dict(sorted(outcomes.digests.items()))
    if not ok:
        print("not recorded: some outputs fail their checks", file=sys.stderr)
        return 1
    run.REFERENCE_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
