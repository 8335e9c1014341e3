"""Record the reference outputs the benchmark checks against (golden.json).

    python3 perfbench/record_golden.py

Run it on the commit whose outputs are the reference, from the root of the
checkout; it runs every operation each workload can draw, once.  The file
checked in was recorded at the commit that added the benchmark, before any
change to the package: re-record only when a change is meant to alter
results, and say so.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import run
import workloads


def main() -> int:
    run.load_package()
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    golden = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, cls in workloads.WORKLOADS.items():
                for op in cls(work).pool_ops():
                    values = workloads.extract(op, workloads.run_op(op))
                    golden[op.key] = {field: value for field, (value, _) in values.items()}
                print(f"{name}: {len(golden)} entries so far", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
