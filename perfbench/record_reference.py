"""Record the per-seed MASE of each experiment workload into reference_mase.json.

The benchmark prints its drift from these values; it does not gate on
them. Re-record only with a change that explains why MASE moved:

    python3 perfbench/record_reference.py
"""

import json
import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS.values():
        if not isinstance(workload, workloads.ExperimentWorkload):
            continue
        workdir = tempfile.mkdtemp(prefix="reference-", dir=run.ROOT)
        try:
            workload.setup(workdir, 0)
            code, _ = workload.run(workdir)
            if code != 0:
                raise SystemExit(f"{workload.name} exited with {code}")
            with open(os.path.join(workdir, "out", "report.json")) as fh:
                rows = json.load(fh)["rows"]
        finally:
            shutil.rmtree(workdir)
        reference[workload.name] = [
            {"normalizer": r["normalizer"], "gamma": r["gamma"], "per_seed": r["per_seed"]}
            for r in rows
        ]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
