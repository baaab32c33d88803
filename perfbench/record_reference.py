"""Record the reference outputs of every workload for one seed.

    python3 perfbench/record_reference.py --seed 0

Runs one pass of each workload, checks every job's expected verdicts, and
writes ``perfbench/reference/seed-<n>.json``.  Timed and traced runs compare
every pass against this file.  Re-record only in a change that means to
alter outputs, and say so in that change.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    seed = p.parse_args().seed
    run.bootstrap()
    import workloads
    recorded = {}
    for name, setup in workloads.WORKLOADS.items():
        workdir = run.BUILD_DIR / f"record-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            jobs = setup(seed, workdir)
            outputs = run.run_pass(jobs)[0]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        recorded[name] = {}
        for job, out in zip(jobs, outputs):
            if isinstance(out, run.JobError):
                raise SystemExit(f"{name}/{job.name} raised:\n{out.text}")
            out = run.plain(out)
            errors = run.mismatches(out, job.expect, None)
            if errors:
                raise SystemExit(f"{name}/{job.name}: " + "; ".join(errors))
            recorded[name][job.name] = out
    path = run.REFERENCE_DIR / f"seed-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"seed": seed, "git_commit": run.git_commit(), "src_sha256": run.source_digest(),
              "workloads": recorded}
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
