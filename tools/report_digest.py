"""Digests of the job-stream reports and CSV rows, for byte-identity checks.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/report_digest.py

Runs every job of make_jobs(1) + make_jobs(2) (perfbench/workloads.py, the
job-stream workload's seeded jobs) through parse_jobspec -> run ->
to_json(seed_free=True) -> emit_csv, in process.  It prints one JSON line:

- `reports_sha256`: the sha256 of the reports, one per line;
- `csv_sha256`: the sha256 of the CSV files, one per job, in job order;
- `jobs`: the number of jobs.

A change that should leave every report and CSV row as it was prints the
same line as its parent revision.  Standard library and gevlab only; the
checkout's src/ goes first on sys.path.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import tempfile


def _make_jobs(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_jobs


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gevlab", "cli_reporting.py")):
        print("report_digest.py: run from the root of a gevlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from gevlab import cli_reporting as cli

    make_jobs = _make_jobs(root)
    jobs = make_jobs(1) + make_jobs(2)
    reports, rows = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.csv")
        for job in jobs:
            report = cli.run(cli.parse_jobspec(json.dumps(job)))
            reports.update(report.to_json(seed_free=True).encode() + b"\n")
            cli.emit_csv(report, path)
            with open(path, "rb") as fh:
                rows.update(fh.read())
    print(json.dumps({
        "csv_sha256": rows.hexdigest(),
        "jobs": len(jobs),
        "reports_sha256": reports.hexdigest(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
