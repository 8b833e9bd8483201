"""Record the reference tables of membership decisions.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.json from the gevlab in src/: region
status, member per flavor, admissibility and refutation for every input a
workload can draw.  The tables are the benchmark's memory of the decisions
at the revision that recorded them; re-record only when a change of
decisions is intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, here)

import gevlab as gl  # noqa: E402
from gevlab import cli_reporting  # noqa: E402

from child import run_pass  # noqa: E402
from workloads import (  # noqa: E402
    BETAS,
    GRID_FAMILIES,
    GRID_VECTORS,
    CatalogHarness,
    ClassifyLattice,
    _harness_decisions,
    _member_str,
    _spectrum_json,
    grid_key,
    job_decisions,
)


def _checked_pass(workload) -> dict:
    records, _, _, failed, _ = run_pass(workload, 0, {})
    if failed:
        raise SystemExit(f"{workload.name}: {failed} operations failed; not recording")
    return records


def harness_table() -> dict:
    records = _checked_pass(CatalogHarness(gl, 0, here))
    return {key: _harness_decisions(rec) for key, rec in records.items()}


def lattice_table() -> dict:
    table = {}
    for key, rec in _checked_pass(ClassifyLattice(gl, 0, here)).items():
        if key.startswith("classify|"):
            table[key] = _member_str(rec["member"])
        elif key.startswith("admissible|"):
            table[key] = rec["admissible"]
    return table


def job_grid_table() -> dict:
    jobs = [{"command": "classify-spectrum", "spectrum": _spectrum_json(f), "beta": b}
            for f in GRID_FAMILIES for b in BETAS]
    for f in GRID_FAMILIES:
        for c, r in GRID_VECTORS:
            vec = [{"label": f"pd-{c:g}-{r:g}", "power_decay": {"c": c, "r": r}}]
            jobs += [{"command": "classify-vector", "spectrum": _spectrum_json(f), "vectors": vec,
                      "beta": b, "flavor": "both"} for b in BETAS]
            jobs.append({"command": "evolve", "spectrum": _spectrum_json(f), "vectors": vec,
                         "t_grid": [0.0, 0.5, 1.0]})
    table = {}
    for job in jobs:
        report = json.loads(cli_reporting.run(cli_reporting.parse_jobspec(json.dumps(job))).to_json(seed_free=True))
        if report["status"] == "error":
            raise SystemExit(f"grid job failed: {job}: {report['error']}")
        table[grid_key(job)] = job_decisions(report)
    return table


def main() -> int:
    out_dir = os.path.join(here, "reference")
    os.makedirs(out_dir, exist_ok=True)
    for name, build in (("catalog-harness", harness_table), ("classify-lattice", lattice_table),
                        ("job-stream", job_grid_table)):
        table = build()
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{name}: {len(table)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
