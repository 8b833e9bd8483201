"""The three benchmark workloads: inputs, one pass, and output checks.

Every workload drives gevlab only through its public API and sees only the
inputs generated here from the seed.  A pass is a list of units run one
after another, closed loop, by one client; the runner visits them in a fresh
seed-derived order on every pass (see child.run_pass).  Each unit returns a JSON-able record of
the decisions it produced; the records of one pass are compared with the
reference table and with the theorem rules, and every later pass must
reproduce them exactly.

Inputs:

- catalog-harness: theorem_equivalence_harness over the 8 builtin_spectra()
  x beta in {1, 1.5, 2} (the criterion-1 sweep).
- classify-lattice: check_admissible on every builtin_vectors() entry, then
  vector_class for both flavors on every admissible entry x spectrum x beta
  (the criterion-7 lattice), together with estimate_order (n_max=40) on the
  k^-k and e^-sqrt(k) pair of criterion 4.
- job-stream: a seeded stream of small jobs through parse_jobspec -> run
  -> RunReport.to_json(seed_free=True) -> emit_csv; see JOB_MIX.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

BETAS = (1.0, 1.5, 2.0)
FLAVORS = ("roumieu", "beurling")

# job-stream mix: jobs per pass of each command; half of the spectrum jobs
# use random 32-point explicit spectra, half the power-law grid below.
JOB_MIX = {
    "classify-spectrum": 60,
    "classify-vector": 60,
    "evolve": 60,
    "estimate-order": 60,
    "region-boundary": 60,
}
EXPLICIT_POINTS = 32
# Power-law families lam_k = a_re k^p_re + i a_im k^p_im, as (a_re, p_re, a_im, p_im).
GRID_FAMILIES = tuple(
    [(a, pr, 1.0, pi) for a in (-1.0, 1.0) for pr in (0.5, 1.0) for pi in (0.5, 1.0, 2.0)]
    + [(-1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 2.0)]
)
# power_decay vectors |f_k| = e^{-c k^r}, as (c, r).  No r equals a growth
# exponent p/beta of the grid, so no job lands on a critical-scale tie (those
# bisect for up to 60 probes and belong to classify-lattice).
GRID_VECTORS = tuple((c, r) for c in (0.5, 2.0) for r in (0.75, 1.25, 2.5))
ESTIMATE_N_MAX = (8, 12, 16)
EVOLVE_TIMES = 3
BOUNDARY_SAMPLES = 64


def _member_str(m) -> str:
    return "unknown" if m is None else ("true" if m else "false")


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), *stream])


def _permuted(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


class Unit(NamedTuple):
    """One timed operation of a pass; `fn()` returns its record."""

    key: str
    kind: str
    fn: Callable[[], dict]


class Workload:
    name = ""
    latency_kind = ""  # the unit kind whose latency is reported

    def __init__(self, gl, seed: int, root: str):
        self.gl = gl
        self.seed = seed
        self.root = root

    def units(self, step: int, records: dict) -> list[Unit]:
        """Units of step `step` of a pass; `records` holds the earlier steps'."""
        raise NotImplementedError

    def verify(self, records: dict, reference: dict) -> dict:
        """{"rules": [...], "reference": [...]}: theorem-rule violations and
        decisions that differ from the reference table."""
        raise NotImplementedError

    def verdict_counts(self, records: dict) -> tuple[int, int]:
        """(verdicts issued, of which Unknown or inconclusive)."""
        raise NotImplementedError

    def classifications(self, records: dict) -> int:
        """Classifications issued outside vector_class (none by default)."""
        return 0

    def side(self, records: dict) -> dict:
        """Seed-free detail kept for diffing: brackets, probes, routes."""
        return {key: records[key] for key in sorted(records)}


# ---------------------------------------------------------------------------
# catalog-harness
# ---------------------------------------------------------------------------


class CatalogHarness(Workload):
    name = "catalog-harness"
    latency_kind = "harness"

    def __init__(self, gl, seed, root):
        super().__init__(gl, seed, root)
        self.spectra = gl.builtin_spectra()
        self.combos = [(name, beta) for name in self.spectra for beta in BETAS]

    def units(self, step, records):
        if step:
            return []
        return [Unit(f"{name}|{beta:g}", "harness", self._harness(name, beta)) for name, beta in self.combos]

    def _harness(self, name, beta):
        gl, spectrum = self.gl, self.spectra[name]

        def fn():
            rep = gl.theorem_equivalence_harness(spectrum, beta)
            region = "holds" if rep.region.holds else ("violated" if rep.region.violated else "unknown")
            out = {
                "region": region,
                "rows": [[r.vector, r.admissible, [[t, fl, m] for t, fl, m in r.verdicts]] for r in rep.rows],
                "counterexample": None,
            }
            ce = rep.counterexample
            if ce is not None:
                nm = ce.non_membership
                out["counterexample"] = {
                    "admissible": ce.admissibility.admissible,
                    "refuted": nm.member is False,
                    "case": ce.plan.case.value,
                    "bracket": [nm.s_star_low, nm.s_star_high],
                    "probes": len(nm.probes),
                    "routes": {f"{s:g}": [c.route, c.status.value] for s, c in sorted(ce.probe_certificates.items())},
                }
            if isinstance(rep.region.status, gl.RegionViolated):
                out["witness_points"] = len(rep.region.status.witness)
            return out

        return fn

    def verify(self, records, reference):
        rules, ref = [], []
        for key, rec in records.items():
            if "error" in rec:
                continue
            if rec["region"] == "holds":
                for label, admissible, verdicts in rec["rows"]:
                    if admissible and any(fl == "beurling" and m is not True for _, fl, m in verdicts):
                        rules.append(f"{key}: Holds but {label} not certified Beurling")
            elif rec["region"] == "violated":
                ce = rec["counterexample"]
                if ce is None or not ce["admissible"] or not ce["refuted"]:
                    rules.append(f"{key}: Violated without an admissible refuted counterexample")
            else:
                rules.append(f"{key}: region Unknown")
            want = reference.get(key)
            got = _harness_decisions(rec)
            if want != got:
                ref.append(f"{key}: expected {want}, got {got}")
        return {"rules": rules, "reference": ref}

    def verdict_counts(self, records):
        issued = unknown = 0
        for rec in records.values():
            if "error" in rec:
                continue
            issued += 1
            unknown += rec["region"] == "unknown"
            for _, _, verdicts in rec["rows"]:
                issued += len(verdicts)
                unknown += sum(m is None for _, _, m in verdicts)
            if rec["counterexample"] is not None:
                issued += 1
        return issued, unknown

    def classifications(self, records):
        # the harness classifies each admissible vector once per checked time
        return sum(len(v) // 2 for rec in records.values() if "error" not in rec for _, _, v in rec["rows"])


def _harness_decisions(rec: dict) -> dict:
    ce = rec["counterexample"]
    return {
        "region": rec["region"],
        "admissible": {label: adm for label, adm, _ in rec["rows"]},
        "member": {f"{label}|t={t:g}|{fl}": _member_str(m) for label, _, v in rec["rows"] for t, fl, m in v},
        "refuted": None if ce is None else bool(ce["admissible"] and ce["refuted"]),
    }


# ---------------------------------------------------------------------------
# classify-lattice
# ---------------------------------------------------------------------------


class ClassifyLattice(Workload):
    name = "classify-lattice"
    latency_kind = "classify"

    def __init__(self, gl, seed, root):
        super().__init__(gl, seed, root)
        self.spectra = gl.builtin_spectra()
        self.vectors = {(s, v.label): v for s, spec in self.spectra.items() for v in gl.builtin_vectors(spec)}
        speck = gl.PowerLawSpectrum(1, 1, 0, 0)

        def kk_fn(ks):
            kf = ks.astype(float)
            return -kf * np.log(kf), np.zeros(ks.shape)

        self.order_pair = {
            "k^-k": gl.CoefficientVector.custom(
                speck, kk_fn, bounds=gl.TailBounds.exact(gl.AsymForm.power_log(1.0, -1.0)), label="k^-k"
            ),
            "e^-sqrt(k)": gl.CoefficientVector.power_decay(speck, 1.0, 0.5, label="e^-sqrt(k)"),
        }

    def units(self, step, records):
        if step == 0:
            return [Unit(f"admissible|{s}|{lab}", "admissible", self._admit(s, lab)) for s, lab in self.vectors]
        if step == 1:
            units = []
            for s, lab in self.vectors:
                if records.get(f"admissible|{s}|{lab}", {}).get("admissible") is not True:
                    continue
                for beta in BETAS:
                    for fl in FLAVORS:
                        units.append(Unit(f"classify|{s}|{lab}|{beta:g}|{fl}", "classify",
                                          self._classify(s, lab, beta, fl)))
            units += [Unit(f"estimate-order|{lab}", "estimate-order", self._estimate(lab)) for lab in self.order_pair]
            return units
        return []

    def _admit(self, s, lab):
        gl, v = self.gl, self.vectors[(s, lab)]
        return lambda: {"admissible": gl.check_admissible(v).admissible}

    def _classify(self, s, lab, beta, fl):
        gl, v = self.gl, self.vectors[(s, lab)]
        flavor = gl.GevreyFlavor(fl)

        def fn():
            r = gl.vector_class(v, beta, flavor)
            return {"member": r.member, "bracket": [r.s_star_low, r.s_star_high], "probes": len(r.probes)}

        return fn

    def _estimate(self, lab):
        gl, v = self.gl, self.order_pair[lab]

        def fn():
            est = gl.estimate_order(v, n_max=40)
            return {"beta_hat": est.beta_hat, "log_norms": list(est.log_norms)}

        return fn

    def verify(self, records, reference):
        rules, ref = [], []
        members: dict = {}
        for key, rec in records.items():
            if "error" in rec:
                continue
            kind, _, rest = key.partition("|")
            if kind == "classify":
                s, lab, beta, fl = rest.split("|")
                members[(s, lab, float(beta), fl)] = rec["member"]
                got = _member_str(rec["member"])
            elif kind == "admissible":
                got = rec["admissible"]
            else:
                continue
            if reference.get(key) != got:
                ref.append(f"{key}: expected {reference.get(key)}, got {got}")
        # criterion-7 inclusion chain
        for (s, lab) in self.vectors:
            m = {(b, fl): members.get((s, lab, b, fl)) for b in BETAS for fl in FLAVORS}
            for b in BETAS:
                if m[(b, "beurling")] is True and m[(b, "roumieu")] is False:
                    rules.append(f"{s}/{lab}: Beurling({b:g}) without Roumieu({b:g})")
            for b1 in BETAS:
                for b2 in BETAS:
                    if b1 < b2 and m[(b1, "roumieu")] is True and m[(b2, "beurling")] is False:
                        rules.append(f"{s}/{lab}: Roumieu({b1:g}) but Beurling({b2:g}) refuted")
        # estimate_order norms against a dense scan of the first 2^20 terms
        ks = np.arange(1, (1 << 20) + 1, dtype=float)
        for lab, decay in (("k^-k", ks * np.log(ks)), ("e^-sqrt(k)", np.sqrt(ks))):
            rec = records.get(f"estimate-order|{lab}")
            if rec is None or "error" in rec:
                continue
            for n in (10, 40):
                terms = 2.0 * (n * np.log(ks) - decay)
                m = terms.max()
                oracle = 0.5 * (m + math.log(np.exp(terms - m).sum()))
                if abs(rec["log_norms"][n] - oracle) > 1e-8:
                    rules.append(f"estimate-order {lab}: log||A^{n} f|| differs from the dense scan")
        return {"rules": rules, "reference": ref}

    def verdict_counts(self, records):
        members = [rec["member"] for key, rec in records.items() if key.startswith("classify|") and "error" not in rec]
        return len(members), sum(m is None for m in members)


# ---------------------------------------------------------------------------
# job-stream
# ---------------------------------------------------------------------------


def _spectrum_json(family) -> dict:
    a_re, p_re, a_im, p_im = family
    return {"power_law": {"a_re": a_re, "p_re": p_re, "a_im": a_im, "p_im": p_im}}


def _random_pairs(rng, n) -> list:
    return [[float(x), float(y)] for x, y in zip(rng.normal(size=n), rng.normal(size=n))]


# (family, (c, r) or None, beta or None, n_max or None) per grid job
_JOB_GRIDS = {
    "classify-spectrum": [(f, None, b, None) for f in GRID_FAMILIES for b in BETAS],
    "classify-vector": [(f, v, b, None) for f in GRID_FAMILIES for v in GRID_VECTORS for b in BETAS],
    "evolve": [(f, v, None, None) for f in GRID_FAMILIES for v in GRID_VECTORS],
    "estimate-order": [(f, v, None, n) for f in GRID_FAMILIES for v in GRID_VECTORS for n in ESTIMATE_N_MAX],
}


def _job(rng, command: str, spectrum: dict, vector: dict, beta: float, n_max: int) -> dict:
    job = {"command": command, "spectrum": spectrum}
    if command in ("classify-spectrum", "classify-vector"):
        job["beta"] = beta
    if command != "classify-spectrum":
        job["vectors"] = [vector]
    if command == "classify-vector":
        job["flavor"] = "both"
    if command == "evolve":
        job["t_grid"] = [0.0] + sorted(float(t) for t in rng.uniform(0.0, 1.0, EVOLVE_TIMES - 1))
    if command == "estimate-order":
        job["n_max"] = n_max
    return job


def make_jobs(seed: int) -> list[dict]:
    """The seeded job stream: JOB_MIX jobs of each command."""
    rng = seeded_rng(seed)
    jobs: list[dict] = []
    for command, count in JOB_MIX.items():
        if command == "region-boundary":
            jobs += [
                {"command": command, "beta": float(rng.choice(BETAS)),
                 "b_plus": float(rng.uniform(0.1, 2.0)), "samples": BOUNDARY_SAMPLES}
                for _ in range(count)
            ]
            continue
        grid = _permuted(rng, _JOB_GRIDS[command])
        for i in range(count):
            if i % 2 == 0:
                spectrum = {"explicit": {"points": _random_pairs(rng, EXPLICIT_POINTS)}}
                vector = {"label": "rnd", "explicit": {"values": _random_pairs(rng, EXPLICIT_POINTS)}}
                jobs.append(_job(rng, command, spectrum, vector, float(rng.choice(BETAS)),
                                 int(rng.choice(ESTIMATE_N_MAX))))
            else:
                family, cr, beta, n_max = grid[(i // 2) % len(grid)]
                vector = cr and {"label": f"pd-{cr[0]:g}-{cr[1]:g}", "power_decay": {"c": cr[0], "r": cr[1]}}
                jobs.append(_job(rng, command, _spectrum_json(family), vector, beta, n_max))
    return jobs


def grid_key(job: dict) -> str | None:
    """Reference-table key of a power-law grid job's decisions, else None."""
    spec = job.get("spectrum", {}).get("power_law")
    if spec is None:
        return None
    fam = f"{spec['a_re']:g},{spec['p_re']:g},{spec['a_im']:g},{spec['p_im']:g}"
    vec = job["vectors"][0]["power_decay"] if "vectors" in job else None
    vec_s = f"|{vec['c']:g},{vec['r']:g}" if vec else ""
    beta_s = f"|{job['beta']:g}" if "beta" in job else ""
    return f"{job['command']}|{fam}{vec_s}{beta_s}"


def job_decisions(report: dict):
    """Membership decisions of a report, as stored in the reference table."""
    cmd = report["job"]["command"]
    if cmd == "classify-spectrum":
        return {"region": report["verdicts"][0]["status"]}
    if cmd == "classify-vector":
        return {"member": {v["flavor"]: _member_str(v["member"]) for v in report["verdicts"]}}
    if cmd == "evolve":
        return {"admissible": [v["admissible"] for v in report["verdicts"] if v["kind"] == "admissibility"]}
    return None


_DECISION_KINDS = ("class", "region", "admissibility", "evolve")


class JobStream(Workload):
    name = "job-stream"
    latency_kind = "job"

    def __init__(self, gl, seed, root):
        super().__init__(gl, seed, root)
        from gevlab import cli_reporting

        self.cli = cli_reporting
        self.jobs = make_jobs(seed)
        self.texts = [json.dumps(j) for j in self.jobs]
        self.csv_path = os.path.join(root, "job.csv")

    def units(self, step, records):
        if step:
            return []
        return [Unit(f"{i:04d}", "job", self._job(text)) for i, text in enumerate(self.texts)]

    def _job(self, text):
        cli, path = self.cli, self.csv_path

        def fn():
            report = cli.run(cli.parse_jobspec(text))
            payload = report.to_json(seed_free=True)
            cli.emit_csv(report, path)
            if report.status == "error":
                raise RuntimeError(f"job failed: {report.error}")
            return {"report": payload}

        return fn

    def verify(self, records, reference):
        rules, ref = [], []
        for key, rec in records.items():
            if "error" in rec:
                continue
            report = json.loads(rec["report"])
            job = self.jobs[int(key)]
            problem = _job_rule_violation(job, report)
            if problem:
                rules.append(f"job {key} ({job['command']}): {problem}")
            gk = grid_key(job)
            if gk is not None:
                got = job_decisions(report)
                if got is not None and reference.get(gk) != got:
                    ref.append(f"job {key} {gk}: expected {reference.get(gk)}, got {got}")
        return {"rules": rules, "reference": ref}

    def verdict_counts(self, records):
        issued = unknown = 0
        for rec in records.values():
            if "error" in rec:
                continue
            for v in json.loads(rec["report"])["verdicts"]:
                if v["kind"] in _DECISION_KINDS:
                    issued += 1
                    unknown += bool(v["unknown"])
        return issued, unknown

    def side(self, records):
        out = {}
        for key, rec in records.items():
            if "error" in rec:
                out[self.jobs[int(key)]["command"] + "|" + key] = rec
                continue
            report = json.loads(rec["report"])
            detail = []
            for v in report["verdicts"]:
                if v["kind"] == "class":
                    detail.append([v["flavor"], v["member"], v["s_star_low"], v["s_star_high"], len(v["probes"])])
                elif v["kind"] == "evolve":
                    detail.append([v["t"], v["certificate"]["route"], v["certificate"]["terms_used"]])
                elif v["kind"] == "order-summary":
                    detail.append(["beta_hat", v["beta_hat"]])
                elif v["kind"] in ("region", "admissibility"):
                    detail.append([v["kind"], v.get("status", v.get("admissible"))])
            out[report["job_id"]] = {"command": report["job"]["command"], "detail": detail}
        return {k: out[k] for k in sorted(out)}


def _explicit_norm(values, lams, n: int = 0, t: float = 0.0) -> float:
    """log of the l^2 norm of lam^n e^{t lam} f, computed directly."""
    f = np.asarray([complex(a, b) for a, b in values])
    lam = np.asarray([complex(a, b) for a, b in lams])
    logs = np.log(np.abs(f)) + n * np.log(np.abs(lam)) + t * lam.real
    m = logs.max()
    return float(m + 0.5 * math.log(np.sum(np.exp(2.0 * (logs - m)))))


def _job_rule_violation(job: dict, report: dict) -> str | None:
    """Checks that hold for every job, from theory or a direct computation."""
    cmd, verdicts = job["command"], report["verdicts"]
    if report["status"] != "ok":
        return f"status {report['status']}"
    if cmd == "region-boundary":
        if len(verdicts) != job["samples"]:
            return "wrong number of boundary samples"
        for v in verdicts:
            want = job["b_plus"] * abs(v["im"]) ** (1.0 / job["beta"])
            if not math.isclose(v["re"], want, rel_tol=1e-12, abs_tol=1e-300):
                return f"boundary point {v['n']} is off the curve"
        return None
    explicit = job["spectrum"].get("explicit")
    if explicit is None:
        if cmd == "estimate-order":
            summary = verdicts[-1]
            if summary["kind"] != "order-summary" or not math.isfinite(summary["beta_hat"]):
                return "no finite order estimate"
            if len(verdicts) != job["n_max"] + 2:
                return "wrong number of power norms"
        return None
    # finite spectra: bounded, so the region holds and every vector is
    # admissible and of every class
    lams = explicit["points"]
    values = job["vectors"][0]["explicit"]["values"] if "vectors" in job else None
    if cmd == "classify-spectrum":
        return None if verdicts[0]["status"] == "holds" else "finite spectrum without a Holds verdict"
    if cmd == "classify-vector":
        return None if all(v["member"] is True for v in verdicts) else "finite vector not certified a member"
    if cmd == "evolve":
        if not verdicts[0]["admissible"]:
            return "finite vector not admissible"
        for v in verdicts[1:]:
            want = _explicit_norm(values, lams, t=v["t"])
            if not math.isclose(v["log_norm"], want, rel_tol=1e-9, abs_tol=1e-9):
                return f"||y({v['t']:g})|| differs from the direct sum"
        return None
    if cmd == "estimate-order":
        for v in verdicts[:-1]:
            want = _explicit_norm(values, lams, n=v["n"])
            if not math.isclose(v["value"], want, rel_tol=1e-9, abs_tol=1e-9):
                return f"||A^{v['n']} f|| differs from the direct sum"
        return None
    return None


WORKLOADS = {w.name: w for w in (CatalogHarness, ClassifyLattice, JobStream)}
