"""Batch front end: JSON job specs in, JSON reports and CSV tables out.

Job files are parsed strictly (unknown fields and fields the command never
reads are rejected, semantic errors name the violated invariant) and reports
are reproducible byte for byte for identical inputs and tool version;
wall-clock timings are the one exception and are zeroed under --seed-free.

Exit status: 0 for clean verdicts, 2 when any verdict is Unknown, 1 on
errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

# Only what every command uses is imported here; each handler imports the
# modules its command needs where it runs, so a command loads no module it
# never calls (region-boundary loads neither spectra nor the classifier).
from .errors import GevlabError, HarnessError, JobSpecError
from .series import SeriesBudget, json_float

if TYPE_CHECKING:
    from .gevrey_classifier import GevreyVerdict
    from .spectral_core import CoefficientVector

TOOL_VERSION = "0.1.0"
FORMAT_VERSION = "1"

_CSV_COLUMNS = (
    "format_version",
    "job_id",
    "kind",
    "command",
    "spectrum",
    "vector",
    "beta",
    "flavor",
    "t",
    "n",
    "value",
    "member",
    "s_star_low",
    "s_star_high",
    "status",
    "detail",
)


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """A parsed job. `spectrum` and each of `vectors` keep the JSON object
    that parsing validated (numbers as floats, pairs as tuples, a vector's
    label defaulting to its kind), which is also their canonical form."""

    command: str
    spectrum: Optional[dict] = None
    vectors: tuple[dict, ...] = ()
    beta: Optional[float] = None
    flavor: str = "both"
    t_grid: tuple[float, ...] = ()
    p_norm: float = 2.0
    t_max: float = 100.0
    n_max: int = 40
    tol: float = 1e-10
    k_max: int = 1 << 20
    case: Optional[str] = None
    b_plus: Optional[float] = None
    im_max: float = 100.0
    samples: int = 64
    output_path: Optional[str] = None

    def to_json_dict(self) -> dict:
        """The fields that differ from their defaults, in declaration order."""
        # command has no default and always stays
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) != f.default}


def _fail(path: str, message: str):
    raise JobSpecError(f"{path}: {message}")


def _walk_obj(obj, path: str, required: dict, optional: dict) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    out = {}
    for key, value in obj.items():
        if key in required:
            out[key] = required[key](value, f"{path}.{key}")
        elif key in optional:
            out[key] = optional[key](value, f"{path}.{key}")
        else:
            _fail(path, f"unknown field {key!r}")
    for key in required:
        if key not in out:
            _fail(path, f"missing required field {key!r}")
    return out


def _real(value, path, minimum=None, maximum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer literal past the float range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        _fail(path, f"must be {'>' if strict_min else '>='} {minimum}")
    if maximum is not None and v > maximum:
        _fail(path, f"must be <= {maximum}")
    return v


def _integer(value, path, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}")
    return int(value)


_PLAIN_NUMBERS = (int, float)  # exact types: bool is an int subclass
# an explicit spectrum or vector sizes the work as samples does
_MAX_PAIRS = 1 << 16


def _pair_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of [re, im] pairs")
    if len(value) > _MAX_PAIRS:
        _fail(path, f"must hold at most {_MAX_PAIRS} pairs")
    out = []
    for i, item in enumerate(value):
        # plain finite numbers pass without building a path; anything else
        # takes the checks below, which name the element that fails
        if isinstance(item, list) and len(item) == 2:
            re, im = item
            if type(re) in _PLAIN_NUMBERS and type(im) in _PLAIN_NUMBERS:
                try:
                    re, im = float(re), float(im)
                except OverflowError:
                    re = im = math.inf
                if math.isfinite(re) and math.isfinite(im):
                    out.append((re, im))
                    continue
        if not isinstance(item, list) or len(item) != 2:
            _fail(f"{path}[{i}]", "expected a [re, im] pair")
        out.append((_real(item[0], f"{path}[{i}][0]"), _real(item[1], f"{path}[{i}][1]")))
    return tuple(out)


def _parse_spectrum(value, path) -> dict:
    got = _walk_obj(
        value,
        path,
        required={},
        optional={
            "explicit": lambda v, p: _walk_obj(v, p, {"points": _pair_list}, {}),
            "power_law": lambda v, p: _walk_obj(
                v,
                p,
                {
                    "a_re": _real,
                    "p_re": lambda x, pp: _real(x, pp, minimum=0.0),
                    "a_im": _real,
                    "p_im": lambda x, pp: _real(x, pp, minimum=0.0),
                },
                {},
            ),
        },
    )
    if len(got) != 1:
        _fail(path, "give exactly one of 'explicit' / 'power_law'")
    return got


def _parse_vector(value, path) -> dict:
    got = _walk_obj(
        value,
        path,
        required={},
        optional={
            "label": lambda v, p: v if isinstance(v, str) else _fail(p, "expected a string"),
            "explicit": lambda v, p: _walk_obj(v, p, {"values": _pair_list}, {}),
            "power_decay": lambda v, p: _walk_obj(
                v,
                p,
                {
                    "c": lambda x, pp: _real(x, pp, minimum=0.0, strict_min=True),
                    "r": lambda x, pp: _real(x, pp, minimum=0.0, strict_min=True),
                },
                {},
            ),
            "polynomial_decay": lambda v, p: _walk_obj(
                v, p, {"d": lambda x, pp: _real(x, pp, minimum=0.0, strict_min=True)}, {}
            ),
        },
    )
    kinds = [k for k in ("explicit", "power_decay", "polynomial_decay") if k in got]
    if len(kinds) != 1:
        _fail(path, "give exactly one of 'explicit' / 'power_decay' / 'polynomial_decay'")
    got.setdefault("label", kinds[0])
    return got


def _parse_vectors(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of vector specs")
    return tuple(_parse_vector(v, f"{path}[{i}]") for i, v in enumerate(value))


_FIELD_PARSERS = {
    "command": lambda v, p: v if isinstance(v, str) else _fail(p, "expected a string"),
    "spectrum": _parse_spectrum,
    "vectors": _parse_vectors,
    "beta": lambda v, p: _real(v, p),
    "flavor": lambda v, p: v if v in ("roumieu", "beurling", "both") else _fail(
        p, "must be one of 'roumieu', 'beurling', 'both'"
    ),
    "t_grid": lambda v, p: tuple(
        _real(x, f"{p}[{i}]", minimum=0.0) for i, x in enumerate(v)
    )
    if isinstance(v, list) and v
    else _fail(p, "expected a non-empty list of times >= 0"),
    "p_norm": lambda v, p: _real(v, p, minimum=1.0),
    "t_max": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    # n_max and samples size the work: each order is one series row, each
    # sample one boundary point
    "n_max": lambda v, p: _integer(v, p, minimum=1, maximum=1 << 10),
    "tol": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    # a sum read to k_max has a last block of up to k_max/2 indices: 2^22
    # keeps each within the 2^21 terms of logsumexp's grid sum, and a huge
    # k_max from asking numpy for a huge block
    "k_max": lambda v, p: _integer(v, p, minimum=1024, maximum=1 << 22),
    "case": lambda v, p: v if v in ("bounded", "unbounded") else _fail(
        p, "must be 'bounded' or 'unbounded'"
    ),
    "b_plus": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    # region-boundary samples Im through 2 im_max, which must stay finite
    "im_max": lambda v, p: _real(v, p, minimum=0.0, maximum=sys.float_info.max / 2, strict_min=True),
    "samples": lambda v, p: _integer(v, p, minimum=2, maximum=1 << 16),
    "output_path": lambda v, p: v if isinstance(v, str) else _fail(p, "expected a string"),
}

# every command accepts these: run builds its series budget from k_max and
# tol, as the CLI's --kmax and --tol overrides do for every command
_EVERY_COMMAND = ("command", "output_path", "k_max", "tol")


def parse_jobspec(text: str) -> JobSpec:
    """Strict parse: unknown and unused fields rejected, semantic errors name
    the field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobSpecError(
            f"line {exc.lineno}, column {exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise JobSpecError("invalid JSON: arrays or objects nested too deeply to parse") from exc
    got = _walk_obj(raw, "$", {"command": _FIELD_PARSERS["command"]},
                    {k: v for k, v in _FIELD_PARSERS.items() if k != "command"})
    command = got["command"]
    if command not in _COMMANDS:
        _fail("$.command", f"unknown command {command!r}; expected one of {COMMANDS}")
    _, required, optional = _COMMANDS[command]
    for name in required:
        if name not in got:
            _fail("$", f"command {command!r} requires field {name!r}")
    reads = (*_EVERY_COMMAND, *required, *optional)
    for name in got:
        if name not in reads:
            _fail(f"$.{name}", f"command {command!r} does not read this field")
    least = 1.0 if command == "region-boundary" else 0.0  # the region test's orders
    if "beta" in got and got["beta"] < least:
        _fail("$.beta", f"beta must be >= {least:g}")
    job = JobSpec(command=command, **{k: v for k, v in got.items() if k != "command"})
    if job.command == "classify-vector" and job.beta == 0.0 and job.flavor == "beurling":
        _fail("$.flavor", "beta = 0 supports only the roumieu flavor")
    return job


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_jobspec(job: JobSpec) -> str:
    return _canonical_json(job.to_json_dict())


def _job_id_of(job_dict: dict) -> str:
    """First 12 hex digits of the sha256 of the canonical job JSON."""
    return hashlib.sha256(_canonical_json(job_dict).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    job: JobSpec
    flags: dict
    verdicts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None

    # built once per report: the JSON report and every CSV row share them
    @cached_property
    def _job_dict(self) -> dict:
        return self.job.to_json_dict()

    @cached_property
    def job_id(self) -> str:
        return _job_id_of(self._job_dict)

    def to_json_dict(self, seed_free: bool = False) -> dict:
        return {
            "tool": "gsl",
            "version": TOOL_VERSION,
            "format_version": FORMAT_VERSION,
            "job_id": self.job_id,
            "job": self._job_dict,
            "flags": self.flags,
            "verdicts": self.verdicts,
            "timings": {k: 0.0 for k in self.timings} if seed_free else self.timings,
            "status": self.status,
            "error": self.error,
        }

    def to_json(self, seed_free: bool = False) -> str:
        return _canonical_json(self.to_json_dict(seed_free))


def _verdict_dict(v: GevreyVerdict, vector: str, beta: float, t: Optional[float] = None) -> dict:
    return {
        "kind": "class",
        "vector": vector,
        "beta": beta,
        "t": t,
        "flavor": v.flavor.value,
        "member": v.member,
        "s_star_low": json_float(v.s_star_low),
        "s_star_high": json_float(v.s_star_high),
        "support_bound": json_float(v.support_bound),
        "probes": [[s, st] for s, st in v.probes],
        "detail": v.detail,
        "unknown": v.member is None,
    }


def _region_dict(report, spectrum_label: str) -> dict:
    from .gevrey_classifier import RegionHolds, RegionUnknown, RegionViolated

    status = report.status
    out = {
        "kind": "region",
        "spectrum": spectrum_label,
        "beta": report.beta,
        "detail": report.detail,
        "unknown": isinstance(status, RegionUnknown),
    }
    if isinstance(status, RegionHolds):
        out.update(
            status="holds",
            b_plus=json_float(status.b_plus),
            exception_radius=json_float(status.exception_radius),
        )
    elif isinstance(status, RegionViolated):
        out.update(
            status="violated",
            witness=[[z.real, z.imag] for z in status.witness],
        )
    else:
        out.update(status="unknown", reason=status.reason)
    return out


def _build_spectrum(spec: dict):
    from .spectral_core import ExplicitSpectrum, PowerLawSpectrum

    if "explicit" in spec:
        return ExplicitSpectrum(tuple(complex(re, im) for re, im in spec["explicit"]["points"]))
    pl = spec["power_law"]
    return PowerLawSpectrum(pl["a_re"], pl["p_re"], pl["a_im"], pl["p_im"])


def _build_vector(spec: dict, spectrum, p: float) -> CoefficientVector:
    from .spectral_core import CoefficientVector

    label = spec["label"]
    if "explicit" in spec:
        values = [complex(re, im) for re, im in spec["explicit"]["values"]]
        return CoefficientVector.explicit(spectrum, values=values, p=p, label=label)
    if "power_decay" in spec:
        pd = spec["power_decay"]
        return CoefficientVector.power_decay(spectrum, pd["c"], pd["r"], p=p, label=label)
    d = spec["polynomial_decay"]["d"]
    return CoefficientVector.polynomial_decay(spectrum, d, p=p, label=label)


def run(job: JobSpec, budget: Optional[SeriesBudget] = None, flags: Optional[dict] = None) -> RunReport:
    """Execute a parsed job; math failures become structured errors."""
    if budget is None:
        budget = SeriesBudget(job.k_max, job.tol)
    report = RunReport(job=job, flags=flags or {})
    t0 = time.perf_counter()
    try:
        if job.command not in _COMMANDS:
            raise JobSpecError(f"unhandled command {job.command!r}")
        _COMMANDS[job.command][0](job, budget, report)
    except HarnessError as exc:
        report.status = "error"
        report.error = f"harness inconsistency: {exc}"
    except (GevlabError, ValueError) as exc:
        report.status = "error"
        report.error = str(exc)
    report.timings["run_s"] = time.perf_counter() - t0
    if report.status == "ok" and any(v.get("unknown") for v in report.verdicts):
        report.status = "unknown"
    return report


def _classify_spectrum(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    from .gevrey_classifier import region_condition

    spectrum = _build_spectrum(job.spectrum)
    region = region_condition(spectrum, job.beta)
    report.verdicts.append(_region_dict(region, spectrum.label))


def _classify_vector(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    # one classification decides both flavors, as in the harness
    from .gevrey_classifier import _classify_both, vector_class_beta0

    spectrum = _build_spectrum(job.spectrum)
    for vs in job.vectors:
        vec = _build_vector(vs, spectrum, job.p_norm)
        if job.beta == 0.0:
            v = vector_class_beta0(vec)
            report.verdicts.append(_verdict_dict(v, vec.label, 0.0))
        else:
            for v in _classify_both(vec, job.beta):  # Roumieu, then Beurling
                if job.flavor in ("both", v.flavor.value):
                    report.verdicts.append(_verdict_dict(v, vec.label, job.beta))


def _evolve(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    from .evolution import SolutionHandle, check_admissible, solve

    spectrum = _build_spectrum(job.spectrum)
    for vs in job.vectors:
        vec = _build_vector(vs, spectrum, job.p_norm)
        cert = check_admissible(vec, job.t_max)
        report.verdicts.append(
            {
                "kind": "admissibility",
                "vector": vec.label,
                "admissible": cert.admissible,
                "tail_rule": cert.detail,
                "checked_times": list(cert.checked_times),
                "unknown": cert.unknown,
            }
        )
        if not cert.admissible:
            continue
        handle = SolutionHandle(vec, cert)
        for t in job.t_grid:
            y = solve(handle, t)
            log_norm, ncert = y.log_norm(budget)
            entry = {
                "kind": "evolve",
                "vector": vec.label,
                "t": t,
                "log_norm": json_float(log_norm),
                "certificate": ncert.to_dict(),
                "unknown": ncert.status.value == "inconclusive",
            }
            if spectrum.size is not None and spectrum.size <= 64:
                coords = y.to_complex(np.arange(1, spectrum.size + 1, dtype=np.int64))
                entry["coords"] = [[json_float(z.real), json_float(z.imag)] for z in coords]
            report.verdicts.append(entry)


def _estimate_order(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    from .gevrey_classifier import estimate_order

    spectrum = _build_spectrum(job.spectrum)
    for vs in job.vectors:
        vec = _build_vector(vs, spectrum, job.p_norm)
        est = estimate_order(vec, n_max=job.n_max, budget=budget)
        for n, value in enumerate(est.log_norms):
            report.verdicts.append(
                {"kind": "norm", "vector": vec.label, "n": n, "value": json_float(value)}
            )
        report.verdicts.append(
            {
                "kind": "order-summary",
                "vector": vec.label,
                "beta_hat": est.beta_hat,
                "alpha_hat": json_float(est.alpha_hat),
                "fit_residual": json_float(est.fit_residual),
                "n_range": list(est.n_range),
            }
        )


def _counterexample(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    from .counterexamples import PlanCase, build_counterexample, build_violating_spectrum, plan_for_spectrum

    case = PlanCase.BOUNDED_REAL_PARTS if job.case == "bounded" else PlanCase.UNBOUNDED_REAL_PARTS
    if job.spectrum is not None:
        plan = plan_for_spectrum(_build_spectrum(job.spectrum), job.beta, case)
    else:
        plan = build_violating_spectrum(job.beta, case)
    art = build_counterexample(plan)
    entry = _counterexample_dict(art)
    entry["probe_certificates"] = {f"{s:g}": c.to_dict() for s, c in art.probe_certificates.items()}
    entry["log_l_bound"] = json_float(art.log_l_bound)
    report.verdicts.append(entry)


def _counterexample_dict(art) -> dict:
    """The verdict of a counterexample: its plan and both checks."""
    return {
        "kind": "counterexample",
        "spectrum": art.plan.spectrum.label,
        "beta": art.plan.beta,
        "case": art.plan.case.value,
        "admissible": art.admissibility.admissible,
        "roumieu_member": art.non_membership.member,
        "unknown": False,
    }


def _harness(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    from .gevrey_classifier import theorem_equivalence_harness

    spectrum = _build_spectrum(job.spectrum)
    vecs = None
    if job.vectors:
        vecs = [_build_vector(vs, spectrum, job.p_norm) for vs in job.vectors]
    hr = theorem_equivalence_harness(spectrum, job.beta, vecs)
    report.verdicts.append(_region_dict(hr.region, hr.spectrum))
    for row in hr.rows:
        report.verdicts.append(
            {
                "kind": "harness-row",
                "vector": row.vector,
                "admissible": row.admissible,
                "verdicts": [[t, fl, m] for t, fl, m in row.verdicts],
                "unknown": row.admissible_unknown
                or any(m is None for _, _, m in row.verdicts),
            }
        )
    if hr.counterexample is not None:
        report.verdicts.append(_counterexample_dict(hr.counterexample))


def _region_boundary(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    # sampled boundary Re = b_plus * |Im|^{1/beta} for external plotting
    beta, b_plus = job.beta, job.b_plus
    n = job.samples
    for i in range(n):
        im = -job.im_max + 2.0 * job.im_max * i / (n - 1)
        re = b_plus * abs(im) ** (1.0 / beta)
        report.verdicts.append(
            {"kind": "boundary", "n": i, "im": im, "re": json_float(re), "unknown": False}
        )


# command: (handler, required fields, optional fields besides _EVERY_COMMAND).
# A handler appends each verdict to the report as it makes it, so an error
# report keeps the verdicts made before the error.  Only evolve norms and
# estimate-order power norms resolve series values, so only their handlers
# read the budget.
_COMMANDS = {
    "classify-spectrum": (_classify_spectrum, ("spectrum", "beta"), ()),
    "classify-vector": (_classify_vector, ("spectrum", "vectors", "beta"), ("flavor", "p_norm")),
    "evolve": (_evolve, ("spectrum", "vectors", "t_grid"), ("p_norm", "t_max")),
    "estimate-order": (_estimate_order, ("spectrum", "vectors"), ("p_norm", "n_max")),
    "counterexample": (_counterexample, ("beta", "case"), ("spectrum",)),
    "harness": (_harness, ("spectrum", "beta"), ("vectors", "p_norm")),
    "region-boundary": (_region_boundary, ("beta", "b_plus"), ("im_max", "samples")),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _csv_rows(report: RunReport):
    """One list per verdict, in _CSV_COLUMNS order."""
    jid = report.job_id
    cmd = report.job.command
    beta = _fmt(report.job.beta)
    spectrum_label = next((v["spectrum"] for v in report.verdicts if "spectrum" in v), "")

    def row(kind, vector="", flavor="", t="", n="", value="", member="",
            s_star_low="", s_star_high="", status="", detail=""):
        return [FORMAT_VERSION, jid, kind, cmd, spectrum_label, vector, beta, flavor, t, n,
                value, member, s_star_low, s_star_high, status, detail]

    for v in report.verdicts:
        kind = v.get("kind", "")
        if kind == "class":
            yield row(
                kind,
                vector=v["vector"],
                flavor=v["flavor"],
                t=_fmt(v.get("t")),
                member=_fmt_member(v["member"]),
                s_star_low=_fmt(v["s_star_low"]),
                s_star_high=_fmt(v["s_star_high"]),
                status="certified" if v["member"] is not None else "unknown",
                detail=v["detail"],
            )
        elif kind == "region":
            yield row(kind, status=v["status"], value=_fmt(v.get("b_plus")), detail=v["detail"])
        elif kind == "admissibility":
            yield row(
                kind,
                vector=v["vector"],
                member=_fmt_member(v["admissible"]),
                status="certified" if not v["unknown"] else "unknown",
                detail=v["tail_rule"],
            )
        elif kind == "evolve":
            yield row(
                kind,
                vector=v["vector"],
                t=_fmt(v["t"]),
                value=_fmt(v["log_norm"]),
                status=v["certificate"]["status"],
            )
        elif kind == "norm":
            yield row(kind, vector=v["vector"], n=_fmt(v["n"]), value=_fmt(v["value"]))
        elif kind == "order-summary":
            yield row(
                kind,
                vector=v["vector"],
                value=_fmt(v["beta_hat"]),
                detail=f"alpha_hat={_fmt_g(v['alpha_hat'], 6)};residual={_fmt_g(v['fit_residual'], 3)}",
                status="fit",
            )
        elif kind == "counterexample":
            yield row(
                kind,
                vector="ce-f",
                member=_fmt_member(v["roumieu_member"]),
                status="admissible" if v["admissible"] else "inadmissible",
                detail=f"case={v['case']}",
            )
        elif kind == "harness-row":
            ok = v["admissible"] and all(m is not None for _, _, m in v["verdicts"])
            yield row(
                kind,
                vector=v["vector"],
                member=_fmt_member(v["admissible"]),
                status="consistent" if ok else ("skipped" if not v["admissible"] else "unknown"),
                detail=";".join(f"t={t:g},{fl}:{_fmt_member(m)}" for t, fl, m in v["verdicts"]),
            )
        elif kind == "boundary":
            yield row(kind, n=_fmt(v["n"]), value=_fmt(v["re"]), detail=f"im={v['im']:.17g}")
        else:
            yield row(kind, detail=json.dumps(v, sort_keys=True))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _fmt_g(x, digits: int) -> str:
    """x to `digits` significant digits; json_float's null and strings as _fmt."""
    return f"{x:.{digits}g}" if isinstance(x, float) else _fmt(x)


def _fmt_member(m) -> str:
    if m is None:
        return "unknown"
    return "true" if m else "false"


def _open_without_truncate(path: str, flags: int) -> int:
    # mode 0o666, as open() uses: os.open's default 0o777 would make a new
    # file executable
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _written_over(path: str, **kwargs):
    """Open `path` for text writing over its old bytes; truncate at the end.

    The file is never truncated to zero first: on ext4 closing a file that
    was truncated to zero starts writeback (auto_da_alloc), which costs
    several times the write itself.  Special files such as /dev/null or a
    pipe cannot be truncated and need not be.
    """
    with open(path, "w", opener=_open_without_truncate, **kwargs) as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def emit_csv(report: RunReport, path: str) -> None:
    """One row per verdict with a fixed, versioned column set.

    The table is written over the old file, which is truncated after the
    last row, never to zero first.  The write is not atomic (no fsync, no
    rename): a crash mid-write can leave new rows followed by the old
    file's tail.  A caller who needs atomic output writes to a temporary
    path and renames it.
    """
    try:
        with _written_over(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows(_csv_rows(report))
    except OSError as exc:
        raise GevlabError(f"cannot write CSV to {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsl",
        description="Spectral-operator laboratory: classify, evolve, construct.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--job", required=True, help="path to a JSON job file")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--report", help="JSON report path (default: stdout)")
    parser.add_argument("--seed-free", action="store_true", help="zero timings for byte-stable reports")
    parser.add_argument("--tol", type=float, help="relative tolerance of evolve and estimate-order norms")
    parser.add_argument("--kmax", type=int, help="most terms summed for a norm")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    t_parse = time.perf_counter()
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise JobSpecError(f"{args.job}: the job file is not UTF-8 text: {exc}") from exc
        job = parse_jobspec(text)
        if job.command != args.command:
            raise JobSpecError(
                f"command mismatch: CLI says {args.command!r}, job file says {job.command!r}"
            )
        # the overrides obey the job file's rules for k_max and tol
        k_max, tol = job.k_max, job.tol
        if args.kmax is not None:
            k_max = _FIELD_PARSERS["k_max"](args.kmax, "--kmax")
        if args.tol is not None:
            tol = _FIELD_PARSERS["tol"](args.tol, "--tol")
    except (OSError, JobSpecError) as exc:
        print(json.dumps({"status": "error", "error": str(exc)}), file=sys.stderr)
        return 1
    parse_s = time.perf_counter() - t_parse
    budget = SeriesBudget(k_max, tol)
    flags = {
        "tol": tol,
        "kmax": k_max,
        "seed_free": bool(args.seed_free),
        "out": args.out,
    }

    report = run(job, budget, flags)
    report.timings["parse_s"] = parse_s
    payload = report.to_json(seed_free=args.seed_free)
    try:
        if args.report:
            with _written_over(args.report, encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
        out_path = args.out or job.output_path
        if out_path and report.status != "error":
            emit_csv(report, out_path)
    except (OSError, GevlabError) as exc:
        print(json.dumps({"status": "error", "error": str(exc)}), file=sys.stderr)
        return 1

    if report.status == "error":
        print(json.dumps({"status": "error", "error": report.error}), file=sys.stderr)
        return 1
    return 2 if report.status == "unknown" else 0


if __name__ == "__main__":
    sys.exit(main())
