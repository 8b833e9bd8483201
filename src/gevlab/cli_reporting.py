"""Batch front end: JSON job specs in, JSON reports and CSV tables out.

Job files are parsed strictly (unknown fields are rejected, semantic errors
name the violated invariant) and reports are reproducible byte for byte for
identical inputs and tool version; wall-clock timings are the one exception
and are zeroed under --seed-free.

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
import sys
import time

import numpy as np
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

from .counterexamples import (
    PlanCase,
    build_counterexample,
    build_violating_spectrum,
    plan_for_spectrum,
)
from .errors import GevlabError, HarnessError, JobSpecError
from .evolution import SolutionHandle, check_admissible, solve
from .gevrey_classifier import (
    GevreyFlavor,
    GevreyVerdict,
    RegionHolds,
    RegionUnknown,
    RegionViolated,
    estimate_order,
    region_condition,
    theorem_equivalence_harness,
    vector_class,
    vector_class_beta0,
)
from .series import SeriesBudget, json_float
from .spectral_core import CoefficientVector, ExplicitSpectrum, PowerLawSpectrum

TOOL_VERSION = "0.1.0"
FORMAT_VERSION = "1"

COMMANDS = (
    "classify-spectrum",
    "classify-vector",
    "evolve",
    "estimate-order",
    "counterexample",
    "harness",
    "region-boundary",
)

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
class SpectrumSpec:
    kind: str  # "explicit" | "power_law"
    points: tuple[tuple[float, float], ...] = ()
    params: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def build(self):
        if self.kind == "explicit":
            return ExplicitSpectrum(tuple(complex(re, im) for re, im in self.points))
        a_re, p_re, a_im, p_im = self.params
        return PowerLawSpectrum(a_re, p_re, a_im, p_im)

    def to_json(self) -> dict:
        if self.kind == "explicit":
            return {"explicit": {"points": [[re, im] for re, im in self.points]}}
        a_re, p_re, a_im, p_im = self.params
        return {"power_law": {"a_re": a_re, "p_re": p_re, "a_im": a_im, "p_im": p_im}}


@dataclass(frozen=True)
class VectorSpec:
    label: str
    kind: str  # "explicit" | "power_decay" | "polynomial_decay"
    values: tuple[tuple[float, float], ...] = ()
    c: float = 0.0
    r: float = 0.0
    d: float = 0.0

    def build(self, spectrum, p: float) -> CoefficientVector:
        if self.kind == "explicit":
            return CoefficientVector.explicit(
                spectrum, values=[complex(re, im) for re, im in self.values],
                p=p, label=self.label,
            )
        if self.kind == "power_decay":
            return CoefficientVector.power_decay(spectrum, self.c, self.r, p=p, label=self.label)
        return CoefficientVector.polynomial_decay(spectrum, self.d, p=p, label=self.label)

    def to_json(self) -> dict:
        out: dict = {"label": self.label}
        if self.kind == "explicit":
            out["explicit"] = {"values": [[re, im] for re, im in self.values]}
        elif self.kind == "power_decay":
            out["power_decay"] = {"c": self.c, "r": self.r}
        else:
            out["polynomial_decay"] = {"d": self.d}
        return out


@dataclass(frozen=True)
class JobSpec:
    command: str
    spectrum: Optional[SpectrumSpec] = None
    vectors: tuple[VectorSpec, ...] = ()
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
        out: dict = {}
        for fld in fields(self):
            value = getattr(self, fld.name)
            if value == fld.default:  # command has no default and always stays
                continue
            if fld.name == "spectrum":
                value = value.to_json()
            elif fld.name == "vectors":
                value = [v.to_json() for v in value]
            elif fld.name == "t_grid":
                value = list(value)
            out[fld.name] = value
        return out


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


def _integer(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    return int(value)


_PLAIN_NUMBERS = (int, float)  # exact types: bool is an int subclass


def _pair_list(value, path):
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list of [re, im] pairs")
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


def _parse_spectrum(value, path) -> SpectrumSpec:
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
    if "explicit" in got:
        return SpectrumSpec("explicit", points=got["explicit"]["points"])
    pl = got["power_law"]
    return SpectrumSpec("power_law", params=(pl["a_re"], pl["p_re"], pl["a_im"], pl["p_im"]))


def _parse_vector(value, path) -> VectorSpec:
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
    kind = kinds[0]
    label = got.get("label", kind)
    if kind == "explicit":
        return VectorSpec(label, "explicit", values=got["explicit"]["values"])
    if kind == "power_decay":
        return VectorSpec(label, "power_decay", c=got["power_decay"]["c"], r=got["power_decay"]["r"])
    return VectorSpec(label, "polynomial_decay", d=got["polynomial_decay"]["d"])


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
    "n_max": lambda v, p: _integer(v, p, minimum=1),
    "tol": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    "k_max": lambda v, p: _integer(v, p, minimum=1024),
    "case": lambda v, p: v if v in ("bounded", "unbounded") else _fail(
        p, "must be 'bounded' or 'unbounded'"
    ),
    "b_plus": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    "im_max": lambda v, p: _real(v, p, minimum=0.0, strict_min=True),
    "samples": lambda v, p: _integer(v, p, minimum=2),
    "output_path": lambda v, p: v if isinstance(v, str) else _fail(p, "expected a string"),
}

_REQUIRED = {
    "classify-spectrum": ("spectrum", "beta"),
    "classify-vector": ("spectrum", "vectors", "beta"),
    "evolve": ("spectrum", "vectors", "t_grid"),
    "estimate-order": ("spectrum", "vectors"),
    "counterexample": ("beta", "case"),
    "harness": ("spectrum", "beta"),
    "region-boundary": ("beta", "b_plus"),
}


def parse_jobspec(text: str) -> JobSpec:
    """Strict parse: unknown fields rejected, semantic errors name the field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobSpecError(
            f"line {exc.lineno}, column {exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    got = _walk_obj(raw, "$", {"command": _FIELD_PARSERS["command"]},
                    {k: v for k, v in _FIELD_PARSERS.items() if k != "command"})
    command = got["command"]
    if command not in COMMANDS:
        _fail("$.command", f"unknown command {command!r}; expected one of {COMMANDS}")
    for name in _REQUIRED[command]:
        if name not in got:
            _fail("$", f"command {command!r} requires field {name!r}")
    if "beta" in got and got["beta"] < 0:
        _fail("$.beta", "beta must be >= 0")
    job = JobSpec(command=command, **{k: v for k, v in got.items() if k != "command"})
    if job.command == "classify-vector" and job.beta == 0.0 and job.flavor == "beurling":
        _fail("$.flavor", "beta = 0 supports only the roumieu flavor")
    return job


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_jobspec(job: JobSpec) -> str:
    return _canonical_json(job.to_json_dict())


def _job_id_of(job_dict: dict) -> str:
    return hashlib.sha256(_canonical_json(job_dict).encode()).hexdigest()[:12]


def job_id(job: JobSpec) -> str:
    """First 12 hex digits of the sha256 of the canonical job JSON."""
    return _job_id_of(job.to_json_dict())


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
    status = report.status
    out = {
        "kind": "region",
        "spectrum": spectrum_label,
        "beta": report.beta,
        "detail": report.detail,
        "ratio_tail": {
            "count": report.ratio_tail.count,
            "finite": report.ratio_tail.finite,
            "min": json_float(report.ratio_tail.min),
            "max": json_float(report.ratio_tail.max),
            "tail_min": json_float(report.ratio_tail.tail_min),
            "tail_max": json_float(report.ratio_tail.tail_max),
        },
        "unknown": isinstance(status, RegionUnknown),
    }
    if isinstance(status, RegionHolds):
        out.update(status="holds", b_plus=status.b_plus, exception_radius=status.exception_radius)
    elif isinstance(status, RegionViolated):
        out.update(
            status="violated",
            witness=[[z.real, z.imag] for z in status.witness],
        )
    else:
        out.update(status="unknown", reason=status.reason)
    return out


def _flavors(job: JobSpec):
    if job.flavor == "both":
        return (GevreyFlavor.ROUMIEU, GevreyFlavor.BEURLING)
    return (GevreyFlavor.ROUMIEU if job.flavor == "roumieu" else GevreyFlavor.BEURLING,)


def run(job: JobSpec, budget: Optional[SeriesBudget] = None, flags: Optional[dict] = None) -> RunReport:
    """Execute a parsed job; math failures become structured errors."""
    if budget is None:
        budget = SeriesBudget(job.k_max, job.tol)
    report = RunReport(job=job, flags=flags or {})
    t0 = time.perf_counter()
    try:
        _dispatch(job, budget, report)
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


def _dispatch(job: JobSpec, budget: SeriesBudget, report: RunReport) -> None:
    """Run one command; only evolve norms and estimate-order power norms
    resolve series values, so only they read the budget."""
    cmd = job.command
    if cmd == "classify-spectrum":
        spectrum = job.spectrum.build()
        region = region_condition(spectrum, job.beta)
        report.verdicts.append(_region_dict(region, spectrum.label))
        return

    if cmd == "classify-vector":
        spectrum = job.spectrum.build()
        for vs in job.vectors:
            vec = vs.build(spectrum, job.p_norm)
            if job.beta == 0.0:
                v = vector_class_beta0(vec)
                report.verdicts.append(_verdict_dict(v, vec.label, 0.0))
            else:
                for flavor in _flavors(job):
                    v = vector_class(vec, job.beta, flavor)
                    report.verdicts.append(_verdict_dict(v, vec.label, job.beta))
        return

    if cmd == "evolve":
        spectrum = job.spectrum.build()
        for vs in job.vectors:
            vec = vs.build(spectrum, job.p_norm)
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
                    entry["coords"] = [[z.real, z.imag] for z in coords]
                report.verdicts.append(entry)
        return

    if cmd == "estimate-order":
        spectrum = job.spectrum.build()
        for vs in job.vectors:
            vec = vs.build(spectrum, job.p_norm)
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
                    "alpha_hat": est.alpha_hat,
                    "fit_residual": est.fit_residual,
                    "n_range": list(est.n_range),
                }
            )
        return

    if cmd == "counterexample":
        case = PlanCase.BOUNDED_REAL_PARTS if job.case == "bounded" else PlanCase.UNBOUNDED_REAL_PARTS
        if job.spectrum is not None:
            plan = plan_for_spectrum(job.spectrum.build(), job.beta, case)
        else:
            plan = build_violating_spectrum(job.beta, case)
        art = build_counterexample(plan)
        report.verdicts.append(
            {
                "kind": "counterexample",
                "spectrum": plan.spectrum.label,
                "beta": job.beta,
                "case": job.case,
                "admissible": art.admissibility.admissible,
                "roumieu_member": art.non_membership.member,
                "probe_certificates": {
                    f"{s:g}": c.to_dict() for s, c in art.probe_certificates.items()
                },
                "l_bound": json_float(art.l_bound),
                "unknown": False,
            }
        )
        return

    if cmd == "harness":
        spectrum = job.spectrum.build()
        vecs = None
        if job.vectors:
            vecs = [vs.build(spectrum, job.p_norm) for vs in job.vectors]
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
            report.verdicts.append(
                {
                    "kind": "counterexample",
                    "spectrum": hr.counterexample.spectrum.label,
                    "beta": job.beta,
                    "case": hr.counterexample.plan.case.value,
                    "admissible": hr.counterexample.admissibility.admissible,
                    "roumieu_member": hr.counterexample.non_membership.member,
                    "unknown": False,
                }
            )
        return

    if cmd == "region-boundary":
        # sampled boundary Re = b_plus * |Im|^{1/beta} for external plotting
        beta, b_plus = job.beta, job.b_plus
        n = job.samples
        for i in range(n):
            im = -job.im_max + 2.0 * job.im_max * i / (n - 1)
            re = b_plus * abs(im) ** (1.0 / beta)
            report.verdicts.append(
                {"kind": "boundary", "n": i, "im": im, "re": re, "unknown": False}
            )
        return

    raise JobSpecError(f"unhandled command {cmd!r}")


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
                detail=f"alpha_hat={v['alpha_hat']:.6g};residual={v['fit_residual']:.3g}",
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


def _fmt_member(m) -> str:
    if m is None:
        return "unknown"
    return "true" if m else "false"


def emit_csv(report: RunReport, path: str) -> None:
    """One row per verdict with a fixed, versioned column set."""
    try:
        with open(path, "w", newline="") as fh:
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
    parser.add_argument("--kmax", type=int, help="most terms summed for a norm (also: GSL_KMAX)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    t_parse = time.perf_counter()
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            text = fh.read()
        job = parse_jobspec(text)
        if job.command != args.command:
            raise JobSpecError(
                f"command mismatch: CLI says {args.command!r}, job file says {job.command!r}"
            )
        # the overrides obey the job file's rules for k_max and tol
        k_max, tol = job.k_max, job.tol
        env_k = os.environ.get("GSL_KMAX")
        if env_k is not None:
            try:
                env_k = int(env_k)
            except ValueError:
                _fail("GSL_KMAX", "expected an integer")
            k_max = _FIELD_PARSERS["k_max"](env_k, "GSL_KMAX")
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
            with open(args.report, "w", encoding="utf-8") as fh:
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
