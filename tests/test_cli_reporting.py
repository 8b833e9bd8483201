import functools
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gevlab.cli_reporting as cli
from gevlab import borel_calculus, spectral_core
from gevlab.errors import GevlabError, JobSpecError

MINIMAL = '{"command":"classify-spectrum","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1}},"beta":1}'

# The child interpreter imports gevlab from where this process did, whether
# the package is installed or only on pytest's pythonpath.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


# -- parsing -------------------------------------------------------------------


def test_parse_minimal_job():
    job = cli.parse_jobspec(MINIMAL)
    assert job.command == "classify-spectrum"
    assert job.beta == 1.0
    assert list(job.spectrum) == ["power_law"]


def test_missing_required_field_names_it():
    bad = '{"command":"classify-vector","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":0,"p_im":0}},"vectors":[{"power_decay":{"c":1,"r":2}}]}'
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(bad)
    assert "beta" in str(err.value)


def test_negative_beta_is_a_semantic_error():
    bad = MINIMAL.replace('"beta":1', '"beta":-1')
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(bad)
    assert "beta must be >= 0" in str(err.value)


def test_unknown_field_rejected_with_path():
    bad = MINIMAL[:-1] + ',"extra":1}'
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(bad)
    assert "unknown field 'extra'" in str(err.value)


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"command":"region-boundary","beta":1,"b_plus":0.5,'
         '"spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1}}}', "$.spectrum"),
        (MINIMAL[:-1] + ',"vectors":[{"power_decay":{"c":1,"r":2}}]}', "$.vectors"),
        (MINIMAL[:-1] + ',"flavor":"roumieu"}', "$.flavor"),
        ('{"command":"evolve","spectrum":{"explicit":{"points":[[1,0]]}},"beta":1,'
         '"vectors":[{"explicit":{"values":[[1,0]]}}],"t_grid":[0]}', "$.beta"),
        ('{"command":"counterexample","beta":1,"case":"bounded","n_max":8}', "$.n_max"),
    ],
)
def test_unused_field_rejected_with_path(text, path):
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(text)
    assert str(err.value).startswith(f"{path}: command ") and "does not read" in str(err.value)


def test_every_command_accepts_the_series_budget_and_output_path():
    for text in ROUNDTRIP_JOBS:
        job = json.loads(text)
        job.update(k_max=2048, tol=1e-6, output_path="out.csv")
        parsed = cli.parse_jobspec(json.dumps(job))
        assert (parsed.k_max, parsed.tol, parsed.output_path) == (2048, 1e-6, "out.csv")


# One valid value per job field, and the fields each command requires and
# reads besides them (README, "Required fields per command").
_FIELD_VALUES = {
    "spectrum": {"power_law": {"a_re": 1, "p_re": 1, "a_im": 1, "p_im": 1}},
    "vectors": [{"power_decay": {"c": 1, "r": 2}}],
    "beta": 1,
    "flavor": "roumieu",
    "t_grid": [0, 1],
    "p_norm": 1,
    "t_max": 50,
    "n_max": 8,
    "tol": 1e-6,
    "k_max": 2048,
    "case": "bounded",
    "b_plus": 0.5,
    "im_max": 10,
    "samples": 8,
    "output_path": "out.csv",
}
_EVERY_COMMAND_READS = ("output_path", "k_max", "tol")
_COMMAND_FIELDS = {  # command: (required, optional besides _EVERY_COMMAND_READS)
    "classify-spectrum": (("spectrum", "beta"), ()),
    "classify-vector": (("spectrum", "vectors", "beta"), ("flavor", "p_norm")),
    "evolve": (("spectrum", "vectors", "t_grid"), ("p_norm", "t_max")),
    "estimate-order": (("spectrum", "vectors"), ("p_norm", "n_max")),
    "counterexample": (("beta", "case"), ("spectrum",)),
    "harness": (("spectrum", "beta"), ("vectors", "p_norm")),
    "region-boundary": (("beta", "b_plus"), ("im_max", "samples")),
}


def test_field_values_cover_every_job_field():
    assert set(_FIELD_VALUES) == {f.name for f in fields(cli.JobSpec)} - {"command"}
    assert set(_COMMAND_FIELDS) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(_COMMAND_FIELDS))
def test_each_command_requires_and_reads_its_declared_fields(command):
    required, optional = _COMMAND_FIELDS[command]
    job = {"command": command, **{name: _FIELD_VALUES[name] for name in required}}
    assert cli.parse_jobspec(json.dumps(job)).command == command
    for name in (*optional, *_EVERY_COMMAND_READS):
        cli.parse_jobspec(json.dumps({**job, name: _FIELD_VALUES[name]}))
    for name in required:
        with pytest.raises(JobSpecError) as err:
            cli.parse_jobspec(json.dumps({k: v for k, v in job.items() if k != name}))
        assert str(err.value) == f"$: command {command!r} requires field {name!r}"
    for name in set(_FIELD_VALUES) - {*required, *optional, *_EVERY_COMMAND_READS}:
        with pytest.raises(JobSpecError) as err:
            cli.parse_jobspec(json.dumps({**job, name: _FIELD_VALUES[name]}))
        assert str(err.value) == f"$.{name}: command {command!r} does not read this field"


def test_json_errors_are_positioned():
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec("{not json}")
    assert "line 1" in str(err.value)


_PAIRS = "$.spectrum.explicit.points"


@pytest.mark.parametrize(
    "points, message",
    [
        ("[[true, 0]]", f"{_PAIRS}[0][0]: expected a number"),
        ("[[NaN, 0]]", f"{_PAIRS}[0][0]: must be finite"),
        ("[[Infinity, 0]]", f"{_PAIRS}[0][0]: must be finite"),
        ("[[1, 1e400]]", f"{_PAIRS}[0][1]: must be finite"),
        ("[[1" + "0" * 400 + ", 0]]", f"{_PAIRS}[0][0]: must be finite"),
        ('[[1, "x"]]', f"{_PAIRS}[0][1]: expected a number"),
        ("[[1]]", f"{_PAIRS}[0]: expected a [re, im] pair"),
        ("[[0, 1], 3]", f"{_PAIRS}[1]: expected a [re, im] pair"),
        ("[[0, 1], [2, -Infinity]]", f"{_PAIRS}[1][1]: must be finite"),
        ("[]", f"{_PAIRS}: expected a non-empty list of [re, im] pairs"),
        ("[[0.5, -2]]", None),
    ],
)
def test_explicit_pairs_name_the_element_that_fails(points, message):
    text = f'{{"command":"classify-spectrum","beta":1,"spectrum":{{"explicit":{{"points":{points}}}}}}}'
    if message is None:
        points = cli.parse_jobspec(text).spectrum["explicit"]["points"]
        assert points == ((0.5, -2.0),) and type(points[0][1]) is float
        return
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(text)
    assert str(err.value) == message


def test_explicit_vector_values_name_the_element_that_fails():
    text = (
        '{"command":"classify-vector","beta":1,"spectrum":{"explicit":{"points":[[1,0]]}},'
        '"vectors":[{"explicit":{"values":[[1,false]]}}]}'
    )
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(text)
    assert str(err.value) == "$.vectors[0].explicit.values[0][1]: expected a number"


def test_integer_past_the_float_range_is_not_finite():
    bad = MINIMAL.replace('"beta":1', '"beta":1' + "0" * 400)
    with pytest.raises(JobSpecError) as err:
        cli.parse_jobspec(bad)
    assert str(err.value) == "$.beta: must be finite"


def test_vector_spec_needs_exactly_one_kind():
    bad = (
        '{"command":"classify-vector","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":0,"p_im":0}},'
        '"beta":1,"vectors":[{"power_decay":{"c":1,"r":2},"polynomial_decay":{"d":2}}]}'
    )
    with pytest.raises(JobSpecError):
        cli.parse_jobspec(bad)


ROUNDTRIP_JOBS = [
    MINIMAL,
    '{"command":"classify-vector","spectrum":{"explicit":{"points":[[1,0],[0,2]]}},'
    '"vectors":[{"label":"v","explicit":{"values":[[1,0],[0.5,0]]}}],"beta":1.5,"flavor":"roumieu"}',
    '{"command":"evolve","spectrum":{"explicit":{"points":[[1,0]]}},'
    '"vectors":[{"label":"one","explicit":{"values":[[1,0]]}}],"t_grid":[0,1],"t_max":50}',
    '{"command":"estimate-order","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":0,"p_im":0}},'
    '"vectors":[{"power_decay":{"c":1,"r":0.5}}],"n_max":30}',
    '{"command":"counterexample","beta":2,"case":"unbounded","tol":1e-08}',
    '{"command":"harness","spectrum":{"power_law":{"a_re":0,"p_re":0,"a_im":1,"p_im":2}},"beta":1}',
    '{"command":"region-boundary","beta":1,"b_plus":0.5,"samples":8,"im_max":4}',
]


@pytest.mark.parametrize("text", ROUNDTRIP_JOBS)
def test_jobspec_roundtrip(text):
    job = cli.parse_jobspec(text)
    assert cli.parse_jobspec(cli.serialize_jobspec(job)) == job


# -- run -----------------------------------------------------------------------


def test_run_classify_spectrum_diagonal():
    report = cli.run(cli.parse_jobspec(MINIMAL))
    assert report.status == "ok"
    (verdict,) = report.verdicts
    assert verdict["status"] == "holds"
    assert abs(verdict["b_plus"] - 1.0) < 1e-12


def test_classify_spectrum_with_zero_eigenvalue_warns_nothing():
    # lam = 0 makes the ratio Re/|Im|^(1/beta) 0/0; the verdict ignores it
    job = cli.parse_jobspec(
        '{"command":"classify-spectrum","spectrum":{"explicit":{"points":[[0,0],[1,2]]}},"beta":1}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cli.run(job)
    assert report.status == "ok"
    (verdict,) = report.verdicts
    assert verdict["status"] == "holds"


@pytest.mark.parametrize(
    "job, status, pinned",
    [
        # |lam_{k_star}| = k_star^1e16 of the exception radius overflows
        (
            {"command": "classify-spectrum", "beta": 1,
             "spectrum": {"power_law": {"a_re": 1, "p_re": 1e16, "a_im": 1, "p_im": 2}}},
            "unknown",
            [("region", "unknown", "exception radius overflows the float range")],
        ),
        # t Re lam_k = -1.7e308 k, and twice log|y_k(t)|, leave the float range
        (
            {"command": "evolve", "spectrum": {"power_law": {"a_re": -1, "p_re": 1, "a_im": 0, "p_im": 0}},
             "vectors": [{"power_decay": {"c": 1, "r": 1}}], "t_grid": [0, 1.7e308]},
            "ok",
            [("admissibility", True, None), ("evolve", 0.0, "converges"),
             ("evolve", 1.7e308, "converges")],
        ),
    ],
    ids=["classify-spectrum", "evolve"],
)
def test_overflow_past_the_float_range_warns_nothing(job, status, pinned):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cli.run(cli.parse_jobspec(json.dumps(job)))
    assert report.status == status and report.error is None
    got = []
    for v in report.verdicts:
        if v["kind"] == "region":
            got.append((v["kind"], v["status"], v["reason"]))
        elif v["kind"] == "admissibility":
            got.append((v["kind"], v["admissible"], None))
        else:
            got.append((v["kind"], v["t"], v["certificate"]["status"]))
    assert got == pinned


def test_run_counterexample_bounded():
    job = cli.parse_jobspec('{"command":"counterexample","beta":1,"case":"bounded"}')
    report = cli.run(job)
    assert report.status == "ok"
    (v,) = report.verdicts
    assert v["admissible"] is True and v["roumieu_member"] is False


def test_run_evolve_scalar_values():
    job = cli.parse_jobspec(
        '{"command":"evolve","spectrum":{"explicit":{"points":[[1,0]]}},'
        '"vectors":[{"label":"one","explicit":{"values":[[1,0]]}}],"t_grid":[0,1]}'
    )
    report = cli.run(job)
    coords = [v["coords"] for v in report.verdicts if v["kind"] == "evolve"]
    assert coords[0][0] == [1.0, 0.0]
    assert abs(coords[1][0][0] - math.e) < 1e-12


def test_run_region_beta_below_one_is_an_error():
    job = cli.parse_jobspec(MINIMAL.replace('"beta":1', '"beta":0.5'))
    report = cli.run(job)
    assert report.status == "error"
    assert "beta" in report.error


def test_run_report_is_deterministic_modulo_timings():
    job = cli.parse_jobspec(MINIMAL)
    a = cli.run(job, flags={"seed_free": True}).to_json(seed_free=True)
    b = cli.run(job, flags={"seed_free": True}).to_json(seed_free=True)
    assert a == b


def test_run_region_boundary_samples_the_curve():
    job = cli.parse_jobspec(
        '{"command":"region-boundary","beta":2,"b_plus":0.5,"samples":5,"im_max":16}'
    )
    report = cli.run(job)
    assert report.status == "ok"
    assert len(report.verdicts) == 5
    for v in report.verdicts:
        assert v["re"] == 0.5 * abs(v["im"]) ** 0.5


@pytest.mark.parametrize("beta", [0, 0.001])
def test_region_boundary_below_order_one_is_a_job_error(tmp_path, capsys, beta):
    # Re = b_plus |Im|^{1/beta} is the region test's boundary, read for
    # beta >= 1; below that 1/beta divided by zero or overflowed
    path = write_job(tmp_path, f'{{"command":"region-boundary","beta":{beta},"b_plus":1}}')
    assert cli.main(["region-boundary", "--job", path]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "$.beta: beta must be >= 1"


def _strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_region_boundary_past_the_float_range_is_json():
    job = cli.parse_jobspec('{"command":"region-boundary","beta":1,"b_plus":1e300,"im_max":1e300}')
    verdicts = _strict_json(cli.run(job).to_json())["verdicts"]
    assert verdicts[0]["re"] == "inf" and verdicts[0]["im"] == -1e300


def test_region_boundary_im_max_past_half_the_float_range_is_a_job_error(tmp_path, capsys):
    # the samples run through 2 im_max, which overflows to inf past max / 2
    path = write_job(tmp_path, '{"command":"region-boundary","beta":1,"b_plus":1,"im_max":1.5e308}')
    assert cli.main(["region-boundary", "--job", path]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"$.im_max: must be <= {sys.float_info.max / 2}"


def test_classify_vector_past_the_float_range_is_unknown():
    # |lam_k|^{1/beta} = (sqrt(5) k)^1000 on k + 2ik at beta = 0.001: the
    # power overflows, so the verdict is Unknown, not a traceback
    job = cli.parse_jobspec(
        '{"command":"classify-vector","beta":0.001,"flavor":"both",'
        '"spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":2,"p_im":1}},'
        '"vectors":[{"power_decay":{"c":1,"r":1}}]}'
    )
    report = cli.run(job)
    assert report.status == "unknown"
    assert [v["member"] for v in _strict_json(report.to_json())["verdicts"]] == [None, None]


def _main_report(tmp_path, capsys, job):
    """Exit code and strict-JSON report of gsl on one job."""
    code = cli.main([job["command"], "--job", write_job(tmp_path, json.dumps(job)), "--seed-free"])
    return code, _strict_json(capsys.readouterr().out)


_HUGE_POINTS = {"explicit": {"points": [[1.7e308, 1.7e308], [1, 0]]}}


def test_evolve_an_explicit_coefficient_past_the_float_range(tmp_path, capsys):
    job = {"command": "evolve", "spectrum": {"power_law": {"a_re": -1, "p_re": 1, "a_im": 0, "p_im": 0}},
           "vectors": [{"label": "big", "explicit": {"values": [[1.7e308, 1.7e308]]}}], "t_grid": [0]}
    code, report = _main_report(tmp_path, capsys, job)
    assert (code, report["status"]) == (0, "ok")
    want = mpmath.log(mpmath.sqrt(2 * mpmath.mpf(1.7e308) ** 2))
    assert abs(report["verdicts"][1]["log_norm"] - float(want)) <= 2 * math.ulp(float(want))


def test_explicit_coefficient_with_a_subnormal_phase(tmp_path, capsys):
    # the phase of 3 + 5e-324i is below the float range: it is stored as 0,
    # not raised as an OverflowError
    job = {"command": "classify-vector", "beta": 1, "spectrum": {"explicit": {"points": [[1, 0]]}},
           "vectors": [{"label": "tiny-phase", "explicit": {"values": [[3, 5e-324]]}}]}
    code, report = _main_report(tmp_path, capsys, job)
    assert (code, report["status"]) == (0, "ok")
    assert [(v["flavor"], v["member"]) for v in report["verdicts"]] == [("roumieu", True), ("beurling", True)]


def test_estimate_order_of_norms_near_the_float_range(tmp_path, capsys):
    # log||A^n f|| is about -1e300 for e^{-1e300 k} on lam_k = k: the fitted
    # log alpha is past exp's range and the squared fit errors past the float
    # range, which once raised OverflowError out of run
    job = {"command": "estimate-order", "spectrum": {"power_law": {"a_re": 1, "p_re": 1, "a_im": 0, "p_im": 0}},
           "vectors": [{"power_decay": {"c": 1e300, "r": 1}}], "n_max": 16}
    report = cli.run(cli.parse_jobspec(json.dumps(job)))
    assert report.status == "ok"
    summary = report.verdicts[-1]
    assert summary["alpha_hat"] == "inf" and 0.0 < summary["fit_residual"] < math.inf
    path = tmp_path / "order.csv"
    cli.emit_csv(report, str(path))
    assert path.read_text().splitlines()[-1].endswith(f"alpha_hat=inf;residual={summary['fit_residual']:.3g}")
    assert cli.main(["estimate-order", "--job", write_job(tmp_path, json.dumps(job)), "--seed-free"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and _strict_json(out)["verdicts"][-1] == summary


@pytest.mark.parametrize(
    "power_law,beta",
    [
        ({"a_re": 1, "p_re": 1, "a_im": 2**53 + 1, "p_im": 1e300}, 1),
        ({"a_re": 1, "p_re": 0.5, "a_im": 1, "p_im": 1e300}, 1.5),
        ({"a_re": 0, "p_re": 1, "a_im": 1, "p_im": 2**53 + 1}, 1),
    ],
    ids=["p_im-1e300", "p_re-half-p_im-1e300", "p_im-2^53+1"],
)
def test_region_witness_with_huge_threshold_exponents(tmp_path, capsys, power_law, beta):
    # the selection's thresholds have exponents such as 1e300 - 1: the integer
    # rule Q j^E >= P n^M once raised OverflowError (E past C long) or spent
    # seconds on j^E, and lam_{j(2)} is past the float range, so the witness
    # stops before it
    path = write_job(tmp_path, json.dumps({"command": "classify-spectrum", "spectrum": {"power_law": power_law},
                                           "beta": beta}))
    start = time.perf_counter()
    assert cli.main(["classify-spectrum", "--job", path, "--seed-free"]) == 0
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    (region,) = _strict_json(out)["verdicts"]
    assert region["status"] == "violated" and len(region["witness"]) == 1
    assert region["detail"].endswith("; witness cut to 1 points: lam_{j(2)} is not finite")


@pytest.mark.parametrize("command", ["classify-spectrum", "harness"])
def test_explicit_eigenvalues_past_the_float_range_hold(tmp_path, capsys, command):
    # a finite spectrum is bounded, whatever its largest modulus
    code, report = _main_report(tmp_path, capsys, {"command": command, "spectrum": _HUGE_POINTS, "beta": 1})
    assert (code, report["status"]) == (0, "ok")
    region = report["verdicts"][0]
    assert (region["status"], region["exception_radius"], region["b_plus"]) == ("holds", "inf", 1.0)


def test_harness_on_an_explicit_spectrum_shorter_than_the_catalog_prefix(tmp_path, capsys):
    job = {"command": "harness", "spectrum": {"explicit": {"points": [[1, 0], [2, 0], [3, 1]]}}, "beta": 1}
    code, report = _main_report(tmp_path, capsys, job)
    assert (code, report["status"], report["verdicts"][0]["status"]) == (0, "ok", "holds")
    rows = [v for v in report["verdicts"] if v["kind"] == "harness-row"]
    assert len(rows) == 5 and all(r["admissible"] for r in rows)
    assert all(member is True for r in rows for _, flavor, member in r["verdicts"] if flavor == "beurling")


def test_evolve_coordinates_past_the_float_range_are_strict_json(tmp_path, capsys):
    job = {"command": "evolve", "spectrum": {"explicit": {"points": [[10, 0], [1, 0]]}},
           "vectors": [{"label": "v", "explicit": {"values": [[1e300, 0], [1, 0]]}}], "t_grid": [100]}
    code, report = _main_report(tmp_path, capsys, job)
    assert (code, report["status"]) == (0, "ok")
    assert report["verdicts"][1]["coords"] == [["inf", 0.0], [math.exp(100.0), 0.0]]


def test_evolve_overflowed_coordinates_on_an_axis_keep_their_zero_part(tmp_path, capsys):
    # the phases -pi/2 and pi round to floats whose cos and sin are 6e-17
    # and 1.2e-16, not 0: times an infinite modulus that part is still 0
    job = {"command": "evolve", "spectrum": {"explicit": {"points": [[10, 0], [1, 0]]}},
           "vectors": [{"label": "v", "explicit": {"values": [[0, -1e300], [-1e300, 0]]}}], "t_grid": [100]}
    code, report = _main_report(tmp_path, capsys, job)
    assert (code, report["status"]) == (0, "ok")
    assert report["verdicts"][1]["coords"] == [[0.0, "-inf"], ["-inf", 0.0]]


def test_run_harness_on_violated_spectrum_includes_counterexample():
    job = cli.parse_jobspec(
        '{"command":"harness","spectrum":{"power_law":{"a_re":0,"p_re":0,"a_im":1,"p_im":2}},"beta":1}'
    )
    report = cli.run(job)
    assert report.status == "ok"
    kinds = [v["kind"] for v in report.verdicts]
    assert "counterexample" in kinds
    ce = next(v for v in report.verdicts if v["kind"] == "counterexample")
    assert ce["admissible"] is True and ce["roumieu_member"] is False


def _region_verdict(command, p_im):
    spectrum = {"power_law": {"a_re": 0.5, "p_re": 1, "a_im": 3, "p_im": p_im}}
    report = cli.run(cli.parse_jobspec(json.dumps({"command": command, "spectrum": spectrum, "beta": 2})))
    return report, next(v for v in report.verdicts if v["kind"] == "region")


@pytest.mark.parametrize("p_im", [1.93, 1.98])
@pytest.mark.parametrize("command", ["classify-spectrum", "harness"])
def test_region_radius_covers_the_true_threshold(command, p_im):
    # 0.5 k >= sqrt(3 k^p_im) from k = (2 sqrt 3)^{1/(1 - p_im/2)}, about
    # 2.6e15 (int64) and 1e54 (past it); the float threshold falls short of
    # it by more than one index, and the radius must still cover
    # |lam| at the ceiling of the true threshold, to 200 bits
    report, v = _region_verdict(command, p_im)
    assert report.status == "ok" and v["status"] == "holds" and v["b_plus"] == 1.0
    with mpmath.workprec(200):
        k = mpmath.ceil(mpmath.power(2 * mpmath.sqrt(3), 1 / (1 - mpmath.mpf(p_im) / 2)))
        modulus = mpmath.hypot(k / 2, 3 * mpmath.power(k, p_im))
        assert modulus <= v["exception_radius"] <= modulus * (1 + mpmath.mpf(1e-9))


@pytest.mark.parametrize("command", ["classify-spectrum", "harness"])
def test_region_radius_past_the_float_range_is_unknown(command):
    # the threshold index (2 sqrt 3)^{10^6} leaves the float range
    report, v = _region_verdict(command, 1.999998)
    assert report.status == "unknown" and v["status"] == "unknown"
    assert "overflows the float range" in v["reason"]


def test_run_harness_accepts_a_user_catalog():
    job = cli.parse_jobspec(
        '{"command":"harness","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1}},'
        '"beta":1,"vectors":[{"label":"mine","power_decay":{"c":2,"r":2}}]}'
    )
    report = cli.run(job)
    rows = [v for v in report.verdicts if v["kind"] == "harness-row"]
    assert [v["vector"] for v in rows] == ["mine"]
    assert rows[0]["admissible"] is True


def test_run_classify_vector_beta_zero_uses_support_rule():
    job = cli.parse_jobspec(
        '{"command":"classify-vector","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":0,"p_im":0}},'
        '"vectors":[{"label":"fin","explicit":{"values":[[1,0],[1,0]]}},'
        '{"label":"inf","power_decay":{"c":1,"r":2}}],"beta":0}'
    )
    report = cli.run(job)
    members = {v["vector"]: v["member"] for v in report.verdicts}
    assert members == {"fin": True, "inf": False}


# -- CSV -----------------------------------------------------------------------


def test_emit_csv_header_only_for_empty_verdicts(tmp_path):
    report = cli.RunReport(job=cli.parse_jobspec(MINIMAL), flags={})
    path = tmp_path / "empty.csv"
    cli.emit_csv(report, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(cli._CSV_COLUMNS)


def test_emit_csv_norm_rows_and_summary(tmp_path):
    job = cli.parse_jobspec(
        '{"command":"estimate-order","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":0,"p_im":0}},'
        '"vectors":[{"label":"root","power_decay":{"c":1,"r":0.5}}],"n_max":20}'
    )
    report = cli.run(job)
    path = tmp_path / "order.csv"
    cli.emit_csv(report, str(path))
    lines = path.read_text().strip().splitlines()
    kinds = [line.split(",")[2] for line in lines[1:]]
    assert kinds.count("norm") == 21
    assert kinds.count("order-summary") == 1


def test_emit_csv_harness_row_per_vector(tmp_path):
    job = cli.parse_jobspec(
        '{"command":"harness","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1}},"beta":1}'
    )
    report = cli.run(job)
    path = tmp_path / "harness.csv"
    cli.emit_csv(report, str(path))
    rows = path.read_text().strip().splitlines()[1:]
    harness_rows = [r for r in rows if r.split(",")[2] == "harness-row"]
    assert len(harness_rows) == 5  # one per built-in vector


def test_csv_bytes_are_reproducible(tmp_path):
    job = cli.parse_jobspec(MINIMAL)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.emit_csv(cli.run(job), str(p1))
    cli.emit_csv(cli.run(job), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# -- main / exit codes -----------------------------------------------------------


def write_job(tmp_path, text, name="job.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_ok_and_report_file(tmp_path):
    path = write_job(tmp_path, MINIMAL)
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "table.csv"
    rc = cli.main(
        ["classify-spectrum", "--job", path, "--report", str(out_json), "--out", str(out_csv), "--seed-free"]
    )
    assert rc == 0
    payload = json.loads(out_json.read_text())
    assert payload["status"] == "ok"
    assert payload["flags"]["seed_free"] is True
    assert out_csv.exists()


def test_main_command_mismatch_is_an_error(tmp_path):
    path = write_job(tmp_path, MINIMAL)
    rc = cli.main(["harness", "--job", path])
    assert rc == 1


def test_main_math_error_exits_one(tmp_path):
    path = write_job(tmp_path, MINIMAL.replace('"beta":1', '"beta":0.5'))
    rc = cli.main(["classify-spectrum", "--job", path, "--report", str(tmp_path / "r.json")])
    assert rc == 1


def test_main_reports_a_threshold_past_the_float_range(tmp_path, capsys):
    # k^0.5 + i k^1.05 at beta = 2: j(n) ~ n^80, so n^80 leaves the float
    # range in the threshold estimate; a structured error, not a traceback
    path = write_job(
        tmp_path,
        '{"command":"harness","beta":2,'
        '"spectrum":{"power_law":{"a_re":1,"p_re":0.5,"a_im":1,"p_im":1.05}}}',
    )
    rc = cli.main(["harness", "--job", path, "--seed-free"])
    assert rc == 1
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert report["status"] == "error"
    assert report["error"].startswith("selected index leaves int64 at order n=")
    assert json.loads(out.err)["error"] == report["error"]


def test_main_reports_a_job_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b'\xff\xfe{"command": "region-boundary"}')
    assert cli.main(["region-boundary", "--job", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    err = json.loads(out.err)
    assert err["status"] == "error"
    assert err["error"].startswith(f"{path}: the job file is not UTF-8 text: ")


def test_main_reports_a_job_file_nested_too_deeply(tmp_path, capsys):
    # json.loads raises RecursionError on arrays nested past the recursion
    # limit; a structured error, not a traceback
    path = write_job(tmp_path, '{"command": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli.main(["classify-spectrum", "--job", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert json.loads(out.err) == {
        "status": "error",
        "error": "invalid JSON: arrays or objects nested too deeply to parse",
    }


def test_main_unwritable_csv_exits_one(tmp_path):
    path = write_job(tmp_path, MINIMAL)
    rc = cli.main(
        ["classify-spectrum", "--job", path, "--report", str(tmp_path / "r.json"),
         "--out", str(tmp_path / "no" / "dir" / "x.csv")]
    )
    assert rc == 1


def test_main_unknown_verdict_exits_two(tmp_path, monkeypatch, capsys):
    path = write_job(tmp_path, MINIMAL)

    def fake_run(job, budget=None, flags=None):
        report = cli.RunReport(job=job, flags=flags or {})
        report.verdicts.append({"kind": "class", "member": None, "unknown": True})
        report.status = "unknown"
        return report

    monkeypatch.setattr(cli, "run", fake_run)
    rc = cli.main(["classify-spectrum", "--job", path])
    assert rc == 2


def test_main_flag_beats_env(tmp_path, monkeypatch, capsys):
    # --kmax overrides the job's k_max, and GSL_KMAX in the environment is not read
    path = write_job(tmp_path, json.dumps({**json.loads(MINIMAL), "k_max": 65536}))
    monkeypatch.setenv("GSL_KMAX", "0")
    rc = cli.main(["classify-spectrum", "--job", path, "--kmax", "131072", "--seed-free"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["kmax"] == 131072


_EVOLVE_K2 = json.dumps({
    "command": "evolve",
    "spectrum": {"power_law": {"a_re": -1, "p_re": 1, "a_im": 0, "p_im": 0}},
    "vectors": [{"polynomial_decay": {"d": 2}}],
    "t_grid": [0],
})


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--kmax", "0"], "--kmax"),  # would sum no term: a false zero norm
        (["--kmax", "-5"], "--kmax"),
        (["--tol", "0"], "--tol"),
        (["--tol", "nan"], "--tol"),
        # a block of about k_max/2 indices: past 2^22 an error, not a MemoryError
        (["--kmax", str((1 << 22) + 1)], "--kmax"),
    ],
    ids=[
        "kmax-zero",
        "kmax-negative",
        "tol-zero",
        "tol-nan",
        "kmax-past-2^22",
    ],
)
def test_main_rejects_bad_overrides_by_name(tmp_path, capsys, flags, named):
    path = write_job(tmp_path, _EVOLVE_K2)
    rc = cli.main(["evolve", "--job", path, *flags])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["status"] == "error" and err["error"].startswith(f"{named}: "), err


def _points_job(n):
    return {"command": "classify-spectrum", "beta": 1, "spectrum": {"explicit": {"points": [[1, 0]] * n}}}


def _values_job(n):
    return {"command": "classify-vector", "beta": 1, "spectrum": {"explicit": {"points": [[1, 0]]}},
            "vectors": [{"explicit": {"values": [[1, 0]] * n}}]}


@pytest.mark.parametrize(
    "field,cap,job",
    [
        ("samples", 1 << 16, {"command": "region-boundary", "beta": 1, "b_plus": 0.5}),
        ("n_max", 1 << 10, json.loads(ROUNDTRIP_JOBS[3])),
        # a list field: job(n) is a job with n pairs there
        ("spectrum.explicit.points", 1 << 16, _points_job),
        ("vectors[0].explicit.values", 1 << 16, _values_job),
    ],
)
def test_fields_that_size_the_work_are_capped(field, cap, job):
    if callable(job):
        cli.parse_jobspec(json.dumps(job(cap)))
        pasts, want = (cap + 1,), f"must hold at most {cap} pairs"
    else:
        assert getattr(cli.parse_jobspec(json.dumps({**job, field: cap})), field) == cap
        pasts, want = (cap + 1, (1 << 53) + 1, 10**400), f"must be <= {cap}"
        job = lambda n, base=job: {**base, field: n}
    for past in pasts:
        with pytest.raises(JobSpecError) as err:
            cli.parse_jobspec(json.dumps(job(past)))
        assert str(err.value) == f"$.{field}: {want}"


def test_k_max_is_at_most_2_to_the_22(tmp_path, capsys):
    job = json.loads(_EVOLVE_K2)
    assert cli.parse_jobspec(json.dumps({**job, "k_max": 1 << 22})).k_max == 1 << 22
    with pytest.raises(JobSpecError, match=r"^\$\.k_max: must be <= 4194304$"):
        cli.parse_jobspec(json.dumps({**job, "k_max": (1 << 22) + 1}))
    path = write_job(tmp_path, MINIMAL)
    assert cli.main(["classify-spectrum", "--job", path, "--kmax", str(1 << 22), "--seed-free"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"]["kmax"] == 1 << 22


@pytest.mark.parametrize("case", ["bounded", "unbounded"])
def test_counterexample_witness_ignores_k_max(case):
    # the dual probes only decide, so no budget reaches their certificates
    job = {"command": "counterexample", "beta": 1, "case": case}
    certs = [
        cli.run(cli.parse_jobspec(json.dumps(j))).verdicts[0]["probe_certificates"]
        for j in (job, {**job, "k_max": 1024})
    ]
    assert certs[0] == certs[1]


def test_cli_subprocess_end_to_end(tmp_path):
    path = write_job(tmp_path, MINIMAL)
    proc = subprocess.run(
        [sys.executable, "-m", "gevlab.cli_reporting", "classify-spectrum", "--job", path, "--seed-free"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdicts"][0]["status"] == "holds"


def test_cli_byte_identical_reports(tmp_path):
    path = write_job(tmp_path, MINIMAL)
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "gevlab.cli_reporting", "classify-spectrum", "--job", path, "--seed-free"],
            capture_output=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# Degenerate power-law families a_re k^p_re + i a_im k^p_im: zero or negative
# coefficients, constant parts, one part alone.  Families with no strictly
# increasing part repeat one eigenvalue and are refused, so they are left out.
_DEGENERATE_FAMILIES = [
    (a_re, p_re, a_im, p_im)
    for a_re in (0, 1, -1)
    for p_re in (0, 0.5, 1)
    for a_im in (0, 1, -1)
    for p_im in (0, 1, 2)
    if (a_re and p_re) or (a_im and p_im)
]
_POWER = {"power_decay": {"c": 1, "r": 1}}
_POLY = {"polynomial_decay": {"d": 2}}


def _traffic_jobs():
    for family in _DEGENERATE_FAMILIES:
        spectrum = {"power_law": dict(zip(("a_re", "p_re", "a_im", "p_im"), family))}
        for beta in (1, 2):
            yield {"command": "classify-spectrum", "spectrum": spectrum, "beta": beta}
            yield {"command": "classify-vector", "spectrum": spectrum, "beta": beta,
                   "vectors": [_POWER, _POLY], "flavor": "both"}
        yield {"command": "evolve", "spectrum": spectrum, "vectors": [_POWER, _POLY], "t_grid": [0, 0.5]}
        # the power norms of k^-2 diverge from a low n on: only e^{-k} here
        yield {"command": "estimate-order", "spectrum": spectrum, "vectors": [_POWER], "n_max": 8}
        yield {"command": "harness", "spectrum": spectrum, "beta": 1}
    for beta in (1, 2):
        for case in ("bounded", "unbounded"):
            yield {"command": "counterexample", "beta": beta, "case": case}
        yield {"command": "region-boundary", "beta": beta, "b_plus": 1}


# sha256 of the 398 seed-free reports of _traffic_jobs(), concatenated in order
_TRAFFIC_DIGEST = "1be95ccfcaa33b56653d6e8e283920dd0848b99245da0cb6aadda65b34589c7e"


def test_power_law_traffic_has_no_inconclusive_certificate(monkeypatch):
    # every series the job commands raise on power-law spectra has a closed
    # form, so no report carries an undecided certificate.  The engine's only
    # undecided route, no-closed-form, fires just in the harness, on y(1) of
    # the gauss vector over -k^p + i k^2: exactly at its tie ratio s = 1 the
    # envelopes of |lam| are too loose, and the next float up closes the
    # bracket instead
    assert len(_DEGENERATE_FAMILIES) == 56
    routes = Counter()
    undecided = set()
    current = {}
    digest = hashlib.sha256()
    for module in (borel_calculus, spectral_core):
        def counted(*args, _certify=module.certify_log_series, **kwargs):
            cert = _certify(*args, **kwargs)
            routes[cert.route] += 1
            if cert.route == "no-closed-form":
                undecided.add((current["command"], current.get("family")))
            return cert

        monkeypatch.setattr(module, "certify_log_series", counted)
    for job in _traffic_jobs():
        current["command"] = job["command"]
        current["family"] = tuple(job["spectrum"]["power_law"].values()) if "spectrum" in job else None
        report = cli.run(cli.parse_jobspec(json.dumps(job)))
        assert report.status == "ok", (job, report.error)
        # every report is strict JSON: no Infinity or NaN constant
        text = report.to_json()
        assert "inconclusive" not in text and _strict_json(text)["status"] == "ok", job
        digest.update(report.to_json(seed_free=True).encode())
    # the seed-free reports pin every verdict, bracket and value byte for byte
    assert digest.hexdigest() == _TRAFFIC_DIGEST
    assert routes["symbolic-tail"] > 0 and routes["symbolic-divergence"] > 0
    assert undecided == {("harness", (-1, p_re, a_im, 2)) for p_re in (0.5, 1) for a_im in (1, -1)}


def _explicit_pairs(rng, n=32):
    return [[float(x), float(y)] for x, y in zip(rng.normal(size=n), rng.normal(size=n))]


def _explicit_jobs():
    # one job per command on a seeded random 32-point explicit spectrum, with
    # a 32-point explicit vector where the command takes vectors;
    # region-boundary reads no spectrum, so its job carries none
    rng = np.random.default_rng(12)

    def vectors():
        return [{"label": "rnd", "explicit": {"values": _explicit_pairs(rng)}}]

    extra = {
        "classify-spectrum": lambda: {"beta": 1.5},
        "classify-vector": lambda: {"beta": 1.5, "vectors": vectors()},
        "evolve": lambda: {"vectors": vectors(), "t_grid": [0.0, 0.25, 1.0]},
        "estimate-order": lambda: {"vectors": vectors(), "n_max": 12},
        "counterexample": lambda: {"beta": 1.5, "case": "bounded"},
        "harness": lambda: {"beta": 1.5, "vectors": vectors()},
        "region-boundary": lambda: {"beta": 1.5, "b_plus": 0.75},
    }
    for command in cli.COMMANDS:
        job = {"command": command, "spectrum": {"explicit": {"points": _explicit_pairs(rng)}}}
        job.update(extra[command]())
        if command == "region-boundary":
            del job["spectrum"]
        yield job


# sha256 of the CSV tables of the 398 _traffic_jobs() and the 7
# _explicit_jobs(), each explicit table followed by its seed-free report
_CSV_DIGEST = "577be523eb9687c81c84a522e600e7fc920dc2faf807510f517590d0c0a0e8aa"


def test_csv_tables_and_explicit_reports_are_pinned(tmp_path):
    path = tmp_path / "job.csv"
    digest = hashlib.sha256()
    statuses = {}
    for job in _traffic_jobs():
        report = cli.run(cli.parse_jobspec(json.dumps(job)))
        cli.emit_csv(report, str(path))
        digest.update(path.read_bytes())
    for job in _explicit_jobs():
        report = cli.run(cli.parse_jobspec(json.dumps(job)))
        statuses[job["command"]] = report.status
        cli.emit_csv(report, str(path))
        digest.update(path.read_bytes())
        digest.update(report.to_json(seed_free=True).encode())
    # a finite spectrum satisfies the region condition, so it has no counterexample
    assert statuses == {c: "error" if c == "counterexample" else "ok" for c in cli.COMMANDS}
    assert digest.hexdigest() == _CSV_DIGEST


def _keys(*names):
    return frozenset(names)


# the key sets of the reports of _traffic_jobs() and _explicit_jobs(): every
# verdict kind, every certificate dict, and the report itself
_REPORT_KEYS = _keys(
    "error", "flags", "format_version", "job", "job_id", "status", "timings", "tool",
    "verdicts", "version",
)
_CERTIFICATE_KEYS = _keys("detail", "log_tail_bound", "log_value", "route", "status", "terms_used")
_EVOLVE_KEYS = _keys("certificate", "kind", "log_norm", "t", "unknown", "vector")
_COUNTEREXAMPLE_KEYS = _keys(
    "admissible", "beta", "case", "kind", "roumieu_member", "spectrum", "unknown"
)
_REGION_KEYS = _keys("beta", "detail", "kind", "spectrum", "status", "unknown")
_VERDICT_KEYS = {
    "admissibility": {
        _keys("admissible", "checked_times", "kind", "tail_rule", "unknown", "vector")
    },
    "boundary": {_keys("im", "kind", "n", "re", "unknown")},
    "class": {
        _keys(
            "beta", "detail", "flavor", "kind", "member", "probes", "s_star_high", "s_star_low",
            "support_bound", "t", "unknown", "vector",
        )
    },
    # the explicit plan (bounded case) reports no probe certificates
    "counterexample": {
        _COUNTEREXAMPLE_KEYS,
        _COUNTEREXAMPLE_KEYS | {"log_l_bound", "probe_certificates"},
    },
    # coordinates on explicit spectra only
    "evolve": {_EVOLVE_KEYS, _EVOLVE_KEYS | {"coords"}},
    "harness-row": {_keys("admissible", "kind", "unknown", "vector", "verdicts")},
    "norm": {_keys("kind", "n", "value", "vector")},
    "order-summary": {_keys("alpha_hat", "beta_hat", "fit_residual", "kind", "n_range", "vector")},
    "region": {
        _REGION_KEYS | {"b_plus", "exception_radius"},
        _REGION_KEYS | {"witness"},
    },
}


def test_report_keys_are_pinned():
    # a report carries what proves its verdicts and nothing sampled; any
    # change to the format shows here
    reports, verdicts, certificates = set(), {}, []
    for job in [*_traffic_jobs(), *_explicit_jobs()]:
        report = json.loads(cli.run(cli.parse_jobspec(json.dumps(job))).to_json())
        reports.add(frozenset(report))
        for v in report["verdicts"]:
            verdicts.setdefault(v["kind"], set()).add(frozenset(v))
            if "certificate" in v:
                certificates.append(v["certificate"])
            certificates.extend(v.get("probe_certificates", {}).values())
    assert reports == {_REPORT_KEYS}
    assert verdicts == _VERDICT_KEYS
    assert certificates and {frozenset(c) for c in certificates} == {_CERTIFICATE_KEYS}


# -- writing over an old file --------------------------------------------------


# a harness job, whose table and report are longer than MINIMAL's
_HARNESS = '{"command":"harness","spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1}},"beta":1}'


@functools.cache
def _sampled_traffic_reports():
    # every 25th traffic job: each command, tables from one row to dozens
    return tuple(cli.run(cli.parse_jobspec(json.dumps(job))) for job in list(_traffic_jobs())[::25])


def _fresh_table(report, directory):
    path = directory / "fresh.csv"
    cli.emit_csv(report, str(path))
    return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_csv_written_over_any_old_file_matches_a_fresh_write(tmp_path_factory, data):
    # emit_csv writes over the old bytes and truncates after the last row, so
    # an old file of any length, often longer than the new table, leaves
    # nothing behind
    reports = _sampled_traffic_reports()
    report = reports[data.draw(st.integers(0, len(reports) - 1), label="report")]
    directory = tmp_path_factory.mktemp("over")
    fresh = _fresh_table(report, directory)
    length = data.draw(st.integers(0, 3 * len(fresh)), label="old length")
    pattern = data.draw(st.binary(min_size=1, max_size=16), label="old pattern")
    path = directory / "job.csv"
    path.write_bytes((pattern * (length // len(pattern) + 1))[:length])
    cli.emit_csv(report, str(path))
    assert path.read_bytes() == fresh


def test_csv_to_special_files_links_and_existing_files(tmp_path):
    long_report, short_report = (cli.run(cli.parse_jobspec(text)) for text in (_HARNESS, MINIMAL))
    fresh = _fresh_table(short_report, tmp_path)
    # a special file cannot be truncated and is not
    cli.emit_csv(short_report, os.devnull)
    # a symlink is written through and stays a link
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    cli.emit_csv(long_report, str(target))
    link.symlink_to(target)
    cli.emit_csv(short_report, str(link))
    assert link.is_symlink() and target.read_bytes() == fresh
    # an existing file keeps its inode and mode bits
    path = tmp_path / "private.csv"
    cli.emit_csv(long_report, str(path))
    path.chmod(0o600)
    before = path.stat()
    cli.emit_csv(short_report, str(path))
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
    assert path.read_bytes() == fresh
    # a new file gets the mode that open() gives
    with open(tmp_path / "plain.txt", "w"):
        pass
    assert stat.S_IMODE((tmp_path / "fresh.csv").stat().st_mode) == stat.S_IMODE(
        (tmp_path / "plain.txt").stat().st_mode
    )
    for bad in (tmp_path, tmp_path / "missing" / "x.csv"):
        with pytest.raises(GevlabError, match=r"^cannot write CSV to "):
            cli.emit_csv(short_report, str(bad))


def test_report_written_over_a_longer_report(tmp_path):
    long_job = write_job(tmp_path, _HARNESS, "long.json")
    short_job = write_job(tmp_path, MINIMAL, "short.json")
    path, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    assert cli.main(["harness", "--job", long_job, "--report", str(path), "--seed-free"]) == 0
    long_size = path.stat().st_size
    assert cli.main(["classify-spectrum", "--job", short_job, "--report", str(path), "--seed-free"]) == 0
    assert cli.main(["classify-spectrum", "--job", short_job, "--report", str(fresh), "--seed-free"]) == 0
    text = path.read_text(encoding="utf-8")
    assert len(text) < long_size and text == fresh.read_text(encoding="utf-8")
    assert text.endswith("}\n") and json.loads(text)["job"]["command"] == "classify-spectrum"
