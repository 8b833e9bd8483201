import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest

import gevlab.cli_reporting as cli
from gevlab import borel_calculus, spectral_core
from gevlab.errors import JobSpecError

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
    assert job.spectrum.kind == "power_law"


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
        points = cli.parse_jobspec(text).spectrum.points
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


def test_main_env_kmax_flows_into_flags(tmp_path, monkeypatch, capsys):
    path = write_job(tmp_path, MINIMAL)
    monkeypatch.setenv("GSL_KMAX", "65536")
    rc = cli.main(["classify-spectrum", "--job", path, "--seed-free"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["kmax"] == 65536


def test_main_flag_beats_env(tmp_path, monkeypatch, capsys):
    path = write_job(tmp_path, MINIMAL)
    monkeypatch.setenv("GSL_KMAX", "65536")
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
    "flags,env,named",
    [
        (["--kmax", "0"], None, "--kmax"),  # would sum no term: a false zero norm
        (["--kmax", "-5"], None, "--kmax"),
        ([], "0", "GSL_KMAX"),
        ([], "many", "GSL_KMAX"),
        (["--tol", "0"], None, "--tol"),
        (["--tol", "nan"], None, "--tol"),
    ],
    ids=["kmax-zero", "kmax-negative", "env-zero", "env-not-an-integer", "tol-zero", "tol-nan"],
)
def test_main_rejects_bad_overrides_by_name(tmp_path, monkeypatch, capsys, flags, env, named):
    path = write_job(tmp_path, _EVOLVE_K2)
    if env is None:
        monkeypatch.delenv("GSL_KMAX", raising=False)
    else:
        monkeypatch.setenv("GSL_KMAX", env)
    rc = cli.main(["evolve", "--job", path, *flags])
    assert rc == 1
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["status"] == "error" and err["error"].startswith(f"{named}: "), err


@pytest.mark.parametrize("case", ["bounded", "unbounded"])
def test_counterexample_witness_ignores_k_max(case):
    # the dual probes only decide, so no budget reaches their witnesses
    job = {"command": "counterexample", "beta": 1, "case": case}
    certs = [
        cli.run(cli.parse_jobspec(json.dumps(j))).verdicts[0]["probe_certificates"]
        for j in (job, {**job, "k_max": 1024})
    ]
    assert certs[0] == certs[1]
    assert all(c["witness"]["k"] == [1 << j for j in range(15)] for c in certs[1].values())


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
_TRAFFIC_DIGEST = "aab8caf41ff28547f4985134df6a75842f7cd78ad5c0988770838ce268174fa8"


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
        assert "inconclusive" not in report.to_json(), job
        digest.update(report.to_json(seed_free=True).encode())
    # the seed-free reports pin every verdict, bracket and value byte for byte
    assert digest.hexdigest() == _TRAFFIC_DIGEST
    assert routes["symbolic-tail"] > 0 and routes["symbolic-divergence"] > 0
    assert undecided == {("harness", (-1, p_re, a_im, 2)) for p_re in (0.5, 1) for a_im in (1, -1)}


def _explicit_pairs(rng, n=32):
    return [[float(x), float(y)] for x, y in zip(rng.normal(size=n), rng.normal(size=n))]


def _explicit_jobs():
    # one job per command on a seeded random 32-point explicit spectrum, with
    # a 32-point explicit vector where the command takes vectors
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
        yield job


# sha256 of the CSV tables of the 398 _traffic_jobs() and the 7
# _explicit_jobs(), each explicit table followed by its seed-free report
_CSV_DIGEST = "f2c9b71a9fa6cf2734844250bf911aa02a6dc955e97ecd2abe56904b60306a8f"


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
