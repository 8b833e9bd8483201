"""The package namespace loads each module on first use.

`import gevlab` executes no submodule; a public name read from the package
is its home module's binding at the time of the read; and each `gsl`
command imports only the modules it calls.  Each check runs in a fresh
interpreter, since the test process has long loaded every module.
"""

import json
import os
import subprocess
import sys

import pytest

import gevlab

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(gevlab.__file__)))
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _fresh(code: str) -> str:
    """Stdout of `code` run by a new interpreter; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_submodule():
    out = _fresh("import sys, gevlab; print([m for m in sys.modules if m.startswith('gevlab.')])")
    assert out == "[]\n"


def test_every_public_name_is_its_home_modules_binding():
    out = _fresh(
        "import importlib, gevlab\n"
        "wrong = [n for n in gevlab.__all__\n"
        "         if getattr(gevlab, n) is not getattr(importlib.import_module(gevlab._HOME[n]), n)]\n"
        # a resolved name is read again on each access, never copied into the package
        "copied = [n for n in gevlab.__all__ if n in vars(gevlab)]\n"
        "print(len(gevlab.__all__), wrong, copied)"
    )
    assert out.split(maxsplit=1) == [str(len(gevlab.__all__)), "[] []\n"]
    assert len(gevlab.__all__) == len(set(gevlab.__all__)) > 0


def test_dir_covers_all_and_an_unknown_name_raises():
    out = _fresh(
        "import gevlab\n"
        "print(set(gevlab.__all__) <= set(dir(gevlab)))\n"
        "try:\n"
        "    gevlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert out == "True\nmodule 'gevlab' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize(
    "job",
    [
        {"command": "region-boundary", "beta": 2, "b_plus": 1},
        {"command": "evolve", "spectrum": {"power_law": {"a_re": -1, "p_re": 1, "a_im": 0, "p_im": 0}},
         "vectors": [{"power_decay": {"c": 1, "r": 1}}], "t_grid": [0, 1]},
    ],
    ids=lambda job: job["command"],
)
def test_gsl_command_loads_neither_classifier_nor_counterexamples(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out = _fresh(
        "import sys\n"
        "from gevlab.cli_reporting import main\n"
        f"code = main([{job['command']!r}, '--job', {str(path)!r}, '--report', {os.devnull!r}])\n"
        "print(code, [m for m in ('gevlab.gevrey_classifier', 'gevlab.counterexamples') if m in sys.modules])"
    )
    assert out == "0 []\n"
