"""Cold start: SciPy loads on the first LP or max-flow, not with the package.

Each check runs in a fresh interpreter, so that modules the test run
has already imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metricvote
from metricvote.cli import main

SRC = Path(metricvote.__file__).resolve().parent.parent


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """The ``scipy`` modules loaded once ``code`` has run in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_code(*argv) -> str:
    return f"from metricvote import cli\nassert cli.main({[str(a) for a in argv]!r}) == 0\n"


@pytest.mark.parametrize("module", ["metricvote", "metricvote.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_modules_after(f"import {module}", tmp_path) == []


IC = ["--generator", "impartial-culture", "--params", "n=200,m=8", "--seed", 3]
EUC = ["--generator", "euclidean", "--params", "n=200,m=6,dim=3", "--seed", 3]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mechanism", "copeland", *IC, "--out", "out.json"],
        ["run", "--mechanism", "dr", *IC, "--out", "out.json"],
        ["run", "--mechanism", "plurality-matching", *IC, "--out", "out.json"],
        ["gen", *IC, "--out", "ic"],
        ["gen", "--generator", "hidden-star", "--params", "m=5,chosen=2", "--out", "star"],
        ["gen", *EUC, "--out", "euc"],
        ["run", "--mechanism", "copeland", *EUC, "--out", "out.json"],
    ],
    ids=["run-copeland", "run-dr", "run-plurality-matching", "gen-ic", "gen-hidden-star", "gen-euclidean",
         "run-euclidean-copeland"],
)
def test_commands_without_lp_load_no_scipy(tmp_path, argv):
    assert scipy_modules_after(cli_code(*argv), tmp_path) == []


def test_sample_with_shipped_witness_loads_no_scipy(tmp_path):
    # the instance is written here and sampled from the file with its witness sidecar
    base = tmp_path / "euc"
    assert main(["gen", "--generator", "euclidean", "--params", "n=400,m=4,dim=2", "--seed", "1", "--out", str(base)]) == 0
    argv = ["sample", "--in", "euc.elec", "--mode", "plurality-matching", "--epsilon", "2", "--delta", "0.5",
            "--trials", 3, "--out", "s.csv"]
    assert scipy_modules_after(cli_code(*argv), tmp_path) == []
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 + sum(r.startswith("#") for r in rows)


def test_eval_loads_the_solver(tmp_path):
    argv = ["eval", "--generator", "impartial-culture", "--params", "n=6,m=3", "--out", "report.json", "--format", "json"]
    assert "scipy.optimize" in scipy_modules_after(cli_code(*argv), tmp_path)


def test_pool_workers_inherit_the_solver(tmp_path):
    code = (
        "import os, sys\n"
        "from metricvote import cli\n"
        "def probe(parent):\n"
        "    return os.getpid() != parent, 'scipy.optimize' in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert cli._pmap(probe, [os.getpid()] * 4, 2) == [(True, True)] * 4\n"
    )
    assert "scipy.optimize" in scipy_modules_after(code, tmp_path)
