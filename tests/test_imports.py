"""Which scipy and numpy modules a run loads.

A pure-power run has closed forms for F, the profile, the blow-down curve and
the tail-integrability check, so it must never load scipy's quadrature or
root finder; a power_log run loads QUADPACK's and Brent's compiled extensions
on first use.  No run executes the package inits of ``scipy.integrate``,
``scipy.optimize``, ``scipy.special`` or ``scipy.linalg``: the Newton solver
loads LAPACK's ``_flapack`` extension the same way, and each package shares
the loaded extension whichever is imported first.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import blowuplab

EXTENSIONS = ("scipy.integrate._quadpack", "scipy.optimize._zeros")
# the package inits, and what scipy.linalg's clone of numpy's namespace pulls in
PACKAGE_INITS = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg",
                 "numpy.f2py", "numpy.testing")

SCRIPT = textwrap.dedent("""
    import json, sys
    from blowuplab import cli
    from blowuplab.blowdown import BlowdownCurve
    from blowuplab.geometry import build_graded_mesh, interval
    from blowuplab.karamata import const_kernel, constant_weight
    from blowuplab.nonlinearity import check_conditions, power, power_log
    from blowuplab.parabolic import ParabolicProblem, build_time_grid, minimal_solution

    loaded = {}
    rc = [cli.main(["--out", sys.argv[1], "suite", "power"])]
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2),
                            weight=constant_weight(const_kernel(), 1.0), horizon=0.5)
    minimal_solution(prob, build_time_grid(0.2, 10, 2.0))
    loaded["pure power"] = [m for m in %(names)r if m in sys.modules]
    check_conditions(power_log(2), 2.0)
    BlowdownCurve(power_log(2)).value(0.1)
    rc.append(cli.main(["--out", sys.argv[1], "suite", "power-log"]))
    loaded["power_log"] = [m for m in %(names)r if m in sys.modules]
    print(json.dumps({"rc": rc, "loaded": loaded}))
""") % {"names": EXTENSIONS + PACKAGE_INITS}

SHARED = textwrap.dedent("""
    import sys
    %s
    import blowuplab.discretize
    %s
    assert scipy.linalg.lapack.dgtsv is blowuplab.discretize.dgtsv
    assert sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
""")

SHARED_EXTENSIONS = textwrap.dedent("""
    import sys
    %s
    from blowuplab.quadutil import brentq, quad
    from blowuplab.scipyext import load_extension
    quad(lambda x: x, 0.0, 1.0, epsrel=1e-11)
    brentq(lambda x: x - 0.25, 0.0, 1.0, rtol=1e-14)
    %s
    import scipy.integrate, scipy.optimize
    quadpack, zeros = load_extension("scipy.integrate._quadpack"), load_extension("scipy.optimize._zeros")
    assert sys.modules["scipy.integrate._quadpack"] is quadpack
    assert sys.modules["scipy.optimize._zeros"] is zeros
    assert scipy.integrate._quadpack_py._quadpack is quadpack
    assert scipy.optimize._zeros_py._zeros is zeros
""")


def _run(script: str, *args: str) -> str:
    src = str(Path(blowuplab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    out = json.loads(_run(SCRIPT, str(tmp_path_factory.mktemp("out"))).strip().splitlines()[-1])
    assert out["rc"] == [0, 0]
    return out["loaded"]


def test_pure_power_run_loads_no_quadrature_or_root_finder(loaded):
    assert [m for m in loaded["pure power"] if m in EXTENSIONS] == []
    # positive control: the power_log tail check and curve run both
    assert [m for m in loaded["power_log"] if m in EXTENSIONS] == list(EXTENSIONS)


def test_pure_power_run_skips_the_scipy_linalg_package_init(loaded):
    assert [m for m in loaded["pure power"] if m in PACKAGE_INITS] == []


def test_power_log_run_skips_every_scipy_package_init(loaded):
    assert [m for m in loaded["power_log"] if m in PACKAGE_INITS] == []


@pytest.mark.parametrize("before", [True, False], ids=["linalg-first", "linalg-after"])
def test_scipy_linalg_shares_the_loaded_lapack_module(before):
    line = "import scipy.linalg.lapack"
    _run(SHARED % ((line, "") if before else ("", line)))


@pytest.mark.parametrize("before", [True, False], ids=["packages-first", "packages-after"])
def test_scipy_integrate_and_optimize_share_the_loaded_extensions(before):
    line = "import scipy.integrate, scipy.optimize"
    check = 'assert "scipy.integrate" not in sys.modules and "scipy.optimize" not in sys.modules'
    _run(SHARED_EXTENSIONS % ((line, "") if before else ("", check)))
