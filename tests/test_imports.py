"""Which scipy and numpy modules a run loads.

A pure-power run has closed forms for F, the profile, the blow-down curve and
the tail-integrability check, so it must never import scipy's quadrature or
root finder; a power_log run loads them on first use.  The Newton solver
loads LAPACK's ``_flapack`` extension without ``scipy.linalg``'s package
init, and ``scipy.linalg`` shares that one module whichever is imported
first.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import blowuplab

LAZY = ("scipy.integrate", "scipy.optimize")
# scipy.linalg's package init and what its clone of numpy's namespace pulls in
LINALG_INIT = ("scipy.linalg", "numpy.f2py", "numpy.testing")

SCRIPT = textwrap.dedent("""
    import json, sys
    from blowuplab import cli
    from blowuplab.geometry import build_graded_mesh, interval
    from blowuplab.karamata import const_kernel, constant_weight
    from blowuplab.nonlinearity import check_conditions, power, power_log
    from blowuplab.parabolic import ParabolicProblem, build_time_grid, minimal_solution

    loaded = {}
    rc = cli.main(["--out", sys.argv[1], "suite", "power"])
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2),
                            weight=constant_weight(const_kernel(), 1.0), horizon=0.5)
    minimal_solution(prob, build_time_grid(0.2, 10, 2.0))
    loaded["pure power"] = [m for m in %(names)r if m in sys.modules]
    check_conditions(power_log(2), 2.0)
    loaded["power_log"] = [m for m in %(names)r if m in sys.modules]
    print(json.dumps({"rc": rc, "loaded": loaded}))
""") % {"names": LAZY + LINALG_INIT}

SHARED = textwrap.dedent("""
    import sys
    %s
    import blowuplab.discretize
    %s
    assert scipy.linalg.lapack.dgtsv is blowuplab.discretize.dgtsv
    assert sys.modules["scipy.linalg._flapack"] is scipy.linalg.lapack._flapack
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
    assert out["rc"] == 0
    return out["loaded"]


def test_pure_power_run_loads_no_quadrature_or_root_finder(loaded):
    assert [m for m in loaded["pure power"] if m in LAZY] == []
    # positive control: the power_log tail check runs the quadrature
    assert "scipy.integrate" in loaded["power_log"]


def test_pure_power_run_skips_the_scipy_linalg_package_init(loaded):
    assert [m for m in loaded["pure power"] if m in LINALG_INIT] == []


@pytest.mark.parametrize("before", [True, False], ids=["linalg-first", "linalg-after"])
def test_scipy_linalg_shares_the_loaded_lapack_module(before):
    line = "import scipy.linalg.lapack"
    _run(SHARED % ((line, "") if before else ("", line)))
