"""Which scipy modules a run loads.

A pure-power run has closed forms for F, the profile, the blow-down curve and
the tail-integrability check, so it must never import scipy's quadrature or
root finder; a power_log run loads them on first use.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import blowuplab

LAZY = ("scipy.integrate", "scipy.optimize")

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
    loaded["pure power"] = [m for m in %(lazy)r if m in sys.modules]
    check_conditions(power_log(2), 2.0)
    loaded["power_log"] = [m for m in %(lazy)r if m in sys.modules]
    print(json.dumps({"rc": rc, "loaded": loaded}))
""") % {"lazy": LAZY}


def test_pure_power_run_loads_no_quadrature_or_root_finder(tmp_path):
    src = str(Path(blowuplab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["rc"] == 0
    assert out["loaded"]["pure power"] == []
    # positive control: the power_log tail check runs the quadrature
    assert "scipy.integrate" in out["loaded"]["power_log"]
