"""Which scipy and numpy modules a run loads.

A pure-power run has closed forms for F, the profile, the blow-down curve and
the tail-integrability check, so it must never load scipy's quadrature or
root finder; a power_log run loads QUADPACK's and Brent's compiled extensions
on first use.  No run executes the package inits of ``scipy.integrate``,
``scipy.optimize``, ``scipy.special`` or ``scipy.linalg``, and each package
shares the loaded extension whichever is imported first.  The Newton solver
calls the LAPACK of numpy's bundled OpenBLAS, so a pure-power solver session
imports no scipy module and maps one OpenBLAS, numpy's; where numpy bundles
no OpenBLAS, its fallback loads LAPACK's ``_flapack`` without ``scipy.linalg``'s
init, and ``scipy.linalg`` shares that module whichever is imported first.  A
power_log run imports ``scipy`` at its first quadrature, through
``scipy._lib._ccallback``.

``import blowuplab`` loads its submodules on first use: a session that only
evaluates profiles and blow-down curves builds no solver, and only
``blowuplab run`` and ``validate`` load ``configparser``.
"""

import json
import os
import subprocess
import sys
import textwrap
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import pytest

import blowuplab
from blowuplab import scipyext

EXTENSIONS = ("scipy.integrate._quadpack", "scipy.optimize._zeros")
# the package inits, and what scipy.linalg's clone of numpy's namespace pulls in
PACKAGE_INITS = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg",
                 "numpy.f2py", "numpy.testing")
SCIPY_INIT = "scipy"

SCRIPT = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    import numpy
    from blowuplab import cli
    from blowuplab.blowdown import BlowdownCurve
    from blowuplab.geometry import build_graded_mesh, interval
    from blowuplab.karamata import const_kernel, constant_weight
    from blowuplab.nonlinearity import check_conditions, power, power_log
    from blowuplab.parabolic import ParabolicProblem, build_time_grid, minimal_solution

    loaded = {}
    rc = [cli.main(["--out", sys.argv[1], "suite", "power"])]
    loaded["suite power"] = [m for m in ("configparser",) if m in sys.modules]
    mesh = build_graded_mesh(interval(0.0, 1.0), 24, 2.0)
    prob = ParabolicProblem(mesh=mesh, p=2.0, nl=power(2),
                            weight=constant_weight(const_kernel(), 1.0), horizon=0.5)
    minimal_solution(prob, build_time_grid(0.2, 10, 2.0))
    loaded["pure power"] = [m for m in %(names)r if m in sys.modules]
    loaded["pure power scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    if sys.platform.startswith("linux"):
        with open("/proc/self/maps") as maps:  # address perms offset dev inode [path]
            files = {f[5].strip() for f in (line.split(None, 5) for line in maps) if len(f) == 6}
        loaded["pure power openblas"] = sorted(f for f in files if "openblas" in Path(f).name)
    lapack = numpy.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
    loaded["numpy lapack"] = [lapack, str(Path(numpy.__file__).resolve().parent.parent)]
    check_conditions(power_log(2), 2.0)
    BlowdownCurve(power_log(2)).value(0.1)
    rc.append(cli.main(["--out", sys.argv[1], "suite", "power-log"]))
    loaded["power_log"] = [m for m in %(names)r if m in sys.modules]
    print(json.dumps({"rc": rc, "loaded": loaded}))
""") % {"names": EXTENSIONS + PACKAGE_INITS + (SCIPY_INIT,)}

# the solver's fallback where numpy bundles no OpenBLAS: gtsv from scipy's _flapack
SHARED = textwrap.dedent("""
    import sys
    import numpy as np
    %s
    from blowuplab import discretize
    from blowuplab.scipyext import load_extension
    discretize.GTSV = None
    system = discretize.Tridiagonal.of(np.ones(2), np.full(3, 4.0), np.ones(2), np.ones(3))
    assert np.allclose(discretize.solve_banded(system), [3 / 14, 1 / 7, 3 / 14])
    %s
    flapack = load_extension("scipy.linalg._flapack")
    assert sys.modules["scipy.linalg._flapack"] is flapack
    assert scipy.linalg.lapack._flapack is flapack
    assert scipy.linalg.lapack.dgtsv is flapack.dgtsv
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


def test_pure_power_solver_session_skips_the_scipy_init(loaded):
    assert SCIPY_INIT not in loaded["pure power"]


def test_power_log_run_loads_the_scipy_init(loaded):
    # positive control: QUADPACK's and Brent's callbacks import scipy._lib._ccallback
    assert SCIPY_INIT in loaded["power_log"]


def test_extension_file_that_fails_to_load_is_imported_the_ordinary_way(tmp_path, monkeypatch):
    # a fresh directory: no cached result for it can stand in for the fallback
    name = "scipy.linalg._stub"
    (tmp_path / ("_stub" + EXTENSION_SUFFIXES[0])).write_bytes(b"")

    def refuse(self, spec):
        raise ImportError("the library the extension links against was not found")

    monkeypatch.setattr(ExtensionFileLoader, "create_module", refuse)
    imported = []
    monkeypatch.setattr(scipyext, "import_module", lambda n: imported.append(n) or imported)
    assert scipyext.load_extension(name, tmp_path) is imported
    assert imported == [name]
    assert name not in sys.modules


def test_solver_session_imports_no_scipy_and_maps_one_openblas(loaded):
    # a pure-power suite and a minimal solution: gtsv comes from numpy's LAPACK
    lapack, site = loaded["numpy lapack"]
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy is built against {lapack}: gtsv comes from scipy's _flapack")
    assert loaded["pure power scipy"] == []
    if "pure power openblas" in loaded:  # the mapped files are read on Linux only
        openblas = loaded["pure power openblas"]
        assert len(openblas) == 1, openblas
        assert Path(openblas[0]).resolve().parent == Path(site) / "numpy.libs"


@pytest.mark.parametrize("before", [True, False], ids=["linalg-first", "linalg-after"])
def test_scipy_linalg_shares_the_loaded_lapack_module(before):
    line = "import scipy.linalg.lapack"
    check = 'assert "scipy.linalg" not in sys.modules'
    _run(SHARED % ((line, "") if before else ("", f"{check}\n{line}")))


@pytest.mark.parametrize("before", [True, False], ids=["packages-first", "packages-after"])
def test_scipy_integrate_and_optimize_share_the_loaded_extensions(before):
    line = "import scipy.integrate, scipy.optimize"
    check = 'assert "scipy.integrate" not in sys.modules and "scipy.optimize" not in sys.modules'
    _run(SHARED_EXTENSIONS % ((line, "") if before else ("", check)))


# what a session that never solves a PDE must leave unloaded
SOLVER_SIDE = tuple("blowuplab." + m for m in (
    "discretize", "geometry", "elliptic", "parabolic", "rates", "sciformat", "experiment", "cli",
)) + ("scipy.linalg._flapack", "configparser")

KARAMATA_ONLY = textwrap.dedent("""
    import json, sys
    import blowuplab as bl
    bl.BlowupProfile(bl.power_log(2), 2.0).value(0.3)
    bl.BlowdownCurve(bl.power(2)).value(0.1)
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("blowuplab")
                            or m in %(names)r)))
""")

MINIMAL_ONLY = textwrap.dedent("""
    import json, sys
    import blowuplab as bl
    mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), 24, 2.0)
    prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2),
                               weight=bl.constant_weight(bl.const_kernel(), 1.0), horizon=0.5)
    bl.minimal_solution(prob, bl.build_time_grid(0.2, 10, 2.0))
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("blowuplab")
                            or m in %(names)r)))
""")

# the public namespace of the eagerly importing package: submodule -> names
PUBLIC = {
    "blowdown": ("BlowdownCurve", "equivalence_check", "solve_blowdown", "two_scale_equivalence"),
    "discretize": (),
    "elliptic": ("EllipticProblem", "GridFunction", "elliptic_comparison_check",
                 "solve_elliptic_blowup", "solve_elliptic_capped"),
    "errors": ("ConfigError", "DomainError", "NumericsError", "SolverError"),
    "experiment": ("ExperimentConfig", "emit_report", "load_config", "run_experiment"),
    "extrapolation": (),
    "geometry": ("Domain", "Mesh", "ball", "build_graded_mesh", "distance_to_boundary", "interval"),
    "karamata": ("AbsorptionWeight", "BlowupProfile", "WeightKernel", "const_kernel",
                 "constant_weight", "effective_absorption", "effective_index", "index_gate_bound",
                 "kernel_primitive", "kernel_primitive_inverse", "limit_estimate", "make_kernel",
                 "power_kernel", "profile_decay_ratio", "profile_inverse", "profile_value"),
    "nonlinearity": ("ConditionReport", "Nonlinearity", "blowup_order", "check_conditions",
                     "make_nonlinearity", "power", "power_log", "primitive", "rv_index_estimate"),
    "parabolic": ("CompactTestField", "ParabolicProblem", "SpaceTimeField", "build_time_grid",
                  "maximal_solution", "minimal_solution", "parabolic_comparison_check",
                  "solve_capped", "step_implicit", "weak_form_residual"),
    "quadutil": (),
    "rates": ("GapReport", "RateReport", "SandwichReport", "boundary_rate", "initial_rate",
              "predicted_boundary_constant", "profile_of_distance", "sandwich_check",
              "uniqueness_gap"),
    "sciformat": (),
    "scipyext": (),
}
REEXPORTS = sorted(name for names in PUBLIC.values() for name in names)

NAMESPACE = textwrap.dedent("""
    import importlib, json, sys
    import blowuplab
    public = %(public)r
    listed = [n for n in dir(blowuplab) if not n.startswith("_")]
    loaded = sorted(m for m in sys.modules if m.startswith("blowuplab."))
    wrong = []
    for module, names in public.items():
        mod = importlib.import_module("blowuplab." + module)
        if getattr(blowuplab, module) is not mod:
            wrong.append(module)
        for name in names:
            if getattr(blowuplab, name) is not getattr(mod, name) or name not in vars(blowuplab):
                wrong.append(name)
    try:
        blowuplab.no_such_name
        unknown = None
    except AttributeError as exc:
        unknown = str(exc)
    star = {}
    exec("from blowuplab import *", star)
    print(json.dumps({"listed": listed, "loaded_at_import": loaded, "wrong": wrong,
                      "unknown": unknown, "star": sorted(k for k in star if k != "__builtins__"),
                      "all": sorted(getattr(blowuplab, "__all__", ())), "version": blowuplab.__version__}))
""") % {"public": PUBLIC}


def test_karamata_only_session_builds_no_solver():
    loaded = json.loads(_run(KARAMATA_ONLY % {"names": SOLVER_SIDE}).strip().splitlines()[-1])
    assert [m for m in loaded if m in SOLVER_SIDE] == []
    assert loaded == ["blowuplab"] + ["blowuplab." + m for m in (
        "blowdown", "errors", "extrapolation", "karamata", "nonlinearity", "quadutil", "scipyext")]


def test_minimal_solution_session_loads_no_rate_checks_or_pipeline():
    skipped = ("blowuplab.rates", "blowuplab.experiment", "blowuplab.sciformat", "configparser")
    loaded = json.loads(_run(MINIMAL_ONLY % {"names": skipped}).strip().splitlines()[-1])
    assert [m for m in loaded if m in skipped] == []
    # positive control: the solver stack did load
    assert {"blowuplab.parabolic", "blowuplab.discretize"} <= set(loaded)


def test_suite_run_leaves_configparser_unloaded(loaded):
    assert loaded["suite power"] == []


@pytest.fixture(scope="module")
def namespace():
    return json.loads(_run(NAMESPACE).strip().splitlines()[-1])


def test_import_loads_no_submodule(namespace):
    assert namespace["loaded_at_import"] == []


def test_public_namespace_is_unchanged(namespace):
    assert namespace["listed"] == sorted(REEXPORTS + list(PUBLIC))
    assert len(namespace["listed"]) == 81
    assert namespace["version"] == "0.1.0"


def test_every_public_name_resolves_to_its_submodule_object(namespace):
    assert namespace["wrong"] == []


def test_unknown_name_raises_attribute_error_naming_it(namespace):
    assert "no_such_name" in namespace["unknown"]


def test_star_import_binds_the_reexports(namespace):
    assert namespace["all"] == REEXPORTS
    assert namespace["star"] == REEXPORTS
