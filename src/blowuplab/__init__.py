"""Numerical laboratory for p-Laplacian diffusion with infinite boundary and initial data.

Solutions of  u_t - Delta_p u = -b(x, t) f(u)  that blow up on the parabolic
boundary are built by monotone capped approximation, and their boundary and
initial rates are measured against the predictions of regular-variation
theory: the boundary profile phi(K(d)), the space-free blow-down curves, and
the derived indices r and q.

``import blowuplab`` loads this file only: no submodule, no numpy, no scipy.
Each public name and each submodule below loads on first access (PEP 562),
together with what that submodule imports.  So a session that only evaluates
profiles and blow-down curves loads ``karamata`` and ``blowdown`` with their
helpers (``errors``, ``extrapolation``, ``nonlinearity``, ``quadutil``,
``scipyext``), and never builds the solvers, the rate checks or the
experiment pipeline.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines; every submodule is public, and
# ``cli`` (not listed) is imported as ``blowuplab.cli``
_SUBMODULES = {
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
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value    # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
