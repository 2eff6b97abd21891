"""Per-layer tracing from outside the program.

The tracer replaces public entry points of blowuplab's modules with thin
wrappers, at the places where their callers look them up (a function bound
by ``from .x import f`` is wrapped in the importing module; a method is
wrapped on its class).  Each wrapped call records a span (name, start, end,
parent) in memory; the spans are written out once the run ends.  Counters
that a span cannot carry (Newton iterations from the returned info, cap
rungs from the returned meta, scalar points per vectorised call, quadrature
integrand evaluations) are summed at the same boundaries.

A site that no longer exists is skipped, and every metric that depends on
it is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> sites "<module>:<attribute>" or "<module>:<Class>.<method>"
SITES = {
    "parabolic.newton_solve": ["parabolic:newton_solve"],
    "elliptic.newton_solve": ["elliptic:newton_solve"],
    "discretize.solve_banded": ["discretize:solve_banded"],
    "discretize.residual": ["discretize:Discretization.residual"],
    "parabolic.minimal_solution": ["parabolic:minimal_solution", "experiment:minimal_solution"],
    "parabolic.maximal_solution": ["parabolic:maximal_solution", "experiment:maximal_solution"],
    "elliptic.solve_elliptic_blowup": ["elliptic:solve_elliptic_blowup",
                                       "experiment:solve_elliptic_blowup"],
    "karamata.profile_value": ["karamata:BlowupProfile.value"],
    "karamata.tail_time": ["karamata:BlowupProfile.tail_time"],
    "karamata.effective_absorption": ["karamata:effective_absorption",
                                      "experiment:effective_absorption",
                                      "rates:effective_absorption"],
    "karamata.cap_ceiling": ["parabolic:cap_ceiling", "elliptic:cap_ceiling"],
    "blowdown.curve_value": ["blowdown:BlowdownCurve.value"],
    "blowdown.first_integral": ["blowdown:BlowdownCurve.first_integral"],
    "quadutil.upper_tail_integral": ["blowdown:upper_tail_integral",
                                     "karamata:upper_tail_integral",
                                     "nonlinearity:upper_tail_integral"],
    "rates.boundary_rate": ["experiment:boundary_rate"],
    "rates.initial_rate": ["experiment:initial_rate"],
    "rates.sandwich_check": ["experiment:sandwich_check"],
    "nonlinearity.check_conditions": ["experiment:check_conditions"],
    "experiment.run_experiment": ["cli:run_experiment"],
}

NEWTON = ("parabolic.newton_solve", "elliptic.newton_solve")

# per-layer metric -> (unit, span names it is computed from)
METRICS = {
    "discretize.newton_calls": ("count", NEWTON),
    "discretize.newton_failed": ("count", NEWTON),
    "discretize.newton_iterations": ("count", NEWTON),
    "discretize.newton_useful_ratio": ("ratio", NEWTON),
    "discretize.residual_evals": ("count", ("discretize.residual",)),
    "discretize.factorizations": ("count", ("discretize.solve_banded",)),
    "discretize.newton_s": ("s", NEWTON),
    "parabolic.minimal_s": ("s", ("parabolic.minimal_solution",)),
    "parabolic.maximal_s": ("s", ("parabolic.maximal_solution",)),
    "parabolic.cap_rungs": ("count", ("parabolic.minimal_solution", "parabolic.maximal_solution")),
    "parabolic.collars": ("count", ("parabolic.maximal_solution",)),
    "parabolic.step_solves": ("count", ("parabolic.newton_solve",)),
    "elliptic.blowup_s": ("s", ("elliptic.solve_elliptic_blowup",)),
    "elliptic.cap_rungs": ("count", ("elliptic.solve_elliptic_blowup",)),
    "karamata.profile_evals": ("count", ("karamata.profile_value",)),
    "karamata.profile_s": ("s", ("karamata.profile_value",)),
    "karamata.tail_time_calls": ("count", ("karamata.tail_time",)),
    "karamata.effective_absorption_s": ("s", ("karamata.effective_absorption",)),
    "karamata.cap_ceiling_s": ("s", ("karamata.cap_ceiling",)),
    "blowdown.curve_evals": ("count", ("blowdown.curve_value",)),
    "blowdown.curve_s": ("s", ("blowdown.curve_value",)),
    "blowdown.first_integral_calls": ("count", ("blowdown.first_integral",)),
    "quadutil.tail_integrals": ("count", ("quadutil.upper_tail_integral",)),
    "quadutil.integrand_evals": ("count", ("quadutil.upper_tail_integral",)),
    "quadutil.tail_integral_s": ("s", ("quadutil.upper_tail_integral",)),
    "rates.boundary_rate_s": ("s", ("rates.boundary_rate",)),
    "rates.initial_rate_s": ("s", ("rates.initial_rate",)),
    "rates.sandwich_s": ("s", ("rates.sandwich_check",)),
    "nonlinearity.check_conditions_s": ("s", ("nonlinearity.check_conditions",)),
    "experiment.self_s": ("s", ("experiment.run_experiment",)),
    "experiment.artifact_bytes": ("bytes", ()),
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self, package) -> None:
        """Wrap every site of ``SITES`` that exists in ``package``."""
        for span, sites in SITES.items():
            for site in sites:
                owner, attr = _resolve(package, site)
                if owner is None or not hasattr(owner, attr):
                    self.missing.add(span)
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(span, original))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, span: str, original):
        fn = original
        counts = self.counts
        on_result = _ON_RESULT.get(span)
        on_args = _ON_ARGS.get(span)
        if span == "quadutil.upper_tail_integral":
            def fn(func, *args, **kwargs):
                def integrand(s):
                    counts["quadutil.integrand_evals"] += 1
                    return func(s)
                return original(integrand, *args, **kwargs)

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(counts, args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[span + ".raised"] += 1
                raise
            finally:
                spans[idx] = (span, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return functools.wraps(original)(wrapper)

    # -- results ----------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time (outermost spans only) and self time."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
            if not self._inside(name, parent):
                entry["inclusive_s"] += end - start
        return out

    def _inside(self, name: str, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, artifact_bytes: int) -> dict[str, dict]:
        """Every per-layer metric whose sites all exist, with its unit."""
        summ = self.summary()
        c = self.counts

        def calls(*names):
            return sum(summ.get(n, {}).get("calls", 0) for n in names)

        def incl(*names):
            return sum(summ.get(n, {}).get("inclusive_s", 0.0) for n in names)

        newton = calls(*NEWTON)
        newton_failed = sum(c[n + ".raised"] for n in NEWTON)
        values = {
            "discretize.newton_calls": newton,
            "discretize.newton_failed": newton_failed,
            "discretize.newton_iterations": c["newton_iterations"],
            # no solve attempted wastes nothing
            "discretize.newton_useful_ratio": (newton - newton_failed) / newton if newton else 1.0,
            "discretize.residual_evals": calls("discretize.residual"),
            "discretize.factorizations": calls("discretize.solve_banded"),
            "discretize.newton_s": incl(*NEWTON),
            "parabolic.minimal_s": incl("parabolic.minimal_solution"),
            "parabolic.maximal_s": incl("parabolic.maximal_solution"),
            "parabolic.cap_rungs": c["parabolic_cap_rungs"],
            "parabolic.collars": c["collars"],
            "parabolic.step_solves": calls("parabolic.newton_solve"),
            "elliptic.blowup_s": incl("elliptic.solve_elliptic_blowup"),
            "elliptic.cap_rungs": c["elliptic_cap_rungs"],
            "karamata.profile_evals": c["profile_points"],
            "karamata.profile_s": incl("karamata.profile_value"),
            "karamata.tail_time_calls": calls("karamata.tail_time"),
            "karamata.effective_absorption_s": incl("karamata.effective_absorption"),
            "karamata.cap_ceiling_s": incl("karamata.cap_ceiling"),
            "blowdown.curve_evals": c["curve_points"],
            "blowdown.curve_s": incl("blowdown.curve_value"),
            "blowdown.first_integral_calls": calls("blowdown.first_integral"),
            "quadutil.tail_integrals": calls("quadutil.upper_tail_integral"),
            "quadutil.integrand_evals": c["quadutil.integrand_evals"],
            "quadutil.tail_integral_s": incl("quadutil.upper_tail_integral"),
            "rates.boundary_rate_s": incl("rates.boundary_rate"),
            "rates.initial_rate_s": incl("rates.initial_rate"),
            "rates.sandwich_s": incl("rates.sandwich_check"),
            "nonlinearity.check_conditions_s": incl("nonlinearity.check_conditions"),
            "experiment.self_s": summ.get("experiment.run_experiment", {}).get("self_s", 0.0),
            "experiment.artifact_bytes": artifact_bytes,
        }
        out = {}
        for name, (unit, spans) in METRICS.items():
            if not self.missing.intersection(spans):
                out[name] = {"value": values[name], "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as CSV (index, name, start, end, parent), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _resolve(package, site: str):
    module_name, attr = site.split(":")
    owner = getattr(package, module_name, None)
    if owner is not None and "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls, None)
    return owner, attr


def _newton_result(counts, result):
    counts["newton_iterations"] += int(result[1]["iterations"])


def _minimal_result(counts, result):
    counts["parabolic_cap_rungs"] += int(result.meta["cap_rungs"])


def _maximal_result(counts, result):
    ladder = result.meta["eps_ladder"]
    counts["collars"] += len(ladder)
    counts["parabolic_cap_rungs"] += sum(int(rungs) for _, rungs in ladder)


def _elliptic_result(counts, result):
    counts["elliptic_cap_rungs"] += int(result.meta["cap_rungs"])


def _points(key):
    def on_args(counts, args):
        counts[key] += int(np.size(args[1]))  # args[0] is self
    return on_args


_ON_RESULT = {
    "parabolic.newton_solve": _newton_result,
    "elliptic.newton_solve": _newton_result,
    "parabolic.minimal_solution": _minimal_result,
    "parabolic.maximal_solution": _maximal_result,
    "elliptic.solve_elliptic_blowup": _elliptic_result,
}

_ON_ARGS = {
    "karamata.profile_value": _points("profile_points"),
    "blowdown.curve_value": _points("curve_points"),
}
