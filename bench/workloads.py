"""One benchmark workload in one process: set up, run timed rounds, check.

run.py starts this script in a fresh child process:

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It imports blowuplab from the checkout's ``src`` (run.py sets PYTHONPATH),
builds the workload's inputs (timed as set-up), then repeats whole rounds of
the same calls until the timed rounds add up to ``--seconds`` (at least one
round; exactly one round when traced, so that counters never depend on the
machine's speed).  Outputs are checked after each round, outside the timed
region.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# u(x, 0.1) d**2 / 6 on the 1500-cell mesh stays within 1.8% of 1 for d in
# [1e-3, 0.25]; 2.5% bounds that discretization error.
PROFILE_RTOL = 0.025


def log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One point drawn log-uniformly in each of n equal log-strata of [lo, hi].

    Stratifying keeps the spread of the points (and so the cost of a round)
    nearly the same from seed to seed.
    """
    edges = np.log(np.geomspace(lo, hi, n + 1))
    return np.exp(rng.uniform(edges[:-1], edges[1:]))


# the problem of suite 'power': power(2) absorption, p = 2, const kernel, amplitude 1
RHO, P, ELL, BETA = 2.0, 2.0, 1.0, 1.0


def check_suite(arts: dict[str, bytes], pde_rtol: float) -> list[str]:
    """Checks of one 'power' suite artifact set against the closed forms of its problem."""
    c = checks.boundary_constant(RHO, P, ELL, BETA)
    # the initial rate is the ratio to the frozen-coefficient curve, whose limit is 1
    expected = {"steady-boundary-rate": c, "boundary-rate": c, "initial-rate": 1.0}
    fails = checks.rates_rows(arts["rates.csv"].decode(), expected, pde_rtol)
    sol = checks.read_table(arts["solutions.csv"].decode())
    fails += checks.profile_column("solutions.csv profile", sol["d"], sol["profile"], 6.0, 2.0)
    traj = checks.read_table(arts["trajectory.csv"].decode())
    fails += checks.profile_column("trajectory.csv profile", traj["d"], traj["profile"], 6.0, 2.0)
    for col in ("curve_plain", "curve_effective", "curve_frozen"):
        fails += checks.close(col, traj[col], checks.power_curve(RHO, traj["t"]), checks.CSV_RTOL)
    _, nodes, u = checks.trajectory_grid(traj)
    fails += checks.monotone_symmetric("trajectory.csv", nodes, u)
    return fails


def check_minimal(nodes, times, values) -> list[str]:
    """Checks of the minimal solution of power(2), p = 2, beta = 1 on (0, 1)."""
    x, t, u = (np.asarray(a, dtype=float) for a in (nodes, times, values))
    fails = checks.monotone_symmetric("minimal solution", x, u)
    # the blow-down curve 1/t of f(u) = u**2 is a subsolution
    fails += checks.above_curve("minimal solution", t, u, RHO)
    j = int(np.argmin(np.abs(t - 0.1)))
    d = np.minimum(x - x[0], x[-1] - x)
    band = (d >= 1e-3) & (d <= 0.25)
    fails += checks.close(f"u(x, {t[j]:.4g}) d^2/6", u[j, band] * d[band] ** 2 / 6.0,
                          np.ones(int(band.sum())), PROFILE_RTOL)
    return fails


class SuitePower:
    """``blowuplab suite power`` through cli.main; one operation per round."""

    def __init__(self, seed: int):
        # the suite fixes its own inputs; the seed changes nothing here
        import blowuplab.cli as cli

        self.cli = cli
        self.cfg = cli.SUITES["power"][0]
        self.out = OUT / "suite-power"
        shutil.rmtree(self.out, ignore_errors=True)
        self.first: dict[str, bytes] | None = None
        self.digest: str | None = None    # of the first round's artifacts
        self.artifact_bytes = 0

    def run(self, k: int):
        out = self.out / f"round-{k}"
        with redirect_stdout(io.StringIO()):
            status = self.cli.main(["--out", str(out), "suite", "power"])
        return status, out / self.cfg.name

    def check(self, result) -> list[list[str]]:
        status, out = result
        fails = [] if status == 0 else [f"exit status {status}"]
        cfg = self.cfg
        if (cfg.absorption, cfg.kernel, cfg.p, cfg.amplitude) != ("power(2)", "const", P, BETA):
            fails.append("suite 'power' no longer solves power(2), const kernel, p = 2, amplitude 1")
        try:
            arts = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}
            self.artifact_bytes = sum(len(b) for b in arts.values())
            fails += check_suite(arts, cfg.pde_rtol)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [fails + [f"missing or malformed artifacts: {exc!r}"]]
        if self.first is None:
            self.first = arts
            self.digest = hashlib.sha256(
                b"".join(name.encode() + b"\0" + body for name, body in sorted(arts.items()))
            ).hexdigest()
        else:
            fails += checks.identical(self.first, arts)
            shutil.rmtree(out.parent)
        return [fails]


class MinimalFine:
    """``minimal_solution`` for power(2), p = 2, beta = 1 on a 1500-cell graded
    interval with 100 graded steps to t* = 0.25; one operation per round."""

    def __init__(self, seed: int):
        # a fixed problem: its Newton and cap-ladder counts are the evidence
        import blowuplab as bl

        self.parabolic = bl.parabolic
        mesh = bl.build_graded_mesh(bl.interval(0.0, 1.0), 1500, 2.0)
        weight = bl.constant_weight(bl.const_kernel(), 1.0)
        self.prob = bl.ParabolicProblem(mesh=mesh, p=2.0, nl=bl.power(2.0), weight=weight,
                                        horizon=0.5)
        self.times = bl.build_time_grid(0.25, 100, 2.0)
        self.artifact_bytes = 0

    def run(self, k: int):
        return self.parabolic.minimal_solution(self.prob, self.times)

    def check(self, fld) -> list[list[str]]:
        return [check_minimal(fld.mesh.nodes, fld.times, fld.values)]


class KaramataCurves:
    """Profiles, blow-down curves and the effective absorption; no PDE.

    One operation is one call over a batch of evaluation points.
    """

    POWER_PROFILES = ((2.0, 2.0), (3.0, 2.0), (3.0, 3.0))   # (rho, p), closed-form path
    # one power_log(2) phi value costs seconds, and the cost jumps with the
    # number of bracket expansions (3.5-5.3 s over t in [0.1, 0.5]); fixed
    # points keep the round time independent of the seed
    POWER_LOG_PHI_T = (0.3, 0.4, 0.5)

    def __init__(self, seed: int):
        import blowuplab as bl

        rng = np.random.default_rng(seed)
        self.karamata = bl.karamata
        self.profiles = {rp: bl.BlowupProfile(bl.power(rp[0]), rp[1]) for rp in self.POWER_PROFILES}
        self.phi_t = log_uniform(rng, 1e-6, 1e2, 2000)
        self.heights = log_uniform(rng, 1e-2, 1e8, 300)
        self.curves = {rho: bl.BlowdownCurve(bl.power(rho)) for rho in (2.0, 3.0)}
        self.curve_t = log_uniform(rng, 1e-5, 1e1, 256)
        plog = bl.make_nonlinearity("power_log(2)")
        self.plog_curve = bl.BlowdownCurve(plog)
        self.plog_curve_t = log_uniform(rng, 1e-4, 1.0, 32)
        self.plog_profile = bl.BlowupProfile(plog, 2.0)
        self.eff_args = (bl.power(2.0), bl.make_kernel("power(1)"), 2.0)
        self.eff_s = log_uniform(rng, 1e-2, 1e6, 2000)
        kar, args = self.karamata, self.eff_args
        # looked up on the module at each call, so the traced run sees it
        self.eff_curve = bl.BlowdownCurve(lambda s: float(kar.effective_absorption(*args, s)),
                                          name="effective")
        self.eff_curve_t = log_uniform(rng, 1e-4, 1.0, 128)
        self.artifact_bytes = 0

    def run(self, k: int) -> dict:
        res = {}
        for (rho, p), prof in self.profiles.items():
            res[f"phi power({rho:g}) p={p:g}"] = prof.value(self.phi_t)
            res[f"T power({rho:g}) p={p:g}"] = np.array([prof.tail_time(y) for y in self.heights])
        for rho, curve in self.curves.items():
            res[f"curve power({rho:g})"] = curve.value(self.curve_t)
        res["curve power_log(2)"] = self.plog_curve.value(self.plog_curve_t)
        res["phi power_log(2)"] = self.plog_profile.value(np.array(self.POWER_LOG_PHI_T))
        res["effective absorption"] = self.karamata.effective_absorption(*self.eff_args, self.eff_s)
        res["effective curve"] = self.eff_curve.value(self.eff_curve_t)
        return res

    def check(self, res: dict) -> list[list[str]]:
        ops = []
        for rho, p in self.POWER_PROFILES:
            key = f"phi power({rho:g}) p={p:g}"
            phi = res[key]
            ops.append(checks.close(key, phi, checks.power_profile(rho, p, self.phi_t), 1e-12)
                       + checks.decreasing(key, self.phi_t, phi))
            key = f"T power({rho:g}) p={p:g}"
            ops.append(checks.close(key, res[key], checks.power_tail_time(rho, p, self.heights), 1e-12))
        for rho in self.curves:
            key = f"curve power({rho:g})"
            ops.append(checks.close(key, res[key], checks.power_curve(rho, self.curve_t), 1e-9)
                       + checks.decreasing(key, self.curve_t, res[key]))
        key = "curve power_log(2)"
        w = res[key]
        g = [checks.power_log_first_integral(v) for v in w]
        ops.append(checks.close(f"G(w(t)) for {key}", g, self.plog_curve_t, 1e-8)
                   + checks.decreasing(key, self.plog_curve_t, w))
        key = "phi power_log(2)"
        phi = res[key]
        tail = [checks.power_log_tail_time(v, 2.0) for v in phi]
        ops.append(checks.close(f"T(phi(t)) for {key}", tail, self.POWER_LOG_PHI_T, 1e-8)
                   + checks.decreasing(key, self.POWER_LOG_PHI_T, phi))
        key = "effective absorption"
        ops.append(checks.close(key, res[key], 2.0 * np.sqrt(6.0) * self.eff_s ** 1.5, 1e-10))
        key = "effective curve"
        ops.append(checks.close(key, res[key], (np.sqrt(6.0) * self.eff_curve_t) ** -2.0, 1e-8)
                   + checks.decreasing(key, self.eff_curve_t, res[key]))
        return ops


WORKLOADS = {"suite-power": SuitePower, "minimal-fine": MinimalFine,
             "karamata-curves": KaramataCurves}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start

    import blowuplab

    src = (ROOT / "src").resolve()
    if src not in Path(blowuplab.__file__).resolve().parents:
        print(f"blowuplab imported from {blowuplab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import blowuplab.cli  # noqa: F401  (cli is a wrapped site)

        tracer = tracing.Tracer()
        tracer.install(blowuplab)
    rounds: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    try:
        while not rounds or (not args.trace and sum(rounds) < args.seconds):
            t0 = time.perf_counter()
            result = wl.run(len(rounds))
            rounds.append(time.perf_counter() - t0)
            if len(rounds) == 1:
                # the checks that follow are the benchmark's own memory
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops = wl.check(result)
            attempted += len(ops)
            failed += sum(1 for op in ops if op)
            failures += [msg for op in ops for msg in op]
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = {
        "setup_s": setup_s,
        "rounds": rounds,
        "wall_s": statistics.median(rounds),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:40],
        "artifacts_sha256": getattr(wl, "digest", None),
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".csv"))
        report["layers"] = tracer.metrics(wl.artifact_bytes)
        stem.with_suffix(".json").write_text(json.dumps(
            {"spans": tracer.summary(), "counts": dict(tracer.counts),
             "missing_sites": sorted(tracer.missing), "layers": report["layers"]}, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
