import numpy as np

from blowuplab.discretize import NEWTON_RTOL, Discretization, newton_solve
from blowuplab.geometry import build_graded_mesh, interval
from blowuplab.nonlinearity import power


def test_newton_evaluates_one_residual_per_iteration(monkeypatch):
    # one backward-Euler step of u_t - u'' + u^2 = 0: full Newton steps, no backtracking
    mesh = build_graded_mesh(interval(0.0, 1.0), 32, 1.0)
    disc = Discretization.build(mesh, 2.0)
    nl = power(2)
    x = mesh.nodes
    u_prev = 10.0 * (1.0 + 4.0 * x * (1.0 - x))
    kw = dict(weight=np.ones_like(x), f=nl.func, fp=nl.deriv, mass_coef=1.0 / 0.05,
              u_prev=u_prev, dirichlet_val=u_prev)
    calls = []
    real = Discretization.residual
    monkeypatch.setattr(Discretization, "residual",
                        lambda self, u, **k: calls.append(1) or real(self, u, **k))
    u, info = newton_solve(disc, u_prev, **kw)
    k = info["iterations"]
    assert k >= 2 and info["projections"] == 0
    # the residual at each accepted point is reused by the next iteration
    assert len(calls) == k + 1
    R, scale = real(disc, u, **kw)
    assert np.max(np.abs(R) / (1.0 + scale)) <= NEWTON_RTOL
