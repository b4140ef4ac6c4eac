"""Two independent routes to the same steady state.

The steady problem (state minus theta times its generator applied to
the state equals a forcing) is solved twice:

  1. in closed form, by combining exponential modes per arc and solving
     one small coupling system for the junction; and
  2. on a grid, as one implicit time step of length theta started from
     the forcing: the step's equation is the discrete steady equation.

Route 1 is exact up to rounding; route 2 carries an O(h) discretization
error. Their gap, measured in L1 on successively halved grids, should
therefore halve as well. Watching that happen is the cheapest full-stack
integrity check in the package: it exercises the exponential algebra,
the junction system, the step operator, and the norms in one go.
"""

from __future__ import annotations

import numpy as np

from starflux import (
    CouplingMatrix,
    ResolventProblem,
    build_network,
    l1_distance,
    make_grid,
    march_to_steady,
    resolvent_forcing_field,
    solve_resolvent,
)

net = build_network([(1.0, 1.0, "in"), (1.0, 2.0, "out")])
K = CouplingMatrix.from_array([[0.0, 1.5], [1.5, 0.0]], net)
epsilon, theta = 0.5, 0.8

forcing = resolvent_forcing_field(net, np.random.default_rng(11))
problem = ResolventProblem.build(theta, forcing, [0.7, 0.3])

closed = solve_resolvent(net, K, epsilon, problem)
report = closed.residual_report()
print("closed form, residuals relative to the data scale:")
print(f"  interior equation : {report.ode_max / report.scale:.2e}")
print(f"  outer boundaries  : {report.dirichlet_max / report.scale:.2e}")
print(f"  junction exchange : {report.node_max / report.scale:.2e}")
print(f"  dominance margins : {closed.dominance_margins}")
print()

print("march on halved grids, L1 gap to the closed form:")
print("      h        error      ratio")
previous = None
for h in (0.04, 0.02, 0.01, 0.005):
    grid = make_grid(net, h=h)
    steady = march_to_steady(net, K, grid, epsilon, problem)
    error = l1_distance(steady, closed)
    ratio = "" if previous is None else f"{previous / error:8.3f}"
    print(f"  {h:7.4f}  {error:.3e}  {ratio}")
    previous = error
print("\nratios settling on 2 confirm the expected first-order gap.")
