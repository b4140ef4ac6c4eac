"""Marching the viscous problem and reading its per-step diagnostics.

The implicit scheme treats each arc as an advection-diffusion equation
and ties the arcs together with the discrete junction conditions. Three
quantities are recorded after every step and act as health checks:

  l1_norm        composite-trapezoid L1 norm of the state, which for a
                 nonnegative state is its mass; it should only shrink
                 once inflow stops feeding it
  min_value      this pair's step is certified positive
                 (StepOperator.positive: the junction Schur system's
                 inverse is entrywise nonnegative), so this should never
                 drop below a machine-scale floor; where the certificate
                 fails, assemble_step_operator warns UnstableConfig and
                 converge's manifest.json shows schur_inv_min < 0
  flux_residual  imbalance of the junction fluxes, enforced by the
                 linear solve itself, so it sits at solver precision

The run drives a constant inflow of 1 into an initially empty pair of
arcs until the state settles near the steady throughput profile, then
prints a coarse view of the outflow boundary layer.
"""

from __future__ import annotations

from starflux import (
    CouplingMatrix,
    PiecewiseConstantField,
    SolverConfig,
    build_network,
    solve_parabolic,
)

net = build_network([(1.0, 1.0, "in"), (1.0, 1.0, "out")])
K = CouplingMatrix.from_array([[0.0, 1.0], [1.0, 0.0]], net)
u0 = PiecewiseConstantField.constant(net, [0.0, 0.0])

epsilon = 0.05
cfg = SolverConfig(epsilon=epsilon, T=4.0, dt=0.02)
traj = solve_parabolic(net, K, u0, [1.0, 0.0], cfg)

print(f"epsilon = {epsilon}, grid spacing = {max(traj.final.grid.spacings):.4f}")
print()
print("   t     l1_norm    min_value   flux_residual")
for k in range(0, traj.diagnostics.shape[0], 20):
    t, norm, mn, flux = traj.diagnostics[k]
    print(f"  {t:4.2f}  {norm:9.5f}  {mn:11.2e}  {flux:13.2e}")

# the outflow end is pinned at the initial value 0, so the transported
# value ~1 has to fold down inside a layer of width O(epsilon)
final = traj.final
out_vals = final.values[1]
nodes = final.grid.nodes(1)
print("\noutgoing arc approaching its outer end (every 4th node):")
for x, v in zip(nodes[-33::4], out_vals[-33::4]):
    bar = "#" * int(round(40 * max(v, 0.0)))
    print(f"  x = {x:6.4f}  u = {v:7.4f}  {bar}")
print(
    f"\nlayer width for comparison: epsilon / speed = {epsilon:.3f}; "
    "everything left of it sits on the transported plateau."
)
