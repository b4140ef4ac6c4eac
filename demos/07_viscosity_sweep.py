"""The headline experiment: viscous solutions approaching pure transport.

For a fixed 2-in/2-out network, one run per viscosity level:

  prepare admissible data at scale epsilon, march the viscous problem
  to T, solve the zero-viscosity problem exactly, and measure the L1
  gap at the final time plus the gap between junction traces over time.

The network, data and viscosity ladder are the checked-in documents in
experiments/pinned_sweep/, the ones `starflux converge --config
experiments/pinned_sweep/experiment.json` reads. Halving epsilon three
times should drive the final-time error down monotonically. The report
arrives as CSV because that is exactly what the command line front end
emits; the last two columns double as health checks (junction flux
residual, positivity floor).
"""

from __future__ import annotations

from pathlib import Path

from starflux import run_convergence
from starflux.harness import load_experiment_spec

experiment = Path(__file__).resolve().parents[1] / "experiments" / "pinned_sweep"
spec = load_experiment_spec(experiment / "experiment.json")

report = run_convergence(spec)
print(report.csv())
errors = [row.l1_error_final_time for row in report.rows]
print(f"# final-time errors: {' > '.join(f'{e:.4f}' for e in errors)}")
print(f"# last/first = {errors[-1] / errors[0]:.4f}")
