"""How a junction splits incoming flux: the transmission weight matrix.

A star network carries one-way transport on every arc. Where the arcs
meet, a membrane-style exchange (coefficients K) decides how the flux
arriving on each incoming arc is divided among the outgoing arcs. That
division is summarized by a weight matrix: entry (l, j) is the fraction
of incoming flux j that leaves through outgoing arc l. This script
builds a 3-in/2-out star, computes the weights, and checks the two
facts the algebra guarantees: no negative fractions, and every column
summing to one (nothing is lost or created at the node).
"""

from __future__ import annotations

import numpy as np

from starflux import CouplingMatrix, build_network, compute_gamma

net = build_network(
    [
        (1.0, 1.0, "in"),
        (1.0, 2.0, "in"),
        (1.5, 0.5, "in"),
        (1.0, 1.5, "out"),
        (2.0, 3.0, "out"),
    ]
)

# each incoming arc exchanges differently with the two outgoing arcs,
# plus one link between the incoming arcs themselves (allowed: K only
# has to be symmetric, nonnegative, and connect each side to the other)
K = np.zeros((5, 5))
K[0, 3] = K[3, 0] = 3.0
K[0, 4] = K[4, 0] = 0.4
K[1, 3] = K[3, 1] = 1.0
K[1, 4] = K[4, 1] = 1.0
K[2, 4] = K[4, 2] = 2.0
K[0, 1] = K[1, 0] = 0.7
system = compute_gamma(net, CouplingMatrix.from_array(K, net))

print("transmission weights (rows: outgoing arcs, columns: incoming arcs)")
for li, l in enumerate(net.outgoing_ids):
    row = "  ".join(f"{g:8.5f}" for g in system.gamma[li])
    print(f"  arc {l}:  {row}")
print()
print("column sums (should each be 1):", system.gamma.sum(axis=0))
print("smallest weight:", float(system.gamma.min()))
print()
print("certificates behind those guarantees:")
print("  node matrix irreducible:     ", system.certificates.irreducible)
print("  diagonal dominance holds:    ", system.certificates.gershgorin_ok)
print("  M-matrix structure verified: ", system.certificates.m_matrix_ok)
print(f"  det(node matrix) = {system.certificates.det:.6e}")
print()

# collapse to a single outgoing arc: the only flux-conserving choice is
# to hand every incoming unit over in full, whatever K says
single = build_network(
    [(1.0, 1.0, "in"), (1.0, 2.0, "in"), (1.5, 0.5, "in"), (1.0, 1.5, "out")]
)
Ks = np.zeros((4, 4))
for j in (0, 1, 2):
    Ks[j, 3] = Ks[3, j] = float(j + 1)
single_system = compute_gamma(single, CouplingMatrix.from_array(Ks, single))
print("same incoming side, one outgoing arc:", single_system.gamma[0])
