"""
Vibronic coupling entropy from normal modes
===========================================

Compute normal modes for an isolated guest and for the same guest inside
a small host cluster, project the modes onto each other, and turn the
overlap spread into the vibronic coupling entropy figure of merit.
"""

import numpy as np

from spescreen.potential import LennardJonesPotential, relax
from spescreen.structure import AtomicStructure
from spescreen.vibronic import (
    force_projection,
    huang_rhys,
    mode_overlap_matrix,
    normal_modes,
    projection_entropy,
    vibronic_coupling_entropy,
)

lj = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})
r0 = 2 ** (1 / 6) * 3.4  # pair equilibrium distance

# isolated guest: an argon trimer relaxed to its triangular minimum
guest = AtomicStructure(
    elements=["Ar"] * 3,
    positions=np.array([
        [0.0, 0.0, 0.0],
        [r0 * 1.05, 0.0, 0.0],
        [r0 / 2, r0 * 0.9, 0.1],
    ]),
)
guest = relax(guest, lj, fmax=1e-8, max_steps=2000).structure
iso = normal_modes(lj.hessian(guest), guest.masses)
print("isolated guest frequencies (cm^-1):",
      np.round(iso.frequencies_cm1, 1))

# embedded guest: the same trimer with three host atoms around it
# (host atoms first, guest atoms last, as the embedding stage emits them)
shell = np.array([
    [-r0, -r0, 0.2], [2.2 * r0, -r0, -0.1], [r0 / 2, 2.0 * r0, 0.3],
])
complex_ = AtomicStructure(
    elements=["Ar"] * 6,
    positions=np.vstack([shell, guest.positions]),
)
complex_ = relax(complex_, lj, fmax=1e-6, max_steps=3000).structure
emb = normal_modes(lj.hessian(complex_), complex_.masses)

# squared overlaps of isolated modes with the full complex modes; with
# every complex mode present each row is a normalized distribution
emitter_atoms = range(3, 6)
rho = mode_overlap_matrix(iso, emb, emitter_atoms)
print("row sums:", np.round(rho.sum(axis=1), 12))

s_proj = np.array([projection_entropy(row) for row in rho])
print("per-mode projection entropies:", np.round(s_proj, 3))

# weight the entropies by how strongly a model emission force drives
# each isolated mode
rng = np.random.default_rng(0)
forces = rng.normal(scale=0.1, size=9)
g = force_projection(forces, iso)
mask = iso.real_mode_mask()
svc = vibronic_coupling_entropy(np.where(mask, g, 0.0),
                                np.where(mask, s_proj, 0.0))
print(f"vibronic coupling entropy S_VC = {svc:.4f}")

# Huang-Rhys factors for a small fictitious excited-state displacement
displaced = guest.positions + rng.normal(scale=0.01, size=(3, 3))
s_k = huang_rhys(guest.positions, displaced, guest.masses, iso)
print("Huang-Rhys factors:", np.round(s_k, 5))
