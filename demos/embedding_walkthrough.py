"""
Guest-in-host embedding walkthrough
===================================

Embed a diatomic guest into a periodic Lennard-Jones lattice, relax the
accepted complexes, and report the most stable binding energy.
"""

import numpy as np

from spescreen.embedding import EmbeddingConfig, embed_emitter, select_most_stable
from spescreen.potential import LennardJonesPotential
from spescreen.structure import AtomicStructure

# a 5x5x5 argon lattice as the host crystal
spacing = 3.0
points = np.array(
    [[i, j, k] for i in range(5) for j in range(5) for k in range(5)],
    dtype=float,
) * spacing
host = AtomicStructure(
    elements=["Ar"] * 125,
    positions=points,
    cell=np.eye(3) * 5 * spacing,
)

# the guest: a tight diatomic placed by the embedding loop
emitter = AtomicStructure(
    elements=["Ar", "Ar"],
    positions=np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]]),
)

# random rotations + translations; host molecules overlapping the guest
# within the cutoff are deleted whole, and the guest must stay inside
config = EmbeddingConfig(
    overlap_cutoff=2.0,
    structures_per_count=2,
    max_trials=1500,
    seed=7,
)
trials = embed_emitter(host, emitter, config)
print(f"accepted {len(trials)} embedded structures")
for t in trials:
    print(f"  trial {t.trial_index:4d}: removed {t.removed_count} molecules,"
          f" {len(t.structure)} atoms total")

# relax everything with a toy potential and pick the most stable complex
lj = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})
best, e_bind, energies = select_most_stable(
    trials, lj, host, emitter, fmax=0.05, max_steps=200,
)
print(f"\nbinding energies (eV): {np.round(energies, 4)}")
print(f"most stable: trial {best.trial_index} at {e_bind:.4f} eV")
