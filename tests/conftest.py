"""Shared fixtures: hexagon-lattice PAH builder and toy structures."""

from __future__ import annotations

import numpy as np
import pytest

from spescreen.chem.graph import AROMATIC, Atom, Bond, MolecularGraph
from spescreen.structure import AtomicStructure

SQ3 = np.sqrt(3.0)


def pah_graph(centers) -> MolecularGraph:
    """Build an all-carbon aromatic graph from fused hexagon centers.

    Hexagons have unit edge length; centers must sit on the hexagonal
    tiling lattice spanned by (sqrt 3, 0) and (sqrt 3 / 2, 3/2) so fused
    rings share vertices exactly.
    """
    verts = []
    for cx, cy in centers:
        for k in range(6):
            ang = np.pi / 2 + k * np.pi / 3
            verts.append((cx + np.cos(ang), cy + np.sin(ang)))
    verts = np.array(verts)
    # dedupe shared vertices
    uniq = []
    for v in verts:
        if not any(np.hypot(*(v - u)) < 1e-6 for u in uniq):
            uniq.append(v)
    uniq = np.array(uniq)
    n = len(uniq)
    bonds = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.hypot(*(uniq[i] - uniq[j])) - 1.0) < 1e-6:
                bonds.append(Bond(i, j, AROMATIC))
    deg = np.zeros(n, dtype=int)
    for b in bonds:
        deg[b.i] += 1
        deg[b.j] += 1
    atoms = [Atom("C", aromatic=True, h_count=int(3 - d)) for d in deg]
    return MolecularGraph(atoms=atoms, bonds=bonds).validate()


def _row(y, cols):
    return [(c * SQ3, y) for c in cols]


# three peri-fused naphthalene columns plus the two bridging rings
TERRYLENE_CENTERS = (
    _row(0.0, [0, 1]) + _row(3.0, [0, 1]) + _row(6.0, [0, 1])
    + [(SQ3 / 2, 1.5), (SQ3 / 2, 4.5)]
)
# terrylene with one extra benzo ring fused to each outer naphthalene
DBT_CENTERS = TERRYLENE_CENTERS + [(-SQ3, 0.0), (2 * SQ3, 6.0)]
# nearby large PAHs standing in for the two closest database hits
NEAR_DBT_A_CENTERS = TERRYLENE_CENTERS + [(-SQ3, 0.0)]
NEAR_DBT_B_CENTERS = TERRYLENE_CENTERS + [(-SQ3, 0.0), (-SQ3, 6.0)]


@pytest.fixture(scope="session")
def terrylene():
    return pah_graph(TERRYLENE_CENTERS)


@pytest.fixture(scope="session")
def dbt():
    return pah_graph(DBT_CENTERS)


def lj_lattice(n_side: int, spacing: float = 3.0,
               element: str = "Ar") -> AtomicStructure:
    """Simple-cubic monoatomic lattice with a periodic cell."""
    pts = np.array(
        [[i, j, k] for i in range(n_side)
         for j in range(n_side) for k in range(n_side)],
        dtype=float,
    ) * spacing
    cell = np.eye(3) * n_side * spacing
    return AtomicStructure(
        elements=[element] * n_side**3, positions=pts,
        cell=cell,
    )


def dimer(element: str = "Ar", r: float = 3.8) -> AtomicStructure:
    return AtomicStructure(
        elements=[element, element],
        positions=np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]]),
    )
