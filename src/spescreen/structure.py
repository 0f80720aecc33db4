"""Atomic structures with optional periodic cells.

Provides extended-XYZ read/write, covalent neighbor lists (periodic
images honored), and molecule identification via connected components of
the covalent-bond graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .constants import atomic_mass, covalent_radius


@dataclass
class AtomicStructure:
    elements: list
    positions: np.ndarray                 # (N, 3) Angstrom
    masses: np.ndarray = None             # (N,) amu
    cell: np.ndarray = None               # (3, 3) rows are lattice vectors
    pbc: tuple = (False, False, False)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        if len(self.elements) != len(self.positions):
            raise ValueError("element count does not match position count")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite coordinates")
        if self.masses is None:
            self.masses = np.array([atomic_mass(e) for e in self.elements])
        else:
            self.masses = np.asarray(self.masses, dtype=float)
            if np.any(self.masses <= 0):
                raise ValueError("masses must be positive")
        if self.cell is not None:
            self.cell = np.asarray(self.cell, dtype=float).reshape(3, 3)
            if abs(np.linalg.det(self.cell)) <= 0.0:
                raise ValueError("cell volume must be positive")
            if not any(self.pbc):
                self.pbc = (True, True, True)

    def __len__(self):
        return len(self.elements)

    def copy(self):
        return AtomicStructure(
            elements=list(self.elements),
            positions=self.positions.copy(),
            masses=self.masses.copy(),
            cell=None if self.cell is None else self.cell.copy(),
            pbc=tuple(self.pbc),
        )

    def center_of_mass(self):
        return self.masses @ self.positions / self.masses.sum()

    def translate(self, shift):
        self.positions = self.positions + np.asarray(shift, dtype=float)
        return self

    def rotate(self, axis, angle_deg, center=None):
        """Rotate positions about `axis` through `center` (default COM)."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        theta = np.deg2rad(angle_deg)
        k = axis
        K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        R = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
        c = self.center_of_mass() if center is None else np.asarray(center, float)
        self.positions = (self.positions - c) @ R.T + c
        return self

    def subset(self, indices):
        indices = list(indices)
        return AtomicStructure(
            elements=[self.elements[i] for i in indices],
            positions=self.positions[indices],
            masses=self.masses[indices],
            cell=None if self.cell is None else self.cell.copy(),
            pbc=tuple(self.pbc),
        )


@dataclass
class MoleculeLabels:
    labels: np.ndarray  # component id per atom, contiguous in [0, count)
    count: int

    def sizes(self):
        return np.bincount(self.labels, minlength=self.count)


# --- XYZ I/O ---------------------------------------------------------------

_LATTICE_RE = re.compile(r'Lattice\s*=\s*"([^"]+)"')


def parse_xyz(path) -> AtomicStructure:
    """Read a (possibly extended) XYZ file; a Lattice="..." comment sets the cell."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"{path}: first line must be the atom count") from None
    comment = lines[1] if len(lines) > 1 else ""
    rows = [ln for ln in lines[2:] if ln.strip()]
    if len(rows) < count:
        raise ValueError(f"{path}: count line says {count} but only {len(rows)} atom rows")
    elements = []
    positions = []
    for ln in rows[:count]:
        parts = ln.split()
        if len(parts) < 4:
            raise ValueError(f"{path}: malformed atom row '{ln}'")
        elements.append(parts[0])
        try:
            positions.append([float(x) for x in parts[1:4]])
        except ValueError:
            raise ValueError(f"{path}: non-numeric coordinate in row '{ln}'") from None
    cell = None
    m = _LATTICE_RE.search(comment)
    if m:
        vals = [float(x) for x in m.group(1).split()]
        if len(vals) != 9:
            raise ValueError(f"{path}: Lattice entry must contain 9 numbers")
        cell = np.array(vals).reshape(3, 3)
    # unknown elements fail on mass lookup
    return AtomicStructure(elements=elements, positions=np.array(positions), cell=cell)


def write_xyz(structure: AtomicStructure, path, comment=""):
    """Write XYZ with 8-decimal coordinates; cell goes into the comment line."""
    lines = [str(len(structure))]
    if structure.cell is not None:
        latt = " ".join(f"{x:.8f}" for x in structure.cell.ravel())
        comment = f'Lattice="{latt}" {comment}'.rstrip()
    lines.append(comment)
    for e, p in zip(structure.elements, structure.positions):
        lines.append(f"{e} {p[0]:.8f} {p[1]:.8f} {p[2]:.8f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- neighbor list ---------------------------------------------------------

def natural_cutoffs(structure: AtomicStructure, scale: float = 1.0):
    return np.array([scale * covalent_radius(e) for e in structure.elements])


def neighbor_list(structure: AtomicStructure, cutoffs=None):
    """Sorted symmetric list of atom pairs (i, j), i < j, within summed cutoffs.

    Pair (i, j) is included iff distance(i, j) < cutoff_i + cutoff_j, with
    periodic images honored when the structure has a cell.
    """
    if cutoffs is None:
        cutoffs = natural_cutoffs(structure)
    cutoffs = np.asarray(cutoffs, dtype=float)
    if np.any(cutoffs <= 0):
        raise ValueError("cutoffs must be positive")
    pos = structure.positions
    n = len(structure)
    rmax = 2.0 * cutoffs.max()
    pairs = set()
    if structure.cell is None or not any(structure.pbc):
        tree = cKDTree(pos)
        candidates = tree.query_pairs(rmax)
        for i, j in candidates:
            d = np.linalg.norm(pos[i] - pos[j])
            if d < cutoffs[i] + cutoffs[j]:
                pairs.add((min(i, j), max(i, j)))
    else:
        cell = structure.cell
        # wrap into the cell, then check the 27 nearest images
        frac = pos @ np.linalg.inv(cell)
        frac_w = frac - np.floor(frac)
        wrapped = frac_w @ cell
        shifts = [cell.T @ np.array([a, b, c])
                  for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
        tree_a = cKDTree(wrapped)
        for s in shifts:
            tree_b = cKDTree(wrapped + s)
            for i, js in enumerate(tree_a.query_ball_tree(tree_b, rmax)):
                for j in js:
                    if i == j:
                        continue
                    d = np.linalg.norm(wrapped[i] - (wrapped[j] + s))
                    if d < cutoffs[i] + cutoffs[j]:
                        pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def identify_molecules(structure: AtomicStructure, cutoffs=None) -> MoleculeLabels:
    """Label atoms by connected components of the covalent-neighbor graph."""
    pairs = neighbor_list(structure, cutoffs=cutoffs)
    n = len(structure)
    if pairs:
        rows = [p[0] for p in pairs] + [p[1] for p in pairs]
        cols = [p[1] for p in pairs] + [p[0] for p in pairs]
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    else:
        adj = coo_matrix((n, n))
    count, labels = connected_components(adj, directed=False)
    # relabel contiguously by first appearance for determinism
    remap = {}
    out = np.empty(n, dtype=int)
    for i, lab in enumerate(labels):
        if lab not in remap:
            remap[lab] = len(remap)
        out[i] = remap[lab]
    return MoleculeLabels(labels=out, count=count)
