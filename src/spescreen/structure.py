"""Atomic structures with optional periodic cells.

Provides extended-XYZ read/write, covalent neighbor lists, and molecule
identification via connected components of the covalent-bond graph. The
periodic-image rule lives here alone: `minimum_image_map` (which the pair
potential prepares once per cell) and `neighbor_list` both search
`lattice_translations`, and axis k has images only when `pbc[k]` is
true. `close_pairs` alone finds close pairs, for bonds and embedding
overlaps. `neighbor_list` and `identify_molecules` import scipy when
called, so stages that only read and write structures never load it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .constants import atomic_mass, covalent_radius


_EYE3 = np.eye(3)


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
            if not np.isfinite(self.cell).all():
                raise ValueError(f"non-finite cell: {self.cell.tolist()}")
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

    def rotate(self, axis, angle_deg):
        """Rotate positions about `axis` through the center of mass."""
        axis = np.asarray(axis, dtype=float)
        # sqrt(a.a) is what np.linalg.norm computes for a 1-D vector
        axis = axis / math.sqrt(axis.dot(axis))
        theta = np.deg2rad(angle_deg)
        k = axis.tolist()
        K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        R = _EYE3 + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
        c = self.center_of_mass()
        self.positions = (self.positions - c) @ R.T + c
        return self


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


# --- periodic images -------------------------------------------------------

# the 27 lattice translations a, b, c in {-1, 0, 1}, a slowest
_IMAGES = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))


def lattice_translations(cell, pbc) -> np.ndarray:
    """Cartesian translations (m, 3) a*cell[0] + b*cell[1] + c*cell[2].

    a, b, c run over {-1, 0, 1} along periodic axes and are 0 along open
    ones, in `_IMAGES` order: 27 images when all three axes are periodic.
    """
    images = _IMAGES
    if not all(pbc):
        open_axes = ~np.asarray(pbc, dtype=bool)
        images = _IMAGES[~_IMAGES[:, open_axes].any(axis=1)]
    return (images[:, :1] * cell[0] + images[:, 1:2] * cell[1]
            + images[:, 2:] * cell[2])


def _unchanged(deltas):
    return deltas


def minimum_image_map(cell, pbc):
    """The minimum-image convention of one (cell, pbc), prepared once.

    Returns a function that maps displacement vectors (P, 3) to their
    shortest images. Everything that depends on the cell alone (its
    inverse, the diagonal-Gram test, the periodic sub-lattice's
    pseudo-inverse and images) is computed here, so a relaxation that
    evaluates one cell many times builds it once.

    In a fully periodic cell fractional coordinates are rounded: the exact
    minimum image when the Gram matrix of the lattice is diagonal, where a
    pair at exactly half a cell takes -1/2 as the search does. Skewed
    cells then search the `lattice_translations` for the shortest image.
    A cell periodic along some axes only rounds the least-squares
    coordinates in its periodic sub-lattice instead, searches their +-1
    neighbours and returns deltas - n @ cell, n integer. Without a cell or
    a periodic axis the map returns its input.
    """
    if cell is None or not any(pbc):
        return _unchanged
    # a copy: the map must not follow later in-place edits of the cell
    cell = np.array(cell, dtype=float)
    if not all(pbc):
        # fractional rounding ignores the tilt of an open axis: a pair
        # several cells apart along it would land beyond the +-1 search
        periodic = np.asarray(pbc, dtype=bool)
        pinv = np.linalg.pinv(cell[periodic])
        images = _IMAGES[~_IMAGES[:, ~periodic].any(axis=1)]
        shifts = images @ cell

        def partial(deltas):
            n = np.zeros((len(deltas), 3))
            n[:, periodic] = np.round(deltas @ pinv)
            cand = (deltas - n @ cell)[:, None, :] + shifts[None, :, :]
            idx = np.argmin((cand ** 2).sum(axis=2), axis=1)
            return deltas - (n - images[idx]) @ cell

        return partial
    inv = np.linalg.inv(cell)
    if np.count_nonzero(cell @ cell.T) == 3:
        def diagonal(deltas):
            frac = deltas @ inv
            frac -= np.round(frac)
            frac[frac == 0.5] = -0.5
            return frac @ cell

        return diagonal
    shifts = lattice_translations(cell, pbc)

    def skewed(deltas):
        frac = deltas @ inv
        frac -= np.round(frac)
        best = frac @ cell
        cand = best[:, None, :] + shifts[None, :, :]
        idx = np.argmin((cand ** 2).sum(axis=2), axis=1)
        return cand[np.arange(len(best)), idx]

    return skewed


def minimum_image(structure: AtomicStructure, deltas) -> np.ndarray:
    """Apply the minimum-image convention to displacement vectors (P, 3).

    One call through `minimum_image_map(structure.cell, structure.pbc)`,
    which states the rule.
    """
    return minimum_image_map(structure.cell, structure.pbc)(deltas)


# --- neighbor list ---------------------------------------------------------

def natural_cutoffs(structure: AtomicStructure):
    """Per-atom tabulated covalent radii (A)."""
    return np.array([covalent_radius(e) for e in structure.elements])


def close_pairs(a, b, radius):
    """Pairs (i, j) of `cKDTree`s a, b proposed within radius * (1 + 1e-9),
    so the tree's rounding drops none, and their distances
    d = np.linalg.norm(b.data[j] - a.data[i], axis=1) for each caller's own
    strict cutoff."""
    pairs = a.sparse_distance_matrix(b, radius * (1 + 1e-9),
                                     output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    return i, j, np.linalg.norm(b.data[j] - a.data[i], axis=1)


def neighbor_list(structure: AtomicStructure) -> np.ndarray:
    """Sorted (m, 2) array of covalently bonded atom pairs (i, j), i < j.

    Pair (i, j) is included iff some image of j lies closer to i than the
    sum of their covalent radii, strictly, on the `close_pairs` distance;
    images are the `lattice_translations` of the positions wrapped into the
    cell along periodic axes.
    """
    from scipy.spatial import cKDTree

    cutoffs = natural_cutoffs(structure)
    pos = structure.positions
    shifts = np.zeros((1, 3))
    if structure.cell is not None and any(structure.pbc):
        periodic = np.asarray(structure.pbc, dtype=bool)
        frac = pos @ np.linalg.inv(structure.cell)
        frac[:, periodic] -= np.floor(frac[:, periodic])
        pos = frac @ structure.cell
        shifts = lattice_translations(structure.cell, structure.pbc)
    images = (shifts[:, None, :] + pos[None, :, :]).reshape(-1, 3)
    i, k, d = close_pairs(cKDTree(pos), cKDTree(images), 2.0 * cutoffs.max())
    j = k % len(structure)
    close = (i < j) & (d < cutoffs[i] + cutoffs[j])
    return np.unique(np.stack([i[close], j[close]], axis=1), axis=0)


def identify_molecules(structure: AtomicStructure) -> MoleculeLabels:
    """Label atoms by connected components of the covalent-neighbor graph."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    pairs = neighbor_list(structure)
    n = len(structure)
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    count, labels = connected_components(adj, directed=False)
    # relabel contiguously by first appearance for determinism
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    return MoleculeLabels(labels=np.argsort(np.argsort(first))[inverse],
                          count=count)
