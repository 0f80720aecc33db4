"""Atomic structures with optional periodic cells.

Provides extended-XYZ read/write, covalent neighbor lists, and molecule
identification via connected components of the covalent-bond graph. A
cell is periodic along a, b and c; without a cell a structure is in free
space. The periodic-image rule lives here alone: `minimum_image_map`
(which the pair potential prepares once per cell) and `neighbor_list`
both search `lattice_translations`, and `wrapped_positions` alone maps
atoms into the cell. An XYZ comment that declares an open axis
(`pbc="T F T"`) is refused. `close_pairs` alone finds close pairs, for
bonds and embedding overlaps. `neighbor_list` and `identify_molecules`
import scipy when called, so stages that only read and write structures
never load it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .constants import atomic_mass, covalent_radius


_EYE3 = np.eye(3)
_IMAGE_CHUNK = 32768    # pairs per chunk of the skewed-cell image search


@dataclass
class AtomicStructure:
    elements: list
    positions: np.ndarray                 # (N, 3) Angstrom
    masses: np.ndarray = None             # (N,) amu
    cell: np.ndarray = None               # (3, 3) rows are lattice vectors

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

    def __len__(self):
        return len(self.elements)

    def copy(self):
        return AtomicStructure(
            elements=list(self.elements),
            positions=self.positions.copy(),
            masses=self.masses.copy(),
            cell=None if self.cell is None else self.cell.copy(),
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


# --- XYZ I/O ---------------------------------------------------------------

_LATTICE_RE = re.compile(r'Lattice\s*=\s*"([^"]+)"')
_PBC_RE = re.compile(r'\bpbc\s*=\s*("[^"]*"|\S+)')


def parse_xyz(path) -> AtomicStructure:
    """Read a (possibly extended) XYZ file; a Lattice="..." comment sets the
    cell. A pbc="..." entry other than T raises: a cell is periodic along
    all three axes, so pbc="T T T" reads as if the key were absent."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"{path}: first line must be the atom count") from None
    if count < 1:
        raise ValueError(f"{path}: atom count must be at least 1, got {count}")
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
    m = _PBC_RE.search(comment)
    if m and set(m.group(1).strip('"').split()) != {"T"}:
        raise ValueError(f"{path}: {m.group(0)} declares an open axis; a cell "
                         "is periodic along a, b and c")
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


def lattice_translations(cell) -> np.ndarray:
    """The 27 Cartesian translations (27, 3) a*cell[0] + b*cell[1] + c*cell[2],
    a, b, c in {-1, 0, 1}, in `_IMAGES` order."""
    return (_IMAGES[:, :1] * cell[0] + _IMAGES[:, 1:2] * cell[1]
            + _IMAGES[:, 2:] * cell[2])


def _unchanged(deltas):
    return deltas


def minimum_image_map(cell):
    """The minimum-image convention of one cell, prepared once.

    Returns a function that maps displacement vectors (P, 3) to their
    shortest images. Everything that depends on the cell alone (its
    inverse and the diagonal-Gram test) is computed here, so a relaxation
    that evaluates one cell many times builds it once.

    Fractional coordinates are rounded: the exact minimum image when the
    Gram matrix of the lattice is diagonal, where a pair at exactly half a
    cell takes -1/2 as the search does. Skewed cells then search the
    `lattice_translations` for the shortest image, in chunks of
    _IMAGE_CHUNK pairs, so the candidate array holds at most
    _IMAGE_CHUNK x 27 x 3 entries. The search, argmin and gather are
    elementwise and per pair, so chunking changes no bit at any BLAS
    thread count. Without a cell the map returns its input.
    """
    if cell is None:
        return _unchanged
    # a copy: the map must not follow later in-place edits of the cell
    cell = np.array(cell, dtype=float)
    inv = np.linalg.inv(cell)
    if np.count_nonzero(cell @ cell.T) == 3:
        def diagonal(deltas):
            frac = deltas @ inv
            frac -= np.round(frac)
            frac[frac == 0.5] = -0.5
            return frac @ cell

        return diagonal
    shifts = lattice_translations(cell)

    def skewed(deltas):
        frac = deltas @ inv
        frac -= np.round(frac)
        best = frac @ cell
        # the search is per pair: chunks bound the (pairs, 27, 3) candidates
        for start in range(0, len(best), _IMAGE_CHUNK):
            part = best[start:start + _IMAGE_CHUNK]
            cand = part[:, None, :] + shifts[None, :, :]
            idx = np.argmin(np.square(cand, out=cand).sum(axis=2), axis=1)
            part += shifts[idx]          # the same sum as the candidate's
        return best

    return skewed


# --- neighbor list ---------------------------------------------------------

def natural_cutoffs(structure: AtomicStructure):
    """Per-atom tabulated covalent radii (A)."""
    return np.array([covalent_radius(e) for e in structure.elements])


def wrapped_positions(structure: AtomicStructure) -> np.ndarray:
    """Positions with fractional coordinates moved into [0, 1) by whole
    lattice vectors; the positions themselves without a cell."""
    if structure.cell is None:
        return structure.positions
    frac = structure.positions @ np.linalg.inv(structure.cell)
    frac -= np.floor(frac)
    return frac @ structure.cell


def coincident_pair(structure: AtomicStructure):
    """The first pair (i, j), i < j, of atoms at exactly the same
    `wrapped_positions`, or None: in a cell, atoms a lattice vector apart
    share a site. Wrapped positions that differ by rounding alone are not
    caught."""
    pos = wrapped_positions(structure)
    order = np.lexsort(pos.T[::-1])    # stable: equal rows keep index order
    k = np.flatnonzero((pos[order[1:]] == pos[order[:-1]]).all(axis=1))
    if not len(k):
        return None
    return min(zip(order[k].tolist(), order[k + 1].tolist()))


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
    images are the `lattice_translations` of the `wrapped_positions`.
    """
    from scipy.spatial import cKDTree

    cutoffs = natural_cutoffs(structure)
    pos = wrapped_positions(structure)
    shifts = np.zeros((1, 3))
    if structure.cell is not None:
        shifts = lattice_translations(structure.cell)
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
