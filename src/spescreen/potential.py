"""Energy/force providers, quasi-Newton relaxation, analytic Hessians.

Shipped providers: a Lennard-Jones pair potential and an adapter that
replays an externally computed single point from a JSON file. Both expose
forces(structure) -> (N, 3) eV/A and hessian(structure) -> (3N, 3N)
eV/A^2. The Lennard-Jones potential also exposes energy(structure) -> eV,
energy_and_forces(structure) -> (eV, (N, 3) eV/A) and evaluator(structure),
which returns a function of positions (N, 3) -> (eV, (N, 3) eV/A) for that
structure's elements, cell and pbc. Relaxation takes one evaluator per
call and probes it once per trial step, so everything that does not move
with the atoms is built once per relaxation, not once per probe. A
replayed single point holds forces at one geometry only, so it has no
evaluator and cannot be relaxed.

The Lennard-Jones potential builds one pair table per evaluator (the
i < j index arrays, 4 eps and sigma of each pair, and the flat 3N
indices its forces scatter to); energy, forces and the closed-form
Hessian all evaluate such a table. Periodic displacements go through
`structure.minimum_image_map`, which decides the images along the
periodic axes of `pbc` only and is prepared once per evaluator.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .structure import AtomicStructure, minimum_image_map


def _pair_key(e1, e2):
    return tuple(sorted((e1, e2)))


class _PairTable:
    """All i < j pairs of one element list and their LJ parameters.

    `ii`, `jj` list the pairs in row order (np.triu_indices(n, k=1), which
    costs several times more to build); `fi`, `fj` are the flat indices
    3 i + k and 3 j + k of each pair's force components, in pair order, so
    each force bin sums its pairs in list order.
    """

    def __init__(self, params, elements):
        n = len(elements)
        self.n = n
        self.ii, self.jj = np.nonzero(~np.tri(n, dtype=bool))
        types = {e: k for k, e in enumerate(dict.fromkeys(elements))}
        codes = np.array([types[e] for e in elements], dtype=int)
        table = np.array([
            [params.get(_pair_key(a, b), (np.nan, np.nan)) for b in types]
            for a in types
        ], dtype=float)
        pp = table[codes[self.ii], codes[self.jj]]
        missing = np.isnan(pp[:, 0])
        if missing.any():
            k = int(np.argmax(missing))
            e1, e2 = elements[self.ii[k]], elements[self.jj[k]]
            raise KeyError(f"missing LJ parameters for pair {e1}-{e2}")
        self.eps4 = 4.0 * pp[:, 0]
        self.sigma = pp[:, 1]
        axes = np.arange(3)
        self.fi = (3 * self.ii[:, None] + axes).ravel()
        self.fj = (3 * self.jj[:, None] + axes).ravel()

    def terms(self, positions, image):
        """Minimum-image vectors j - i, their lengths r, (sigma/r)^6 and
        dE/dr of every pair."""
        deltas = image(positions.take(self.jj, axis=0)
                       - positions.take(self.ii, axis=0))
        r = np.linalg.norm(deltas, axis=1)
        sr6 = (self.sigma / r) ** 6
        dedr = self.eps4 * (-12.0 * sr6 * sr6 + 6.0 * sr6) / r
        return deltas, r, sr6, dedr


class LennardJonesPotential:
    """Pairwise 4*eps*((sigma/r)^12 - (sigma/r)^6) with per-element-pair params."""

    def __init__(self, params):
        """params: {("C", "C"): (eps_eV, sigma_A), ...}, two non-empty
        elements to two finite positive numbers; ("A", "B") and ("B", "A")
        name one pair and must agree. ValueError names a breach's key as
        the params file spells it, "A,B"; `from_json` reads that file."""
        self.params = {}
        for key, value in params.items():
            name = ",".join(map(str, key))
            if len(key) != 2 or not all(key):
                raise ValueError(
                    f"LJ key {name!r} is not two comma-separated elements")
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(isinstance(v, numbers.Real)
                            and not isinstance(v, bool) and 0 < v < math.inf
                            for v in value)):
                raise ValueError(f"LJ value for {name!r} is not two positive "
                                 f"numbers: {value!r}")
            pair = _pair_key(*key)
            if self.params.setdefault(pair, tuple(value)) != tuple(value):
                raise ValueError(f"conflicting LJ entries for pair {name!r}")

    @classmethod
    def from_json(cls, path):
        """Read {"A,B": [eps_eV, sigma_A], ...} under the constructor's rule;
        the file must hold a JSON object."""
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("LJ parameters must be a JSON object")
        return cls({tuple(key.split(",")): value
                    for key, value in raw.items()})

    def evaluator(self, structure):
        """positions (N, 3) -> (energy, forces) for the elements, cell and
        pbc of `structure`; the pair table and image map are built here.

        Forces scatter each pair's (dE/dr) d/r to +i and -j with one
        bincount per sign over the flat 3N components.
        """
        table = _PairTable(self.params, structure.elements)
        image = minimum_image_map(structure.cell, structure.pbc)
        n3 = 3 * table.n

        def evaluate(positions):
            deltas, r, sr6, dedr = table.terms(positions, image)
            energy = float((table.eps4 * (sr6 * sr6 - sr6)).sum())
            w = (deltas * (dedr / r)[:, None]).ravel()
            forces = (np.bincount(table.fi, weights=w, minlength=n3)
                      - np.bincount(table.fj, weights=w, minlength=n3))
            return energy, forces.reshape(-1, 3)

        return evaluate

    def energy_and_forces(self, structure):
        return self.evaluator(structure)(structure.positions)

    def energy(self, structure) -> float:
        return self.energy_and_forces(structure)[0]

    def forces(self, structure) -> np.ndarray:
        return self.energy_and_forces(structure)[1]

    def hessian(self, structure) -> np.ndarray:
        """Closed-form Hessian (3N, 3N) in eV/A^2.

        A pair at distance r along u = d/r has the block
        A = E'' u u^T + (E'/r)(I - u u^T): H_ij and H_ji get -A and, since
        each diagonal block is minus the sum of the others in its row, H_ii
        and H_jj get +A. Pairs are added in list order with i < j, so H
        equals H.T bit for bit.
        """
        n = len(structure)
        table = _PairTable(self.params, structure.elements)
        deltas, r, sr6, dedr = table.terms(
            structure.positions,
            minimum_image_map(structure.cell, structure.pbc))
        u = deltas / r[:, None]
        uu = u[:, :, None] * u[:, None, :]
        d2edr2 = table.eps4 * (156.0 * sr6 * sr6 - 42.0 * sr6) / r ** 2
        block = (d2edr2[:, None, None] * uu
                 + (dedr / r)[:, None, None] * (np.eye(3) - uu))
        H = np.zeros((n, n, 3, 3))
        ii, jj = table.ii, table.jj
        for a, b, sign in ((ii, ii, 1.0), (jj, jj, 1.0),
                           (ii, jj, -1.0), (jj, ii, -1.0)):
            np.add.at(H, (a, b), sign * block)
        return H.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


class ExternalPotential:
    """Replay adapter for externally computed single-point data.

    File schema (JSON): {"n_atoms": N, "energy_eV": float,
    "forces_eV_per_A": N x 3, "hessian_eV_per_A2": 3N x 3N (optional)}.
    The energy is checked finite; only the forces and the Hessian are
    served.
    """

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.n_atoms = int(data["n_atoms"])
        energy = float(data["energy_eV"])
        self._forces = np.asarray(data["forces_eV_per_A"], dtype=float)
        if self._forces.shape != (self.n_atoms, 3):
            raise ValueError(
                f"forces shape {self._forces.shape} does not match "
                f"n_atoms={self.n_atoms}"
            )
        self._hessian = None
        if data.get("hessian_eV_per_A2") is not None:
            self._hessian = np.asarray(data["hessian_eV_per_A2"], dtype=float)
            if self._hessian.shape != (3 * self.n_atoms, 3 * self.n_atoms):
                raise ValueError("hessian shape does not match 3N x 3N")
        if not (np.isfinite(energy) and np.isfinite(self._forces).all()
                and (self._hessian is None
                     or np.isfinite(self._hessian).all())):
            raise ValueError(f"{path}: non-finite energy, force or Hessian")

    def _check(self, structure):
        if len(structure) != self.n_atoms:
            raise ValueError(
                f"structure has {len(structure)} atoms, file has {self.n_atoms}"
            )

    def forces(self, structure) -> np.ndarray:
        self._check(structure)
        return self._forces.copy()

    def hessian(self, structure) -> np.ndarray:
        self._check(structure)
        if self._hessian is None:
            raise ValueError("external file carries no Hessian")
        return self._hessian.copy()


# --- relaxation ------------------------------------------------------------

@dataclass
class RelaxationResult:
    structure: AtomicStructure
    max_force: float
    iterations: int
    converged: bool
    energies: list = field(default_factory=list)
    probes: int = 0             # energy-and-forces evaluations


def max_force_norm(forces) -> float:
    return float(np.linalg.norm(forces, axis=1).max())


_LBFGS_MEMORY = 20          # (s, y) pairs kept by L-BFGS
_MAX_DISPLACEMENT = 0.2     # A, largest single-atom move of a trial step


def relax(structure: AtomicStructure, potential, fmax: float = 0.01,
          max_steps: int = 500) -> RelaxationResult:
    """L-BFGS descent with backtracking line search.

    Stops when the largest per-atom force norm drops to fmax (eV/A) or the
    step budget is exhausted. Accepted-step energies are non-increasing.
    Takes one `potential.evaluator(structure)` and probes it once per
    trial step; `probes` counts those calls.
    """
    if not (np.isfinite(fmax) and fmax > 0):
        raise ValueError("fmax must be positive and finite")
    evaluate = potential.evaluator(structure)
    current = structure.copy()
    x = current.positions.ravel().copy()
    e, f = evaluate(x.reshape(-1, 3))
    if not np.isfinite(e):
        raise ValueError("initial energy is not finite")
    energies = [e]
    probes = 1
    it = 0

    def done(mf, converged):
        current.positions = x.reshape(-1, 3)
        return RelaxationResult(current, mf, it, converged, energies, probes)

    # (s, y, rho) of the last _LBFGS_MEMORY accepted steps, oldest first;
    # gamma = s.y / y.y of the newest
    memory = deque(maxlen=_LBFGS_MEMORY)
    gamma = None
    alphas = []
    buf = np.empty(x.size)
    g = -f.ravel()  # gradient
    while it < max_steps:
        mf = max_force_norm(f)
        if mf <= fmax:
            return done(mf, True)
        # two-loop recursion; ndarray.dot is the BLAS ddot that @ calls,
        # with less dispatch, and the products reuse one buffer
        q = g.copy()
        alphas.clear()
        for s, y, rho in reversed(memory):
            a = rho * s.dot(q)
            alphas.append(a)
            q -= np.multiply(a, y, out=buf)
        if memory:
            q *= gamma
        for (s, y, rho), a in zip(memory, reversed(alphas)):
            b = rho * y.dot(q)
            q += np.multiply(a - b, s, out=buf)
        d = -q
        if d.dot(g) >= 0:  # not a descent direction; restart
            d = -g
            memory.clear()
        # cap the largest single-atom displacement per trial step
        dmax = np.linalg.norm(d.reshape(-1, 3), axis=1).max()
        step = min(1.0, _MAX_DISPLACEMENT / dmax) if dmax > 0 else 1.0
        accepted = False
        for _ in range(30):
            x_new = x + step * d
            e_new, f_new = evaluate(x_new.reshape(-1, 3))
            probes += 1
            if math.isfinite(e_new) and e_new <= e + 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return done(mf, False)
        g_new = -f_new.ravel()
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec.dot(y_vec)
        if sy > 1e-12:
            memory.append((s_vec, y_vec, 1.0 / sy))
            gamma = sy / y_vec.dot(y_vec)
        x, e, f, g = x_new, e_new, f_new, g_new
        energies.append(e)
        it += 1
    mf = max_force_norm(f)
    return done(mf, mf <= fmax)


# --- Hessian ---------------------------------------------------------------

def hessian_finite_difference(structure: AtomicStructure, potential,
                              h: float = 0.01) -> np.ndarray:
    """Central-difference Hessian of the energy, symmetrized, in eV/A^2.

    The test oracle for `LennardJonesPotential.hessian`; no stage calls
    it. Column 3a + k is -(F(x + h e_ak) - F(x - h e_ak)) / 2h, from two
    full force calls; its error falls as h^2. Any other provider raises
    TypeError: the external adapter replays fixed forces.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError("displacement must be positive and finite")
    if not isinstance(potential, LennardJonesPotential):
        raise TypeError(f"{type(potential).__name__} has no pair potential "
                        "for a finite-difference Hessian")
    work = structure.copy()
    n3 = 3 * len(structure)
    K = np.zeros((n3, n3))
    base = structure.positions.copy()
    for col in range(n3):
        atom, axis = divmod(col, 3)
        work.positions = base.copy()
        work.positions[atom, axis] += h
        f_plus = potential.forces(work).ravel()
        work.positions = base.copy()
        work.positions[atom, axis] -= h
        f_minus = potential.forces(work).ravel()
        K[:, col] = -(f_plus - f_minus) / (2.0 * h)
    return 0.5 * (K + K.T)
