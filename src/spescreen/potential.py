"""Energy/force providers, quasi-Newton relaxation, analytic Hessians.

Shipped providers: a Lennard-Jones pair potential and an adapter that
replays externally computed energies/forces/Hessians from a JSON file.
Both are stateless and expose energy(structure) -> eV, forces(structure)
-> (N, 3) eV/A, energy_and_forces(structure) -> (eV, (N, 3) eV/A), which
relaxation calls once per step, and hessian(structure) -> (3N, 3N) eV/A^2.

The Lennard-Jones potential evaluates all i < j pairs in one kernel for
energy and forces and one for the closed-form Hessian. Periodic
displacements take `structure.minimum_image`, which decides the images
along the periodic axes of `pbc` only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .structure import AtomicStructure, minimum_image


def _pair_key(e1, e2):
    return tuple(sorted((e1, e2)))


def _upper_pairs(n):
    """Index arrays (ii, jj) of all pairs i < j in row order.

    Equal to np.triu_indices(n, k=1), which costs several times more at the
    sizes relaxation evaluates over and over.
    """
    return np.nonzero(~np.tri(n, dtype=bool))


def _scatter_forces(n, ii, jj, weights):
    """Per-atom forces from (3, P) pair weights (dE/dr) d/r, +i and -j."""
    return np.stack([
        np.bincount(ii, weights=w, minlength=n)
        - np.bincount(jj, weights=w, minlength=n)
        for w in weights
    ], axis=1)


class LennardJonesPotential:
    """Pairwise 4*eps*((sigma/r)^12 - (sigma/r)^6) with per-element-pair params."""

    def __init__(self, params):
        # params: {("C","C"): (eps_eV, sigma_A), ...}
        self.params = {_pair_key(*k): tuple(v) for k, v in params.items()}
        for eps, sigma in self.params.values():
            if eps <= 0 or sigma <= 0:
                raise ValueError("LJ parameters must be positive")

    def _pair_params(self, elements, ii, jj):
        """Per-pair (eps, sigma) gathered from an element-type table."""
        types = {e: k for k, e in enumerate(dict.fromkeys(elements))}
        codes = np.array([types[e] for e in elements], dtype=int)
        table = np.array([
            [self.params.get(_pair_key(a, b), (np.nan, np.nan)) for b in types]
            for a in types
        ], dtype=float)
        pp = table[codes[ii], codes[jj]]
        missing = np.isnan(pp[:, 0])
        if missing.any():
            k = int(np.argmax(missing))
            e1, e2 = elements[ii[k]], elements[jj[k]]
            raise KeyError(f"missing LJ parameters for pair {e1}-{e2}")
        return pp[:, 0], pp[:, 1]

    def _pairs(self, structure):
        """All i < j pairs: (ii, jj), minimum-image vectors j - i, their
        lengths r, eps, (sigma/r)^6 and dE/dr."""
        ii, jj = _upper_pairs(len(structure))
        eps, sigma = self._pair_params(structure.elements, ii, jj)
        positions = structure.positions
        deltas = minimum_image(structure, np.take(positions, jj, axis=0)
                               - np.take(positions, ii, axis=0))
        r = np.linalg.norm(deltas, axis=1)
        sr6 = (sigma / r) ** 6
        dedr = 4.0 * eps * (-12.0 * sr6 * sr6 + 6.0 * sr6) / r
        return ii, jj, deltas, r, eps, sr6, dedr

    def energy_and_forces(self, structure):
        ii, jj, deltas, r, eps, sr6, dedr = self._pairs(structure)
        energy = float(np.sum(4.0 * eps * (sr6 * sr6 - sr6)))
        return energy, _scatter_forces(len(structure), ii, jj,
                                       (dedr / r) * deltas.T)

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
        ii, jj, deltas, r, eps, sr6, dedr = self._pairs(structure)
        u = deltas / r[:, None]
        uu = u[:, :, None] * u[:, None, :]
        d2edr2 = 4.0 * eps * (156.0 * sr6 * sr6 - 42.0 * sr6) / r ** 2
        block = (d2edr2[:, None, None] * uu
                 + (dedr / r)[:, None, None] * (np.eye(3) - uu))
        H = np.zeros((n, n, 3, 3))
        for a, b, sign in ((ii, ii, 1.0), (jj, jj, 1.0),
                           (ii, jj, -1.0), (jj, ii, -1.0)):
            np.add.at(H, (a, b), sign * block)
        return H.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


class ExternalPotential:
    """Replay adapter for externally computed single-point data.

    File schema (JSON): {"n_atoms": N, "energy_eV": float,
    "forces_eV_per_A": N x 3, "hessian_eV_per_A2": 3N x 3N (optional)}.
    """

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.n_atoms = int(data["n_atoms"])
        self._energy = float(data["energy_eV"])
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
        if not (np.isfinite(self._energy) and np.isfinite(self._forces).all()
                and (self._hessian is None
                     or np.isfinite(self._hessian).all())):
            raise ValueError(f"{path}: non-finite energy, force or Hessian")

    def _check(self, structure):
        if len(structure) != self.n_atoms:
            raise ValueError(
                f"structure has {len(structure)} atoms, file has {self.n_atoms}"
            )

    def energy(self, structure) -> float:
        self._check(structure)
        return self._energy

    def forces(self, structure) -> np.ndarray:
        self._check(structure)
        return self._forces.copy()

    def energy_and_forces(self, structure):
        return self.energy(structure), self.forces(structure)

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


def max_force_norm(forces) -> float:
    return float(np.linalg.norm(forces, axis=1).max())


_LBFGS_MEMORY = 20          # (s, y) pairs kept by L-BFGS
_MAX_DISPLACEMENT = 0.2     # A, largest single-atom move of a trial step


def relax(structure: AtomicStructure, potential, fmax: float = 0.01,
          max_steps: int = 500) -> RelaxationResult:
    """L-BFGS descent with backtracking line search.

    Stops when the largest per-atom force norm drops to fmax (eV/A) or the
    step budget is exhausted. Accepted-step energies are non-increasing.
    Every probe makes one potential.energy_and_forces call.
    """
    if not (np.isfinite(fmax) and fmax > 0):
        raise ValueError("fmax must be positive and finite")
    current = structure.copy()
    x = current.positions.ravel().copy()
    n = x.size

    def eval_at(vec):
        current.positions = vec.reshape(-1, 3)
        return potential.energy_and_forces(current)

    e, f = eval_at(x)
    if not np.isfinite(e):
        raise ValueError("initial energy is not finite")
    energies = [e]
    s_list, y_list, rho_list = [], [], []
    g = -f.ravel()  # gradient
    it = 0
    while it < max_steps:
        if max_force_norm(f) <= fmax:
            return RelaxationResult(current, max_force_norm(f), it, True, energies)
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if y_list:
            gamma = (s_list[-1] @ y_list[-1]) / (y_list[-1] @ y_list[-1])
            q *= gamma
        for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:  # not a descent direction; restart
            d = -g
            s_list, y_list, rho_list = [], [], []
        # cap the largest single-atom displacement per trial step
        dmax = np.linalg.norm(d.reshape(-1, 3), axis=1).max()
        step = min(1.0, _MAX_DISPLACEMENT / dmax) if dmax > 0 else 1.0
        accepted = False
        for _ in range(30):
            x_new = x + step * d
            e_new, f_new = eval_at(x_new)
            if np.isfinite(e_new) and e_new <= e + 1e-12:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            current.positions = x.reshape(-1, 3)
            return RelaxationResult(current, max_force_norm(f), it, False, energies)
        g_new = -f_new.ravel()
        s_vec = x_new - x
        y_vec = g_new - g
        sy = s_vec @ y_vec
        if sy > 1e-12:
            s_list.append(s_vec)
            y_list.append(y_vec)
            rho_list.append(1.0 / sy)
            if len(s_list) > _LBFGS_MEMORY:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, e, f, g = x_new, e_new, f_new, g_new
        energies.append(e)
        it += 1
    current.positions = x.reshape(-1, 3)
    mf = max_force_norm(f)
    return RelaxationResult(current, mf, it, mf <= fmax, energies)


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
