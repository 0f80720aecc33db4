"""Lennard-Jones and replayed potentials, relaxation, analytic Hessians."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spescreen.potential import (
    _LBFGS_MEMORY,
    _MAX_DISPLACEMENT,
    ExternalPotential,
    LennardJonesPotential,
    RelaxationResult,
    _pair_key,
    hessian_finite_difference,
    max_force_norm,
    relax,
)
from spescreen.structure import (
    AtomicStructure,
    lattice_translations,
    minimum_image_map,
)

from conftest import dimer, lj_lattice

AR_LJ = LennardJonesPotential({("Ar", "Ar"): (0.0104, 3.4)})
MIXED_LJ = LennardJonesPotential({
    ("Ar", "Ar"): (0.0104, 3.4), ("C", "C"): (0.0030, 3.4),
    ("Ne", "Ne"): (0.0031, 2.74), ("Ar", "C"): (0.0056, 3.4),
    ("Ar", "Ne"): (0.0057, 3.07), ("C", "Ne"): (0.0031, 3.07),
})
# a monoclinic cell skewed enough that fractional rounding alone often
# picks a non-minimal image
SKEWED_CELL = np.array([[9.0, 0.0, 0.0], [0.0, 10.0, 0.0], [-4.0, 0.0, 8.0]])
# a cell whose b axis leans along a
LEANING_CELL = np.array([[9.0, 0.0, 0.0], [4.0, 10.0, 0.0], [0.0, 0.0, 8.0]])


# --- slow reference implementations: the per-pair loops the vectorised
# kernel replaced. ref_lj returns (per-pair energies, forces).

def ref_min_image(structure, deltas):
    """Brute force over integer images.

    Every integer image m with |m| <= 2 max|d| / s_min, s_min the smallest
    singular value of the lattice vectors, is tried: a shorter image would
    be longer than d itself. m is measured from the rounded fractional
    coordinates, and the result is (frac - round(frac)) @ cell + m @ cell,
    the kernel's arithmetic for the image it picks. Tie rule: of images of
    equal squared length, the first in lexicographic order of m (a, then
    b, then c) wins, which puts a pair at exactly half a cell at -1/2.
    """
    if structure.cell is None:
        return deltas
    cell = structure.cell
    frac = deltas @ np.linalg.inv(cell)
    base = (frac - np.round(frac)) @ cell
    s_min = np.linalg.svd(cell, compute_uv=False).min()
    reach = int(2.0 * np.linalg.norm(base, axis=1).max() / s_min)
    span = range(-reach, reach + 1)
    images = np.array(list(itertools.product(span, repeat=3)), dtype=float)
    shifts = (images[:, :1] * cell[0] + images[:, 1:2] * cell[1]
              + images[:, 2:] * cell[2])
    cand = base[:, None, :] + shifts[None, :, :]
    # argmin returns the first of equal minima: the tie rule above
    idx = np.argmin((cand ** 2).sum(axis=2), axis=1)
    return cand[np.arange(len(base)), idx]


def ref_lj(potential, structure):
    n = len(structure)
    ii, jj = np.triu_indices(n, k=1)
    deltas = ref_min_image(
        structure, structure.positions[jj] - structure.positions[ii])
    r = np.linalg.norm(deltas, axis=1)
    terms = []
    f = np.zeros_like(structure.positions)
    for a, b, d, vec in zip(ii, jj, r, deltas):
        e1, e2 = structure.elements[a], structure.elements[b]
        eps, sigma = potential.params[_pair_key(e1, e2)]
        sr6 = (sigma / d) ** 6
        terms.append(4.0 * eps * (sr6 * sr6 - sr6))
        dedr = 4.0 * eps * (-12.0 * sr6 * sr6 + 6.0 * sr6) / d
        f[a] += dedr * vec / d
        f[b] -= dedr * vec / d
    return terms, f


@st.composite
def structures(draw):
    """2-40 atoms of 1-3 elements in a free, orthorhombic or skewed cell.

    Atoms sit on distinct sites of a 4x4x4 fractional grid with a jitter
    of up to 0.05, so no two atoms come closer than about a fifth of the
    shortest cell length.
    """
    n = draw(st.integers(2, 40))
    n_elements = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["free", "orthorhombic", "skewed"]))
    lengths = draw(st.lists(st.floats(6.0, 14.0), min_size=3, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = np.diag(lengths)
    if kind == "skewed":
        cell[1, 0] = draw(st.floats(0.1, 0.45)) * lengths[0]
        cell[2, :2] = rng.uniform(-0.45, 0.45, size=2) * lengths[:2]
    sites = rng.choice(64, size=n, replace=False)
    frac = np.stack(np.unravel_index(sites, (4, 4, 4)), axis=1) / 4.0
    frac += rng.uniform(-0.05, 0.05, size=(n, 3))
    elements = rng.choice(["Ar", "C", "Ne"][:n_elements], size=n).tolist()
    if kind == "free":
        return AtomicStructure(elements=elements, positions=frac @ cell)
    return AtomicStructure(elements=elements, positions=frac @ cell,
                           cell=cell)


def assert_matches_reference(potential, structure, reference):
    """Kernel vs reference loops, and energy_and_forces vs its wrappers.

    The energy tolerance is relative to the summed term magnitudes: that
    bounds the rounding of a sum taken in another order.
    """
    terms, f_ref = reference(potential, structure)
    e, f = potential.energy_and_forces(structure)
    assert abs(e - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)
    assert np.allclose(f, f_ref, rtol=1e-10,
                       atol=1e-12 * np.abs(f_ref).max())
    assert e == potential.energy(structure)
    assert np.array_equal(f, potential.forces(structure))


def fd_forces(structure, potential, h=1e-5):
    """Central-difference forces as an oracle for analytic ones."""
    base = structure.positions.copy()
    out = np.zeros_like(base)
    work = structure.copy()
    for i in range(len(structure)):
        for k in range(3):
            work.positions = base.copy()
            work.positions[i, k] += h
            ep = potential.energy(work)
            work.positions = base.copy()
            work.positions[i, k] -= h
            em = potential.energy(work)
            out[i, k] = -(ep - em) / (2 * h)
    return out


class TestLennardJones:
    def test_minimum_location(self):
        r_min = 2 ** (1 / 6) * 3.4
        s = dimer(r=r_min)
        assert AR_LJ.energy(s) == pytest.approx(-0.0104, rel=1e-12)
        assert max_force_norm(AR_LJ.forces(s)) < 1e-10

    def test_forces_match_fd(self):
        rng = np.random.default_rng(0)
        s = AtomicStructure(
            elements=["Ar"] * 5,
            positions=rng.uniform(0, 6, size=(5, 3)),
        )
        assert np.allclose(AR_LJ.forces(s), fd_forces(s, AR_LJ), atol=1e-7)

    def test_periodic_minimum_image(self):
        s = AtomicStructure(
            elements=["Ar", "Ar"],
            positions=np.array([[0.5, 0, 0], [11.5, 0, 0]]),
            cell=np.eye(3) * 12.0,
        )
        near = dimer(r=1.0)
        assert AR_LJ.energy(s) == pytest.approx(AR_LJ.energy(near), rel=1e-10)

    def test_missing_pair(self):
        s = dimer(element="Ne", r=3.0)
        with pytest.raises(KeyError):
            AR_LJ.energy(s)

    @pytest.mark.parametrize("params, message", [
        ({("Ar", "Ar"): [np.nan, 3.4]}, "not two positive numbers"),
        ({("Ar", "Ar"): [0.01, np.inf]}, "not two positive numbers"),
        ({("Ar", "Ar"): [np.inf, 3.4]}, "not two positive numbers"),
        ({("Ar", "Ar"): [0.0, 3.4]}, "not two positive numbers"),
        ({("Ar", "Ar"): [0.01, 0]}, "not two positive numbers"),
        ({("Ar", "Ar"): [-0.01, 3.4]}, "not two positive numbers"),
        ({("Ar", "Ar"): [0.01, -3.4]}, "not two positive numbers"),
        ({("Ar", "Ar"): [0.01]}, "not two positive numbers"),
        ({("Ar", "Ar"): [True, 3.4]}, "not two positive numbers"),
        ({("Ar", "Ar", "Ar"): [0.01, 3.4]}, "two comma-separated elements"),
        ({("Ar", ""): [0.01, 3.4]}, "two comma-separated elements"),
        ({("Ar", "C"): [0.01, 3.0], ("C", "Ar"): [0.02, 3.5]},
         "conflicting LJ entries for pair 'C,Ar'"),
    ], ids=["nan-eps", "inf-sigma", "inf-eps", "zero-eps", "zero-sigma",
            "negative-eps", "negative-sigma", "one-number", "bool",
            "three-elements", "empty-element", "conflicting"])
    def test_constructor_rejects_as_the_file_does(self, tmp_path, params,
                                                  message):
        """The constructor owns the parameter rule: what it rejects, the
        params file rejects with the same message."""
        with pytest.raises(ValueError, match=message) as direct:
            LennardJonesPotential(params)
        path = tmp_path / "lj.json"
        path.write_text(json.dumps(
            {",".join(key): value for key, value in params.items()}))
        with pytest.raises(ValueError) as from_file:
            LennardJonesPotential.from_json(path)
        assert str(from_file.value) == str(direct.value)

    def test_either_order_names_one_pair(self, tmp_path):
        both = LennardJonesPotential({("Ar", "C"): (0.01, 3.0),
                                      ("C", "Ar"): (0.01, 3.0)})
        path = tmp_path / "lj.json"
        path.write_text(json.dumps({"C,Ar": [0.01, 3.0]}))
        assert both.params == LennardJonesPotential.from_json(path).params \
            == {("Ar", "C"): (0.01, 3.0)}


class TestPairKernel:
    @settings(max_examples=60, deadline=None)
    @given(structures())
    def test_lj_matches_reference(self, s):
        assert_matches_reference(MIXED_LJ, s, ref_lj)

    def test_missing_pair_message(self):
        s = AtomicStructure(elements=["Ar", "Ne", "Ar"],
                            positions=np.eye(3) * 3.0)
        with pytest.raises(KeyError, match="for pair Ar-Ne"):
            AR_LJ.energy_and_forces(s)


class TestMinimumImage:
    def test_skewed_cell_is_brute_force_minimum(self):
        s = AtomicStructure(elements=["Ar"], positions=np.zeros((1, 3)),
                            cell=SKEWED_CELL)
        rng = np.random.default_rng(0)
        deltas = rng.uniform(-1.0, 1.0, size=(500, 3)) @ SKEWED_CELL
        frac = deltas @ np.linalg.inv(SKEWED_CELL)
        rounded = np.linalg.norm((frac - np.round(frac)) @ SKEWED_CELL, axis=1)
        shifts = np.array([
            [a, b, c] for a in range(-2, 3) for b in range(-2, 3)
            for c in range(-2, 3)
        ]) @ SKEWED_CELL
        brute = np.linalg.norm(deltas[:, None] + shifts[None], axis=2).min(1)
        assert np.any(rounded > brute + 1e-6)   # rounding alone falls short
        kernel = minimum_image_map(s.cell)(deltas)
        assert np.allclose(np.linalg.norm(kernel, axis=1), brute,
                           rtol=0, atol=1e-12)
        # each returned vector is an image of its input
        n_cells = (kernel - deltas) @ np.linalg.inv(SKEWED_CELL)
        assert np.allclose(n_cells, np.round(n_cells), atol=1e-9)

    def test_orthorhombic_fast_path_equals_search(self):
        cell = np.diag([11.3, 7.9, 13.1])
        s = AtomicStructure(elements=["Ar"], positions=np.zeros((1, 3)),
                            cell=cell)
        rng = np.random.default_rng(1)
        frac = rng.uniform(-2.0, 2.0, size=(2000, 3))
        # near-half-box separations on every axis
        near = rng.choice([-1.5, -0.5, 0.5, 1.5], size=(2000, 3))
        near += rng.choice([-1e-9, -1e-12, 1e-12, 1e-9], size=(2000, 3))
        deltas = np.vstack([frac, near]) @ cell
        assert np.array_equal(minimum_image_map(s.cell)(deltas),
                              ref_min_image(s, deltas))

    def test_exact_half_cell_ties_match_search(self):
        # a 4x4x4 lattice in an 8 A box puts many pairs exactly half a
        # cell apart; ties must resolve to the image the search picks
        s = lj_lattice(4, spacing=2.0)
        ii, jj = np.triu_indices(len(s), k=1)
        deltas = s.positions[jj] - s.positions[ii]
        assert np.any(np.abs(deltas) == 4.0)
        assert np.array_equal(minimum_image_map(s.cell)(deltas),
                              ref_min_image(s, deltas))

    @settings(max_examples=80, deadline=None)
    @given(structures())
    def test_brute_force_minimum(self, s):
        """Kernel = reference, and its lengths are the shortest over
        translations -2..2 along each lattice vector."""
        assume(s.cell is not None)
        ii, jj = np.triu_indices(len(s), k=1)
        deltas = s.positions[jj] - s.positions[ii]
        kernel = minimum_image_map(s.cell)(deltas)
        assert np.array_equal(kernel, ref_min_image(s, deltas))
        brute = np.linalg.norm(
            deltas[:, None] + image_translations(s)[None], axis=2).min(1)
        assert np.allclose(np.linalg.norm(kernel, axis=1), brute,
                           rtol=0, atol=1e-12)
        # each returned vector is an image of its input
        n_cells = (kernel - deltas) @ np.linalg.inv(s.cell)
        assert np.allclose(n_cells, np.round(n_cells), atol=1e-9)


class TestRelax:
    def test_dimer_to_minimum(self):
        result = relax(dimer(r=3.0), AR_LJ, fmax=1e-6)
        assert result.converged
        r = np.linalg.norm(
            result.structure.positions[1] - result.structure.positions[0]
        )
        assert r == pytest.approx(2 ** (1 / 6) * 3.4, rel=1e-6)

    def test_energies_non_increasing(self):
        result = relax(dimer(r=3.0), AR_LJ, fmax=1e-4)
        assert all(
            b <= a + 1e-12 for a, b in zip(result.energies, result.energies[1:])
        )

    def test_cluster_converges(self):
        rng = np.random.default_rng(4)
        s = AtomicStructure(
            elements=["Ar"] * 6,
            positions=rng.uniform(0, 5, size=(6, 3)) * 1.4,
        )
        result = relax(s, AR_LJ, fmax=0.01, max_steps=2000)
        assert result.converged
        assert result.max_force <= 0.01

    @pytest.mark.parametrize("fmax", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_fmax(self, fmax):
        with pytest.raises(ValueError, match="fmax"):
            relax(dimer(r=3.0), AR_LJ, fmax=fmax)

    def test_input_untouched(self):
        s = dimer(r=3.0)
        before = s.positions.copy()
        relax(s, AR_LJ, fmax=1e-4)
        assert np.array_equal(s.positions, before)


def image_translations(structure):
    """Lattice translations with integers -2..2 along each lattice vector."""
    return (np.array(list(itertools.product(range(-2, 3), repeat=3)))
            @ structure.cell)


def image_gap(structure):
    """Smallest gap (A) between a pair's nearest and next-nearest image.

    Where it is zero the pair sits on a minimum-image tie, the energy has
    a kink, and a central difference whose step straddles the tie is no
    oracle for the Hessian. Free structures have no images: infinite gap.
    """
    if structure.cell is None:
        return np.inf
    cell = structure.cell
    ii, jj = np.triu_indices(len(structure), k=1)
    deltas = structure.positions[jj] - structure.positions[ii]
    rounded = ref_min_image(structure, deltas)
    shifts = image_translations(structure)
    lengths = np.sort(np.linalg.norm(rounded[:, None] + shifts[None], axis=2),
                      axis=1)
    return float((lengths[:, 1] - lengths[:, 0]).min())


def assert_exact_hessian(potential, structure):
    """Symmetry, translational invariance, and h^2 convergence of the
    central-difference oracle onto the analytic Hessian.

    The oracle's error D(h) = FD(h) - H is C h^2 plus rounding, so
    D(1e-4) must equal D(1e-3) / 100 to within 1% of D(1e-4) plus a
    rounding floor of 1e-9 max|H| (observed: under 1e-11 max|H|).
    """
    H = potential.hessian(structure)
    n = len(structure)
    assert H.shape == (3 * n, 3 * n)
    assert np.array_equal(H, H.T)
    scale = np.abs(H).max()
    assert np.abs(H.reshape(n, 3, n, 3).sum(axis=2)).max() <= 1e-13 * scale
    # a step of h changes each image length by at most h
    assume(image_gap(structure) > 1e-2)
    d3 = hessian_finite_difference(structure, potential, h=1e-3) - H
    d4 = hessian_finite_difference(structure, potential, h=1e-4) - H
    assert (np.abs(d4 - d3 / 100.0).max()
            <= 0.01 * np.abs(d3).max() / 100.0 + 1e-9 * scale)


class TestHessian:
    @settings(max_examples=25, deadline=None)
    @given(structures())
    def test_lj_matches_finite_difference(self, s):
        assert_exact_hessian(MIXED_LJ, s)

    def test_symmetric(self):
        s = dimer(r=3.6)
        K = hessian_finite_difference(s, AR_LJ)
        assert np.allclose(K, K.T)

    def test_external_potential_rejected(self, tmp_path):
        p = tmp_path / "sp.json"
        p.write_text(json.dumps({
            "n_atoms": 2, "energy_eV": 0.0,
            "forces_eV_per_A": [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]],
        }))
        with pytest.raises(TypeError, match="ExternalPotential"):
            hessian_finite_difference(dimer(r=3.0), ExternalPotential(p))

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.01])
    def test_rejects_bad_step(self, h):
        with pytest.raises(ValueError, match="displacement"):
            hessian_finite_difference(dimer(r=3.6), AR_LJ, h=h)


class TestExternalPotential:
    def test_replay(self, tmp_path):
        payload = {
            "n_atoms": 2,
            "energy_eV": -1.25,
            "forces_eV_per_A": [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]],
            "hessian_eV_per_A2": np.eye(6).tolist(),
        }
        p = tmp_path / "sp.json"
        p.write_text(json.dumps(payload))
        pot = ExternalPotential(p)
        s = dimer(r=3.0)
        assert pot.forces(s)[0, 2] == 0.1
        assert np.array_equal(pot.hessian(s), np.eye(6))

    def test_shape_validation(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "n_atoms": 2, "energy_eV": 0.0,
            "forces_eV_per_A": [[0.0, 0.0, 0.0]],
        }))
        with pytest.raises(ValueError):
            ExternalPotential(p)

    @pytest.mark.parametrize("key, path", [
        ("energy_eV", ()), ("forces_eV_per_A", (1, 2)),
        ("hessian_eV_per_A2", (3, 4)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, key, path, bad):
        payload = {
            "n_atoms": 2,
            "energy_eV": -1.25,
            "forces_eV_per_A": [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]],
            "hessian_eV_per_A2": np.eye(6).tolist(),
        }
        if path:
            payload[key][path[0]][path[1]] = bad
        else:
            payload[key] = bad
        p = tmp_path / "sp.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-finite"):
            ExternalPotential(p)


# --- the per-probe kernel the prepared pair table and image map replaced:
# the seed's minimum_image, _upper_pairs, _scatter_forces, _pair_params,
# _pairs, energy_and_forces, hessian and relax verbatim, renamed ref_*.
# The prepared kernel must equal them bit for bit.

def ref_minimum_image(structure, deltas):
    if structure.cell is None:
        return deltas
    cell = structure.cell
    frac = deltas @ np.linalg.inv(cell)
    frac -= np.round(frac)
    if np.count_nonzero(cell @ cell.T) == 3:
        frac[frac == 0.5] = -0.5
        return frac @ cell
    best = frac @ cell
    shifts = lattice_translations(structure.cell)
    cand = best[:, None, :] + shifts[None, :, :]
    idx = np.argmin((cand ** 2).sum(axis=2), axis=1)
    return cand[np.arange(len(best)), idx]


def ref_upper_pairs(n):
    return np.nonzero(~np.tri(n, dtype=bool))


def ref_scatter_forces(n, ii, jj, weights):
    return np.stack([
        np.bincount(ii, weights=w, minlength=n)
        - np.bincount(jj, weights=w, minlength=n)
        for w in weights
    ], axis=1)


def ref_pair_params(potential, elements, ii, jj):
    types = {e: k for k, e in enumerate(dict.fromkeys(elements))}
    codes = np.array([types[e] for e in elements], dtype=int)
    table = np.array([
        [potential.params.get(_pair_key(a, b), (np.nan, np.nan))
         for b in types]
        for a in types
    ], dtype=float)
    pp = table[codes[ii], codes[jj]]
    missing = np.isnan(pp[:, 0])
    if missing.any():
        k = int(np.argmax(missing))
        e1, e2 = elements[ii[k]], elements[jj[k]]
        raise KeyError(f"missing LJ parameters for pair {e1}-{e2}")
    return pp[:, 0], pp[:, 1]


def ref_pairs(potential, structure):
    ii, jj = ref_upper_pairs(len(structure))
    eps, sigma = ref_pair_params(potential, structure.elements, ii, jj)
    positions = structure.positions
    deltas = ref_minimum_image(structure, np.take(positions, jj, axis=0)
                               - np.take(positions, ii, axis=0))
    r = np.linalg.norm(deltas, axis=1)
    sr6 = (sigma / r) ** 6
    dedr = 4.0 * eps * (-12.0 * sr6 * sr6 + 6.0 * sr6) / r
    return ii, jj, deltas, r, eps, sr6, dedr


def ref_energy_and_forces(potential, structure):
    ii, jj, deltas, r, eps, sr6, dedr = ref_pairs(potential, structure)
    energy = float(np.sum(4.0 * eps * (sr6 * sr6 - sr6)))
    return energy, ref_scatter_forces(len(structure), ii, jj,
                                      (dedr / r) * deltas.T)


def ref_hessian(potential, structure):
    n = len(structure)
    ii, jj, deltas, r, eps, sr6, dedr = ref_pairs(potential, structure)
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


class RefLJ:
    """The seed's per-probe energy_and_forces, for ref_relax."""

    def __init__(self, potential):
        self.potential = potential

    def energy_and_forces(self, structure):
        return ref_energy_and_forces(self.potential, structure)


def ref_relax(structure, potential, fmax=0.01, max_steps=500):
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


@st.composite
def shuffled_structures(draw):
    """`structures()` with its atoms, and so its element order, permuted."""
    s = draw(structures())
    perm = draw(st.permutations(range(len(s))))
    return AtomicStructure([s.elements[i] for i in perm], s.positions[perm],
                           masses=s.masses[perm], cell=s.cell)


def assert_same_probe(potential, structure):
    e, f = potential.energy_and_forces(structure)
    ref_e, ref_f = ref_energy_and_forces(potential, structure)
    assert e == ref_e
    assert np.array_equal(f, ref_f)
    assert potential.energy(structure) == ref_e
    assert np.array_equal(potential.forces(structure), ref_f)


class TestPreparedKernelOracle:
    """Pair table and image map, built once, against the per-probe seed."""

    @settings(max_examples=80, deadline=None)
    @given(shuffled_structures())
    def test_minimum_image_bit_identical(self, s):
        ii, jj = np.triu_indices(len(s), k=1)
        deltas = s.positions[jj] - s.positions[ii]
        image = minimum_image_map(s.cell)
        for d in (deltas, 3.0 * deltas[::-1]):
            assert np.array_equal(image(d), ref_minimum_image(s, d))

    @settings(max_examples=80, deadline=None)
    @given(shuffled_structures())
    def test_energy_and_forces_bit_identical(self, s):
        assert_same_probe(MIXED_LJ, s)
        evaluate = MIXED_LJ.evaluator(s)
        moved = s.positions + 0.01
        e, f = evaluate(moved)
        work = s.copy()
        work.positions = moved
        ref_e, ref_f = ref_energy_and_forces(MIXED_LJ, work)
        assert e == ref_e and np.array_equal(f, ref_f)

    @settings(max_examples=40, deadline=None)
    @given(shuffled_structures())
    def test_hessian_bit_identical(self, s):
        assert np.array_equal(MIXED_LJ.hessian(s), ref_hessian(MIXED_LJ, s))

    @settings(max_examples=40, deadline=None)
    @given(shuffled_structures(), st.sampled_from([1e-3, 1e-2, 5e-2]),
           st.integers(1, 60))
    def test_relax_bit_identical(self, s, fmax, max_steps):
        res = relax(s, MIXED_LJ, fmax=fmax, max_steps=max_steps)
        ref = ref_relax(s, RefLJ(MIXED_LJ), fmax=fmax, max_steps=max_steps)
        assert np.array_equal(res.structure.positions,
                              ref.structure.positions)
        assert res.energies == ref.energies
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        assert res.max_force == ref.max_force
        assert res.probes >= res.iterations + 1

    def test_relax_past_the_memory_bit_identical(self):
        # enough steps that the L-BFGS memory drops its oldest pairs
        s = lj_lattice(3, spacing=3.6)
        s.positions = s.positions + np.random.default_rng(3).uniform(
            -0.4, 0.4, size=s.positions.shape)
        res = relax(s, AR_LJ, fmax=1e-6, max_steps=200)
        ref = ref_relax(s, RefLJ(AR_LJ), fmax=1e-6, max_steps=200)
        assert res.iterations > 2 * _LBFGS_MEMORY
        assert np.array_equal(res.structure.positions,
                              ref.structure.positions)
        assert res.energies == ref.energies
        assert (res.iterations, res.converged) == (ref.iterations,
                                                   ref.converged)

    def test_no_stale_table(self):
        """One instance follows changes of elements and cell between
        calls, and an evaluator keeps the structure it was built for."""
        potential = LennardJonesPotential(MIXED_LJ.params)
        rng = np.random.default_rng(5)
        frac = np.stack(np.unravel_index(rng.choice(64, size=12,
                                                    replace=False),
                                         (4, 4, 4)), axis=1) / 4.0
        s = AtomicStructure(elements=["Ar"] * 12, positions=frac @ SKEWED_CELL,
                            cell=SKEWED_CELL.copy())
        steps = [
            lambda s: None,
            lambda s: s.elements.__setitem__(3, "Ne"),           # in place
            lambda s: setattr(s, "elements", ["C"] * 6 + ["Ar"] * 6),
            lambda s: s.cell.__setitem__((0, 1), 0.5),          # in place
            lambda s: setattr(s, "cell", np.diag([9.0, 10.0, 8.0])),
            lambda s: setattr(s, "cell", LEANING_CELL),
        ]
        for change in steps:
            evaluate = potential.evaluator(s)
            ref_e, ref_f = ref_energy_and_forces(potential, s)
            change(s)
            e, f = evaluate(s.positions)
            assert e == ref_e and np.array_equal(f, ref_f)
            assert_same_probe(potential, s)
            assert np.array_equal(potential.hessian(s),
                                  ref_hessian(potential, s))
            res = relax(s, potential, fmax=1e-2, max_steps=5)
            ref = ref_relax(s, RefLJ(potential), fmax=1e-2, max_steps=5)
            assert res.energies == ref.energies

    def test_external_evaluator_checks_count_and_copies(self, tmp_path):
        # A replayed single point serves forces and a Hessian, not an
        # evaluator: it holds forces at one geometry and cannot be relaxed.
        p = tmp_path / "sp.json"
        p.write_text(json.dumps({
            "n_atoms": 2, "energy_eV": -1.0,
            "forces_eV_per_A": [[0.0, 0.0, 0.1], [0.0, 0.0, -0.1]],
            "hessian_eV_per_A2": np.eye(6).tolist(),
        }))
        pot = ExternalPotential(p)
        assert not hasattr(pot, "evaluator")
        s = dimer(r=3.0)
        for method in (pot.forces, pot.hessian):
            first = method(s)
            served = first.copy()
            first[0, 2] = 5.0             # callers may write to their copy
            assert np.array_equal(method(s), served)
            with pytest.raises(ValueError, match="3 atoms"):
                method(AtomicStructure(elements=["Ar"] * 3,
                                       positions=np.eye(3)))
