"""Atomic structure container, XYZ I/O, neighbor lists, molecule labels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from spescreen.constants import covalent_radius
from spescreen.structure import (
    AtomicStructure,
    close_pairs,
    identify_molecules,
    natural_cutoffs,
    neighbor_list,
    parse_xyz,
    write_xyz,
)


def ref_neighbor_list(structure):
    """The neighbor list the one-query version replaced: a query_pairs
    branch for free structures, and 27 shifted trees in a Python loop,
    periodic along all three axes, for periodic ones."""
    cutoffs = natural_cutoffs(structure)
    pos = structure.positions
    rmax = 2.0 * cutoffs.max()
    pairs = set()
    if structure.cell is None:
        tree = cKDTree(pos)
        candidates = tree.query_pairs(rmax)
        for i, j in candidates:
            d = np.linalg.norm(pos[i] - pos[j])
            if d < cutoffs[i] + cutoffs[j]:
                pairs.add((min(i, j), max(i, j)))
    else:
        cell = structure.cell
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


def brute_neighbor_list(structure):
    """Every pair i < j with some image of j, over translations -2..2
    along each lattice vector, closer to i than the summed covalent radii."""
    cutoffs = natural_cutoffs(structure)
    pos = structure.positions
    shifts = np.zeros((1, 3))
    if structure.cell is not None:
        shifts = (np.array(list(itertools.product(range(-2, 3), repeat=3)))
                  @ structure.cell)
    return {
        (i, j)
        for i in range(len(pos)) for j in range(i + 1, len(pos))
        if np.linalg.norm(pos[j] + shifts - pos[i], axis=1).min()
        < cutoffs[i] + cutoffs[j]
    }


@st.composite
def bonded_structures(draw, kinds=("free", "orthorhombic", "skewed")):
    """2-30 atoms of C, H, N, O and Ar at uniform fractional coordinates
    in [-0.25, 1.25) of a 5-9 A cell, free or periodic.

    Skewed cells tilt b and c by at most 0.3 of the earlier lengths, so
    every lattice plane spacing exceeds twice the largest radius (Ar,
    1.06 A) and the -2..2 brute force sees every bonded image.
    """
    n = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(kinds))
    lengths = np.array(draw(st.lists(st.floats(5.0, 9.0), min_size=3,
                                     max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cell = np.diag(lengths)
    if kind == "skewed":
        cell[1, 0] = rng.uniform(-0.3, 0.3) * lengths[0]
        cell[2, :2] = rng.uniform(-0.3, 0.3, size=2) * lengths[:2]
    positions = rng.uniform(-0.25, 1.25, size=(n, 3)) @ cell
    elements = rng.choice(["C", "H", "N", "O", "Ar"], size=n).tolist()
    if kind == "free":
        return AtomicStructure(elements=elements, positions=positions)
    return AtomicStructure(elements=elements, positions=positions,
                           cell=cell)


def row_norm(v):
    """The distance `close_pairs` returns: np.linalg.norm along axis 1,
    which can round differently from the norm of a 1-D vector."""
    return np.linalg.norm(np.reshape(v, (1, 3)), axis=1)[0]


def pair_across(p, u, limit, inside):
    """The point q = p + t u at the largest t whose row norm |q - p| is
    below `limit` (inside) or the smallest at or above it (outside)."""
    t = limit
    while True:
        q = p + t * u
        if (row_norm(q - p) < limit) == inside:
            return q
        t = np.nextafter(t, 0.0 if inside else np.inf)


def water():
    return AtomicStructure(
        elements=["O", "H", "H"],
        positions=np.array([[0.0, 0.0, 0.0], [0.96, 0.0, 0.0],
                            [-0.24, 0.93, 0.0]]),
    )


class TestContainer:
    def test_masses_autofilled(self):
        w = water()
        assert w.masses[0] == pytest.approx(15.999, abs=0.01)
        assert w.masses[1] == pytest.approx(1.008, abs=0.001)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            AtomicStructure(elements=["H"], positions=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell(self, bad):
        cell = np.eye(3) * 10.0
        cell[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite cell"):
            AtomicStructure(elements=["H"], positions=np.zeros((1, 3)),
                            cell=cell)

    def test_com_and_translate(self):
        w = water()
        com0 = w.center_of_mass()
        w.translate([1.0, 0.0, 0.0])
        assert np.allclose(w.center_of_mass() - com0, [1.0, 0.0, 0.0])

    def test_rotation_preserves_distances(self):
        w = water()
        d0 = np.linalg.norm(w.positions[0] - w.positions[1])
        com0 = w.center_of_mass()
        w.rotate([0.3, 1.0, -0.2], 73.0)
        d1 = np.linalg.norm(w.positions[0] - w.positions[1])
        assert d1 == pytest.approx(d0, rel=1e-12)
        assert np.allclose(w.center_of_mass(), com0)


class TestXYZ:
    def test_roundtrip(self, tmp_path):
        w = water()
        p = tmp_path / "w.xyz"
        write_xyz(w, p)
        back = parse_xyz(p)
        assert back.elements == w.elements
        assert np.allclose(back.positions, w.positions, atol=1e-7)

    def test_cell_roundtrip(self, tmp_path):
        s = AtomicStructure(
            elements=["C"], positions=np.zeros((1, 3)),
            cell=np.diag([5.0, 6.0, 7.0]),
        )
        p = tmp_path / "c.xyz"
        write_xyz(s, p)
        back = parse_xyz(p)
        assert np.allclose(back.cell, s.cell)

    @pytest.mark.parametrize("pbc", ['pbc="T F T"', 'pbc="F F F"',
                                     'pbc="T T F"', "pbc=F", 'pbc=""'])
    def test_open_axis_refused(self, tmp_path, pbc):
        """A slab (an open axis) is refused, naming the file: read as
        periodic, an Ar pair 9 A apart along an open y would sit 1 A apart
        through the cell."""
        p = tmp_path / "slab.xyz"
        p.write_text(f'2\nLattice="10 0 0 0 10 0 0 0 10" {pbc}\n'
                     "Ar 0 0.5 0\nAr 0 9.5 0\n")
        with pytest.raises(ValueError, match="slab.xyz.*open axis"):
            parse_xyz(p)

    @pytest.mark.parametrize("pbc", ['pbc="T T T"', "pbc=T",
                                     'pbc = "T  T T"'])
    def test_periodic_pbc_key_reads_as_absent(self, tmp_path, pbc):
        plain, declared = tmp_path / "plain.xyz", tmp_path / "declared.xyz"
        body = "Ar 0 0.5 0\nAr 0 9.5 0\n"
        lattice = 'Lattice="10 0 0 0 10 0 0 0 10"'
        plain.write_text(f"2\n{lattice}\n{body}")
        declared.write_text(f"2\n{lattice} {pbc}\n{body}")
        a, b = parse_xyz(plain), parse_xyz(declared)
        assert a.elements == b.elements
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.cell, b.cell)

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("2\ncomment\nH 0 0 0\n")
        with pytest.raises(ValueError):
            parse_xyz(p)

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one(self, tmp_path, count):
        """A count of -1 once read two of three rows, and 0 an empty
        structure that failed in numpy."""
        p = tmp_path / "bad.xyz"
        p.write_text(f"{count}\n\n" + "Ar 0 0 0\n" * 3)
        with pytest.raises(ValueError, match="bad.xyz.*at least 1"):
            parse_xyz(p)


class TestNeighborList:
    def test_water_bonds(self):
        pairs = neighbor_list(water())
        assert set(map(tuple, pairs)) == {(0, 1), (0, 2)}

    def test_brute_force_nonperiodic(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, size=(40, 3))
        s = AtomicStructure(elements=["C"] * 40, positions=pos)
        cuts = natural_cutoffs(s)
        pairs = set(map(tuple, neighbor_list(s)))
        expect = {
            (i, j)
            for i in range(40) for j in range(i + 1, 40)
            if np.linalg.norm(pos[i] - pos[j]) < cuts[i] + cuts[j]
        }
        assert pairs == expect

    def test_periodic_wraps(self):
        s = AtomicStructure(
            elements=["C", "C"],
            positions=np.array([[0.1, 0, 0], [9.9, 0, 0]]),
            cell=np.eye(3) * 10.0,
        )
        pairs = neighbor_list(s)
        assert (0, 1) in set(map(tuple, pairs))

    def test_periodic_brute_force(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 8, size=(30, 3))
        s = AtomicStructure(
            elements=["C"] * 30, positions=pos,
            cell=np.eye(3) * 8.0,
        )
        cuts = natural_cutoffs(s)
        pairs = set(map(tuple, neighbor_list(s)))
        expect = set()
        for i in range(30):
            for j in range(i + 1, 30):
                d = pos[i] - pos[j]
                d -= 8.0 * np.round(d / 8.0)
                if np.linalg.norm(d) < cuts[i] + cuts[j]:
                    expect.add((i, j))
        assert pairs == expect

    @settings(max_examples=150, deadline=None)
    @given(bonded_structures())
    def test_equals_reference(self, s):
        pairs = neighbor_list(s)
        assert pairs.shape == (len(pairs), 2)
        assert list(map(tuple, pairs)) == ref_neighbor_list(s)

    @settings(max_examples=25, deadline=None)
    @given(bonded_structures(kinds=("orthorhombic", "skewed")))
    def test_periodic_cells_brute_force(self, s):
        assert set(map(tuple, neighbor_list(s))) == brute_neighbor_list(s)

    def test_pair_at_the_ulp_boundary(self):
        """Two Ar atoms whose true distance, 2.11999999999999973 A, lies
        below 2 r_Ar = 2.12 A: the 1-D norm rounds it to
        2.1199999999999997 and the row norm the rule uses to 2.12 (with
        numpy's three-term sum), so the strict rule bonds it only one step
        closer along the same line."""
        p = np.array([2.857857007138075, -0.8534415064432919,
                      2.3448357178872934])
        q = np.array([2.909548743233482, 1.25659750766025, 2.543489495551839])
        bonds = neighbor_list(AtomicStructure(["Ar", "Ar"], [p, q]))
        assert len(bonds) == (row_norm(q - p) < 2.12)
        closer = pair_across(p, (q - p) / 2.12, 2.12, inside=True)
        assert neighbor_list(AtomicStructure(["Ar", "Ar"], [p, closer])
                             ).tolist() == [[0, 1]]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["C", "H", "N", "O", "Ar"]),
           st.sampled_from(["C", "H", "N", "O", "Ar"]),
           st.integers(0, 2**32 - 1))
    def test_exact_norm_decides(self, e1, e2, seed):
        """Along a random direction, the pair just below r_i + r_j in row
        norm is bonded and the pair just at or above it is not; like
        atoms put the pair at the tree's search radius itself."""
        rng = np.random.default_rng(seed)
        p = rng.uniform(-10.0, 10.0, size=3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        limit = covalent_radius(e1) + covalent_radius(e2)
        inside = pair_across(p, u, limit, inside=True)
        outside = pair_across(p, u, limit, inside=False)
        assert neighbor_list(AtomicStructure([e1, e2], [p, inside])
                             ).tolist() == [[0, 1]]
        assert len(neighbor_list(AtomicStructure([e1, e2], [p, outside]))) == 0


class TestClosePairs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 80), st.integers(1, 80), st.floats(0.1, 4.0),
           st.integers(0, 2**32 - 1))
    def test_brute_force(self, n, m, radius, seed):
        """Every pair within the radius is proposed, and the distances are
        the row norms of b.data[j] - a.data[i], bit for bit."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 6.0, size=(n, 3))
        b = rng.uniform(0.0, 6.0, size=(m, 3))
        i, j, d = close_pairs(cKDTree(a), cKDTree(b), radius)
        assert np.array_equal(d, np.linalg.norm(b[j] - a[i], axis=1))
        inside = np.linalg.norm(b[None, :, :] - a[:, None, :], axis=2) < radius
        proposed = set(zip(i.tolist(), j.tolist()))
        assert set(zip(*np.nonzero(inside))) <= proposed


class TestMolecules:
    def test_two_waters(self):
        w = water()
        far = water().translate([8.0, 0.0, 0.0])
        both = AtomicStructure(
            elements=w.elements + far.elements,
            positions=np.vstack([w.positions, far.positions]),
        )
        labels = identify_molecules(both)
        assert labels.count == 2
        assert list(labels.labels[:3]) == [0, 0, 0]
        assert list(labels.labels[3:]) == [1, 1, 1]
        assert list(labels.sizes()) == [3, 3]

    def test_single_molecule(self):
        labels = identify_molecules(water())
        assert labels.count == 1
