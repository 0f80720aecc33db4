"""Atomic structure container, XYZ I/O, neighbor lists, molecule labels."""

import numpy as np
import pytest

from spescreen.structure import (
    AtomicStructure,
    identify_molecules,
    natural_cutoffs,
    neighbor_list,
    parse_xyz,
    write_xyz,
)


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

    def test_subset(self):
        w = water()
        s = w.subset([0, 2])
        assert s.elements == ["O", "H"]
        assert np.allclose(s.positions[1], w.positions[2])


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
            cell=np.diag([5.0, 6.0, 7.0]), pbc=(True, True, True),
        )
        p = tmp_path / "c.xyz"
        write_xyz(s, p)
        back = parse_xyz(p)
        assert np.allclose(back.cell, s.cell)
        assert all(back.pbc)

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.xyz"
        p.write_text("2\ncomment\nH 0 0 0\n")
        with pytest.raises(ValueError):
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
            cell=np.eye(3) * 10.0, pbc=(True, True, True),
        )
        pairs = neighbor_list(s)
        assert (0, 1) in set(map(tuple, pairs))

    def test_periodic_brute_force(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 8, size=(30, 3))
        s = AtomicStructure(
            elements=["C"] * 30, positions=pos,
            cell=np.eye(3) * 8.0, pbc=(True, True, True),
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
