"""SMILES parsing, aromaticity perception, and fingerprint tests.

The ring code is checked against the networkx reference it replaced, and
its atom-order independence per atom and per bond through a known
permutation of the graph; the token-pattern parser against the character
scanner it replaced (`TestTokenGrammar`). `TestCanonicalization` checks
that parsing brings a molecule to one normal form: stable under
re-perception, under atom renumbering, and across different texts for
the same molecule.
"""

import contextlib
import copy
import random
import re
import subprocess
import sys
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spescreen.chem import (
    AROMATIC,
    Atom,
    Bond,
    Fingerprint,
    MolecularGraph,
    SmilesParseError,
    load_smiles_table,
    morgan_fingerprint,
    parse_smiles,
    rank_by_similarity,
    similarity_summary,
    tanimoto,
    tanimoto_matrix,
)
from spescreen.chem import smiles as smiles_module
from spescreen.chem.graph import (
    AROMATIC_ELEMENTS,
    DEFAULT_VALENCES,
    assign_implicit_hydrogens,
)

from conftest import (
    DBT_CENTERS,
    NEAR_DBT_A_CENTERS,
    NEAR_DBT_B_CENTERS,
    SQ3,
    TERRYLENE_CENTERS,
    pah_graph,
)
from test_acceptance import _random_molecule

MOLECULES = [
    "C", "CC", "CCO", "C=C", "C#N", "CC(C)=O", "c1ccccc1", "c1ccsc1",
    "c1ccc2ccccc2c1", "C1CCCCC1", "c1ccc2cc3ccccc3cc2c1",
    "CC(=O)Oc1ccccc1C(=O)O", "[13CH4]", "[O-]C(=O)C", "[NH4+]",
    "C1CC2(CCC1)CCCCC2", "ClC(Br)I", "c1ccc(cc1)-c1ccccc1",
]


class TestParsing:
    def test_methane_hydrogens(self):
        g = parse_smiles("C")
        assert len(g) == 1
        assert g.atoms[0].h_count == 4

    def test_benzene_aromatic(self):
        g = parse_smiles("c1ccccc1")
        assert len(g) == 6
        assert all(a.aromatic for a in g.atoms)
        assert all(b.order == AROMATIC for b in g.bonds)
        assert all(a.h_count == 1 for a in g.atoms)

    def test_bracket_atom(self):
        g = parse_smiles("[13CH4]")
        assert g.atoms[0].isotope == 13
        assert g.atoms[0].h_count == 4

    def test_charge(self):
        g = parse_smiles("[NH4+]")
        assert g.atoms[0].charge == 1
        g = parse_smiles("[O-]C")
        assert g.atoms[0].charge == -1

    def test_ring_closure_percent(self):
        g = parse_smiles("C%10CCCCC%10")
        assert len(g.bonds) == 6

    def test_dot_disconnect(self):
        g = parse_smiles("C.C")
        assert len(g) == 2
        assert not g.bonds

    @pytest.mark.parametrize("bad", ["C(", "C1CC", "c1ccccc", "[Xx]", "C=#C",
                                     "%1C", ")C", "C=1CC#1"])
    def test_errors(self, bad):
        with pytest.raises(SmilesParseError):
            parse_smiles(bad)

    def test_error_position(self):
        with pytest.raises(SmilesParseError) as exc:
            parse_smiles("CC(C")
        assert exc.value.position is not None

    @pytest.mark.parametrize("smiles, element, isotope, h_count, charge, "
                             "aromatic", [
        ("[C]", "C", None, 0, 0, False),
        ("[O]", "O", None, 0, 0, False),
        ("[H]", "H", None, 0, 0, False),
        ("[S]", "S", None, 0, 0, False),
        ("[13C]", "C", 13, 0, 0, False),
        ("[2H]C", "H", 2, 0, 0, False),
        ("C[N]C", "N", None, 0, 0, False),
        ("[nH]", "N", None, 1, 0, True),
        ("[NH4+]", "N", None, 4, 1, False),
        ("[O-]C", "O", None, 0, -1, False),
        ("[Fe+2]", "Fe", None, 0, 2, False),
        ("[C@@H]", "C", None, 1, 0, False),
    ])
    def test_bracket_atom_fields(self, smiles, element, isotope, h_count,
                                 charge, aromatic):
        """Each bracket atom keeps its own fields; a one-letter body such
        as [C] parses too."""
        atom, = [a for a in parse_smiles(smiles).atoms if a.bracket]
        assert (atom.element, atom.isotope, atom.h_count, atom.charge,
                atom.aromatic) == (element, isotope, h_count, charge,
                                   aromatic)

    @pytest.mark.parametrize("text", ["C\u0661CC\u0661", "[\u0661\u0663CH4]"])
    def test_ascii_digits_only(self, text):
        """Ring closures and isotopes take ASCII digits only."""
        with pytest.raises(SmilesParseError):
            parse_smiles(text)


def _same_molecule(a, b):
    """Isomorphic, with every atom field and bond order matched."""
    def labelled(graph):
        g = _ref_nx_graph(graph)
        for k, atom in enumerate(graph.atoms):
            g.nodes[k]["atom"] = (atom.element, atom.charge, atom.isotope,
                                  atom.h_count, atom.aromatic)
        return g

    return nx.is_isomorphic(
        labelled(a), labelled(b),
        node_match=lambda x, y: x["atom"] == y["atom"],
        edge_match=lambda x, y: x["order"] == y["order"])


class TestCanonicalization:
    """parse_smiles brings each way of writing a molecule to one graph:
    H counts, aromatic flags and bond orders perceived from Kekule or
    aromatic text, whatever the atom order. Checked per atom and per bond,
    and across texts by labelled isomorphism."""

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_roundtrip_idempotent(self, smiles):
        """Perceiving the parsed graph again changes no atom and no bond."""
        g = parse_smiles(smiles)
        again = _perceive(g)
        assert again.atoms == g.atoms
        assert again.bonds == g.bonds

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_permutation_invariance(self, smiles):
        """Renumbered copies of the parsed graph perceive alike, atom by
        atom and bond by bond through the known permutation."""
        rnd = random.Random(smiles)
        g = parse_smiles(smiles)
        identity = list(range(len(g)))
        expected_bonds = _signature(g, identity)[1]
        fp = morgan_fingerprint(g)
        for _ in range(10):
            perm = identity[:]
            rnd.shuffle(perm)
            got = _perceive(_permuted(g, perm, rnd))
            atoms = [None] * len(g)
            for new, old in enumerate(perm):
                atoms[old] = got.atoms[new]
            assert atoms == g.atoms
            assert _signature(got, perm)[1] == expected_bonds
            assert morgan_fingerprint(got) == fp

    def test_equivalent_inputs(self):
        for a, b in [
            ("OCC", "CCO"),
            ("c1ccccc1", "C1=CC=CC=C1"),
            ("c1ccc2ccccc2c1", "C1=CC=C2C=CC=CC2=C1"),
            ("c1ccsc1", "S1C=CC=C1"),
            ("[O-]C(=O)C", "CC([O-])=O"),
            ("C%10CCCCC%10", "C1CCCCC1"),
        ]:
            ga, gb = parse_smiles(a), parse_smiles(b)
            assert _same_molecule(ga, gb), (a, b)
            assert morgan_fingerprint(ga) == morgan_fingerprint(gb), (a, b)
        for a, b in [("CCO", "COC"), ("c1ccccc1", "C1CCCCC1"),
                     ("[13CH4]", "C"), ("[NH4+]", "N")]:
            assert not _same_molecule(parse_smiles(a), parse_smiles(b))


class TestFingerprints:
    def test_identity(self):
        fp = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1"))
        assert tanimoto(fp, fp) == 1.0

    def test_symmetry(self):
        a = morgan_fingerprint(parse_smiles("CCO"))
        b = morgan_fingerprint(parse_smiles("CCC"))
        assert tanimoto(a, b) == tanimoto(b, a)

    def test_empty_empty_is_one(self):
        z = Fingerprint(bits=np.zeros(64, dtype=bool), nbits=64, radius=2)
        assert tanimoto(z, z) == 1.0

    def test_hand_counted(self):
        a = np.zeros(64, dtype=bool)
        b = np.zeros(64, dtype=bool)
        a[[1, 2, 3, 10]] = True        # a = 4 bits
        b[[2, 3, 20, 30, 40]] = True   # b = 5 bits, c = 2 common
        fa = Fingerprint(bits=a, nbits=64, radius=2)
        fb = Fingerprint(bits=b, nbits=64, radius=2)
        assert tanimoto(fa, fb) == 2 / (4 + 5 - 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for smiles in MOLECULES:
            g = parse_smiles(smiles)
            ref = morgan_fingerprint(g)
            n = len(g)
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            shuffled = MolecularGraph(
                atoms=[g.atoms[perm[k]] for k in range(n)],
                bonds=[
                    type(b)(int(inv[b.i]), int(inv[b.j]), b.order)
                    for b in g.bonds
                ],
            )
            assert morgan_fingerprint(shuffled) == ref

    def test_bad_nbits(self):
        with pytest.raises(ValueError):
            morgan_fingerprint(parse_smiles("C"), nbits=100)


class TestRanking:
    def test_rank_descending(self):
        ref = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1"))
        db = [
            (cid, morgan_fingerprint(parse_smiles(s)))
            for cid, s in [("a", "c1ccccc1"), ("b", "c1ccc2ccccc2c1"),
                           ("c", "CCCC")]
        ]
        ranked = rank_by_similarity(ref, db)
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)
        assert ranked[0][0] == "b"
        assert ranked[0][1] == 1.0

    def test_summary_fractions(self):
        ranked = [("a", 0.3), ("b", 0.45), ("c", 0.9)]
        s = similarity_summary(ranked)
        assert s["count"] == 3
        assert s["fraction_at_or_below_0.4"] == pytest.approx(1 / 3)
        assert s["fraction_at_or_below_0.5"] == pytest.approx(2 / 3)

    def test_load_table(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("id\tsmiles\nx\tCCO\ny\tnot_a_smiles\nz\tc1ccccc1\n")
        entries, skipped = load_smiles_table(p)
        assert [e[0] for e in entries] == ["x", "z"]
        assert skipped == 1
        # rows come back parsed, with the SMILES text kept as the source
        assert [g.source for _, g in entries] == ["CCO", "c1ccccc1"]
        for _, g in entries:
            identity = list(range(len(g)))
            assert _signature(g, identity) == \
                _signature(parse_smiles(g.source), identity)


# --- slow references: the networkx-based ring code the package replaced ----

def _ref_neighbors(graph, idx):
    out = []
    for b in graph.bonds:
        if b.i == idx:
            out.append((b.j, b))
        elif b.j == idx:
            out.append((b.i, b))
    return out


def _ref_nx_graph(graph):
    g = nx.Graph()
    g.add_nodes_from(range(len(graph.atoms)))
    for b in graph.bonds:
        g.add_edge(b.i, b.j, order=b.order)
    return g


def _ref_ring_bond_keys(graph):
    """Keys of non-bridge bonds, from networkx's bridge search."""
    bridges = {tuple(sorted(e)) for e in nx.bridges(_ref_nx_graph(graph))}
    return {b.key() for b in graph.bonds if b.key() not in bridges}


def _ref_pi_contribution(graph, idx):
    atom = graph.atoms[idx]
    if atom.element not in AROMATIC_ELEMENTS:
        return None
    nbrs = _ref_neighbors(graph, idx)
    if len(nbrs) > 3:
        return None
    if atom.aromatic:
        return 2 if atom.element in ("O", "S") and not any(
            b.order == 2 for _, b in nbrs) else 1
    has_double = any(b.order == 2 for _, b in nbrs)
    if atom.element == "C":
        if has_double:
            return 1
        if atom.charge == -1:
            return 2
        if atom.charge == 1:
            return 0
        return None
    if atom.element in ("N", "P"):
        if has_double:
            return 1
        if atom.h_count > 0 or len(nbrs) == 3:
            return 2
        return None
    if atom.element in ("O", "S"):
        return None if has_double else 2
    if atom.element == "B":
        return 0
    return None


def _ref_perceive_aromaticity(graph):
    """Hueckel perception over the chordless 3-8 rings of a minimum cycle basis."""
    basis = nx.minimum_cycle_basis(_ref_nx_graph(graph))
    rings = []
    for nodes in basis:
        nodeset = set(nodes)
        if not 3 <= len(nodeset) <= 8:
            continue
        induced = [b for b in graph.bonds if b.i in nodeset and b.j in nodeset]
        if len(induced) != len(nodeset):
            continue  # chorded
        rings.append((nodeset, induced))
    # each pass judges every ring on the graph as the pass found it: the
    # order of minimum_cycle_basis is networkx's, so a ring-by-ring update
    # would make the outcome for mutually exclusive fused rings arbitrary
    while True:
        passing = []
        for nodeset, induced in rings:
            if all(graph.atoms[i].aromatic for i in nodeset):
                continue
            pis = [_ref_pi_contribution(graph, i) for i in nodeset]
            if any(p is None for p in pis):
                continue
            if sum(pis) % 4 != 2:
                continue
            passing.append((nodeset, induced))
        if not passing:
            break
        for nodeset, induced in passing:
            for i in nodeset:
                graph.atoms[i].aromatic = True
            for b in induced:
                b.order = AROMATIC
    for b in graph.bonds:
        if b.order == AROMATIC:
            graph.atoms[b.i].aromatic = True
            graph.atoms[b.j].aromatic = True
    return graph


@contextlib.contextmanager
def _reference_chem():
    """Swap the ring perception and bridge search for the references."""
    with mock.patch.object(smiles_module, "perceive_aromaticity",
                           _ref_perceive_aromaticity), \
            mock.patch.object(MolecularGraph, "ring_bond_keys",
                              _ref_ring_bond_keys):
        yield


def _perceive(graph):
    """The steps parse_smiles takes after the grammar, run on a copy.

    The ring perception is looked up on the module at call time, so
    `_reference_chem` swaps in the reference here as it does in parsing.
    """
    g = copy.deepcopy(graph)
    assign_implicit_hydrogens(g)
    smiles_module.perceive_aromaticity(g)
    assign_implicit_hydrogens(g)
    return g.validate()


def _profile(graph):
    """Everything the ring code decides for one graph."""
    try:
        g = _perceive(graph)
    except ValueError as exc:
        return ("error", str(exc))
    return (
        [(a.aromatic, a.h_count) for a in g.atoms],
        [(b.key(), b.order) for b in g.bonds],
        sorted(g.ring_bond_keys()),
        sorted(g.ring_atoms()),
        tuple(np.flatnonzero(morgan_fingerprint(g).bits)),
    )


def _assert_matches_reference(graph):
    new = _profile(graph)
    with _reference_chem():
        ref = _profile(graph)
    assert new == ref, graph


def _ref_tanimoto(a, b):
    pa, pb = int(a.bits.sum()), int(b.bits.sum())
    c = int(np.logical_and(a.bits, b.bits).sum())
    return 1.0 if pa + pb == 0 else c / (pa + pb - c)


# --- random fused-ring graphs -----------------------------------------------

_HEX_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def _polyhex_topology(rnd, n_cells):
    """Bonds of a random hole-free polyhex of up to n_cells hexagons."""
    cells = [(0, 0)]
    while len(cells) < n_cells:
        q, r = rnd.choice(cells)
        dq, dr = rnd.choice(_HEX_STEPS)
        cell = (q + dq, r + dr)
        if cell in cells:
            continue
        g = pah_graph([(SQ3 * (cq + cr / 2), 1.5 * cr)
                       for cq, cr in cells + [cell]])
        # Euler: V - E + (hexagons + outer face + holes) = 2
        if 1 - len(g.atoms) + len(g.bonds) - len(cells) - 1 > 0:
            continue
        cells.append(cell)
    g = pah_graph([(SQ3 * (q + r / 2), 1.5 * r) for q, r in cells])
    return len(g.atoms), [b.key() for b in g.bonds]


def _fused_ring_topology(rnd, n_rings):
    """Bonds of n_rings ortho-fused rings of 5, 6 or 7 atoms.

    Each new ring is fused onto a bond whose atoms both have degree 2, so
    the rings are the graph's only chordless cycles.
    """
    size = rnd.choice((5, 6, 7))
    bonds = [(k, (k + 1) % size) for k in range(size)]
    n = size
    for _ in range(n_rings - 1):
        degree = [0] * n
        for i, j in bonds:
            degree[i] += 1
            degree[j] += 1
        free = [(i, j) for i, j in bonds if degree[i] == degree[j] == 2]
        u, v = rnd.choice(free)
        path = [u] + list(range(n, n + rnd.choice((5, 6, 7)) - 2)) + [v]
        n = path[-2] + 1
        bonds += list(zip(path, path[1:]))
    return n, [(min(b), max(b)) for b in bonds]


def _kekule_graph(smiles):
    """The graph of a SMILES string as written, before ring perception."""
    with mock.patch.object(smiles_module, "perceive_aromaticity",
                           lambda graph: graph):
        return parse_smiles(smiles)


def _permuted(graph, perm, rnd):
    """The graph renumbered so that atom k is the old atom perm[k].

    The bond list is shuffled and some bonds are written j-i, so the
    adjacency lists, and with them the order in which rings are found,
    change too.
    """
    new_index = {old: new for new, old in enumerate(perm)}
    bonds = [Bond(new_index[b.i], new_index[b.j], b.order)
             for b in graph.bonds]
    rnd.shuffle(bonds)
    bonds = [Bond(b.j, b.i, b.order) if rnd.random() < 0.5 else b
             for b in bonds]
    return MolecularGraph(atoms=[copy.copy(graph.atoms[old]) for old in perm],
                          bonds=bonds)


def _signature(graph, perm):
    """Per-atom (aromatic, H count) and per-bond order of a graph numbered
    by `perm`, read back in the numbering perm was drawn from."""
    atoms = [None] * len(graph)
    for new, old in enumerate(perm):
        atoms[old] = (graph.atoms[new].aromatic, graph.atoms[new].h_count)
    bonds = {tuple(sorted((perm[b.i], perm[b.j]))): b.order
             for b in graph.bonds}
    return atoms, bonds


def _assert_atom_order_invariant(graph, rnd):
    """Every atom and bond is perceived alike in shuffled atom orders."""
    identity = list(range(len(graph)))
    expected = _signature(_perceive(graph), identity)
    for _ in range(16):
        perm = identity[:]
        rnd.shuffle(perm)
        got = _perceive(_permuted(graph, perm, rnd))
        assert _signature(got, perm) == expected


def _decorated_graph(rnd, n, bonds):
    """Random elements and a random set of non-adjacent double bonds.

    C takes any bond order, N a double bond only at degree 2, O and S only
    single bonds at degree 2; atoms left without a double bond carry
    hydrogens, so some rings come out aromatic and some do not.
    """
    degree = [0] * n
    for i, j in bonds:
        degree[i] += 1
        degree[j] += 1
    elements = []
    for d in degree:
        pool = "CCCCNOS" if d == 2 else "CCCCN"
        elements.append(rnd.choice(pool))
    doubled = set()
    orders = []
    for i, j in bonds:
        ok = all(elements[a] == "C" or (elements[a] == "N" and degree[a] == 2)
                 for a in (i, j))
        if ok and not {i, j} & doubled and rnd.random() < 0.8:
            doubled |= {i, j}
            orders.append(2)
        else:
            orders.append(1)
    graph = MolecularGraph(atoms=[Atom(e) for e in elements],
                           bonds=[Bond(i, j, o)
                                  for (i, j), o in zip(bonds, orders)])
    return assign_implicit_hydrogens(graph)


class TestReferenceRingCode:
    """Aromaticity, H counts, bond orders, ring atoms and fingerprints agree
    with the minimum-cycle-basis / bridge-search code the package replaced."""

    @pytest.mark.parametrize("smiles", MOLECULES + [
        "C1=C[CH+]1",                 # 3-ring, 2 pi electrons
        "C1=CC=C[CH+]C=C1",           # tropylium, 7-ring
        "[CH-]1C=CC=C[CH-]C=C1",      # 8-ring, 10 pi electrons
        "[CH-]1C=CC=CC=CC=C1",        # 9-ring: too large, stays kekulized
        # fused 5-rings sharing N-C, each 6 pi on the Kekule input
        "C12=C(N3C(=C1)C=1C(=C3)C=CC1)OCC1=C2C=CC1",
    ])
    def test_molecules(self, smiles):
        _assert_matches_reference(_kekule_graph(smiles))

    @pytest.mark.parametrize("centers", [
        TERRYLENE_CENTERS, DBT_CENTERS, NEAR_DBT_A_CENTERS,
        NEAR_DBT_B_CENTERS,
    ], ids=["terrylene", "dbt", "near-a", "near-b"])
    def test_pah_fixtures(self, centers):
        _assert_matches_reference(pah_graph(centers))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7),
           st.booleans())
    def test_polyhex(self, rnd, n_cells, aromatic_input):
        n, bonds = _polyhex_topology(rnd, n_cells)
        if aromatic_input:
            graph = MolecularGraph(
                atoms=[Atom("C", aromatic=True) for _ in range(n)],
                bonds=[Bond(i, j, AROMATIC) for i, j in bonds])
        else:
            graph = _decorated_graph(rnd, n, bonds)
        _assert_matches_reference(graph)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 5))
    def test_fused_5_6_7(self, rnd, n_rings):
        _assert_matches_reference(_decorated_graph(rnd, *_fused_ring_topology(
            rnd, n_rings)))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 5))
    def test_fused_atom_order(self, rnd, n_rings):
        _assert_atom_order_invariant(
            _decorated_graph(rnd, *_fused_ring_topology(rnd, n_rings)), rnd)

    @pytest.mark.parametrize("smiles", MOLECULES)
    def test_molecules_atom_order(self, smiles):
        _assert_atom_order_invariant(_kekule_graph(smiles), random.Random(1))

    @pytest.mark.parametrize("smiles", [
        "C12=C(N3C(=C1)C=1C(=C3)C=CC1)OCC1=C2C=CC1",
        "C1=C2C(=CC3=C1C=CC=C3)NN1N(N2)OC=CN1",
        "C1=2N(OC=3N(O1)C=C1C3COC1)CN1C2C=CC1",
        "N12CN3C(N4N1N1N(C5=C4C=CCO5)NONN1NO2)OCOC3",
    ])
    def test_exclusive_rings_atom_order(self, smiles):
        """Fused rings that each count 4n+2 alone, but not once the other
        is marked aromatic, are marked whatever the atom order."""
        _assert_atom_order_invariant(_kekule_graph(smiles), random.Random(0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_molecules(self, seed):
        _assert_matches_reference(
            _kekule_graph(_random_molecule(np.random.default_rng(seed))))

    @pytest.mark.parametrize("smiles", [
        "C1CC2CCC1C2",            # norbornane
        "C1CC2CCC1CC2",           # bicyclo[2.2.2]octane
        "C12C3C4C1C5C2C3C45",     # cubane
        "C1=CC2C=CC1C=C2",        # barrelene
    ])
    def test_bridged_and_cage(self, smiles):
        g = parse_smiles(smiles)
        rings = smiles_module._chordless_rings(g.adjacency())
        assert len(rings) > len(nx.minimum_cycle_basis(_ref_nx_graph(g)))
        # the extra rings contain sp3 bridgeheads, for which
        # _pi_contribution returns None, so no ring is marked aromatic
        _assert_matches_reference(_kekule_graph(smiles))


# --- slow reference: the character scanner the token grammar replaced ------

_REF_ORGANIC_TWO = ("Cl", "Br")
_REF_ORGANIC_ONE = set("BCNOPSFI")
_REF_AROMATIC_ONE = set("bcnops")
_REF_BOND_CHARS = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}
_REF_ELEMENT_SYMBOLS = set(DEFAULT_VALENCES) | {
    "H", "He", "Li", "Be", "Ne", "Na", "Mg", "Al", "Si", "Ar", "K", "Ca",
    "Ti", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
}


def _ref_parse_bracket(text, start):
    """Parse a bracket atom starting at text[start] == '['. Returns (Atom, end).

    It raises on a body that ends in a one-letter element ([C], [13C],
    [2H]): the two-letter test matches the one-character slice at the end
    and steps past it.
    """
    pos = start + 1
    end = text.find("]", pos)
    if end < 0:
        raise SmilesParseError("unterminated bracket atom", start)
    body = text[pos:end]
    i = 0
    isotope = None
    while i < len(body) and body[i].isdigit():
        i += 1
    if i > 0:
        isotope = int(body[:i])
    aromatic = False
    if i < len(body) and body[i : i + 2] in _REF_ELEMENT_SYMBOLS:
        element = body[i : i + 2]
        i += 2
    elif (i < len(body) and body[i].upper() in _REF_ELEMENT_SYMBOLS
          and body[i].islower()):
        element = body[i].upper()
        aromatic = True
        i += 1
    elif i < len(body) and body[i] in _REF_ELEMENT_SYMBOLS:
        element = body[i]
        i += 1
    else:
        raise SmilesParseError(f"unknown element token in bracket '{body}'", start)
    while i < len(body) and body[i] == "@":
        i += 1
    h_count = 0
    if i < len(body) and body[i] == "H":
        i += 1
        j = i
        while j < len(body) and body[j].isdigit():
            j += 1
        h_count = int(body[i:j]) if j > i else 1
        i = j
    charge = 0
    while i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        j = i
        while j < len(body) and body[j].isdigit():
            j += 1
        if j > i:
            charge += sign * int(body[i:j])
            i = j
        else:
            charge += sign
    if i < len(body) and body[i] == ":":
        i = len(body)
    if i != len(body):
        raise SmilesParseError(f"unrecognized bracket content '{body[i:]}'",
                               start + 1 + i)
    atom = Atom(element=element, charge=charge, h_count=h_count,
                aromatic=aromatic, isotope=isotope, bracket=True)
    return atom, end + 1


def ref_parse_smiles(text):
    """parse_smiles as a character-by-character scanner, with the same
    steps after the grammar."""
    if not text or not text.strip():
        raise SmilesParseError("empty SMILES", 0)
    text = text.strip()
    graph = MolecularGraph(source=text)
    positions = {}
    prev = None
    pending_bond = None
    stack = []
    ring_open = {}
    bond_keys = set()
    pos = 0
    n = len(text)

    def add_atom(atom):
        graph.atoms.append(atom)
        idx = len(graph.atoms) - 1
        positions[idx] = pos
        return idx

    def connect(a, b, symbol, at):
        if symbol is None:
            ai, bi = graph.atoms[a], graph.atoms[b]
            order = AROMATIC if (ai.aromatic and bi.aromatic) else 1
        else:
            order = symbol
        key = (min(a, b), max(a, b))
        if key in bond_keys:
            raise SmilesParseError("duplicate bond", at)
        bond_keys.add(key)
        graph.bonds.append(Bond(a, b, order))

    while pos < n:
        ch = text[pos]
        if ch in _REF_BOND_CHARS:
            if pending_bond is not None:
                raise SmilesParseError("two bond symbols in a row", pos)
            pending_bond = _REF_BOND_CHARS[ch]
            pos += 1
            continue
        if ch == "(":
            if prev is None:
                raise SmilesParseError("branch with no preceding atom", pos)
            stack.append(prev)
            pos += 1
            continue
        if ch == ")":
            if not stack:
                raise SmilesParseError("unbalanced parentheses", pos)
            prev = stack.pop()
            pos += 1
            continue
        if ch == ".":
            if pending_bond is not None:
                raise SmilesParseError("bond symbol before dot disconnect", pos)
            prev = None
            pos += 1
            continue
        if ch.isdigit() or ch == "%":
            if prev is None:
                raise SmilesParseError("ring closure with no preceding atom", pos)
            if ch == "%":
                if pos + 2 >= n or not text[pos + 1 : pos + 3].isdigit():
                    raise SmilesParseError("malformed %nn ring closure", pos)
                num = int(text[pos + 1 : pos + 3])
                width = 3
            else:
                num = int(ch)
                width = 1
            if num in ring_open:
                other, sym, _ = ring_open.pop(num)
                if other == prev:
                    raise SmilesParseError("ring closure forms self-loop", pos)
                if sym is not None and pending_bond is not None and sym != pending_bond:
                    raise SmilesParseError("conflicting ring-closure bond orders", pos)
                connect(prev, other, sym if sym is not None else pending_bond, pos)
            else:
                ring_open[num] = (prev, pending_bond, pos)
            pending_bond = None
            pos += width
            continue
        if ch == "[":
            atom, newpos = _ref_parse_bracket(text, pos)
            idx = add_atom(atom)
            if prev is not None:
                connect(prev, idx, pending_bond, pos)
            pending_bond = None
            prev = idx
            pos = newpos
            continue
        if text[pos : pos + 2] in _REF_ORGANIC_TWO:
            atom = Atom(element=text[pos : pos + 2])
            width = 2
        elif ch in _REF_ORGANIC_ONE:
            atom = Atom(element=ch)
            width = 1
        elif ch in _REF_AROMATIC_ONE:
            atom = Atom(element=ch.upper(), aromatic=True)
            width = 1
        else:
            raise SmilesParseError(f"unknown element token '{ch}'", pos)
        idx = add_atom(atom)
        if prev is not None:
            connect(prev, idx, pending_bond, pos)
        pending_bond = None
        prev = idx
        pos += width

    if stack:
        raise SmilesParseError("unbalanced parentheses", n)
    if ring_open:
        num, (_, _, at) = next(iter(ring_open.items()))
        raise SmilesParseError(f"unmatched ring closure digit {num}", at)
    if pending_bond is not None:
        raise SmilesParseError("dangling bond symbol", n)

    assign_implicit_hydrogens(graph, positions)
    smiles_module.perceive_aromaticity(graph)
    assign_implicit_hydrogens(graph, positions)
    graph.validate()
    return graph


# the bracket bodies on which the reference scanner raises
_ONE_LETTER_BODY = re.compile(r"\[([0-9]*[A-Z])\]")


# a bracket atom whose atom class is not ':' and digits
_LOOSE_CLASS = re.compile(r"\[[^\]]*:(?![0-9]+\])[^\]]*\]")


def _no_class(text):
    """`text` with the atom class of each bracket atom removed."""
    return re.sub(r"(\[[^\]:]*):[^\]]*\]", r"\1]", text)


def _explicit_h0(text):
    """`text` with each one-letter bracket body spelled with its H count,
    [13C] as [13CH0], a form the reference scanner reads."""
    return _ONE_LETTER_BODY.sub(r"[\1H0]", text)

_SMILES_TOKENS = [
    "[", "]", *"0123456789", "%", "%10", "%01", *"-=#:/\\", "(", ")", ".",
    "+", "@", "H", *"BCNOPSFI", *"bcnops", "Cl", "Br",
]
_BRACKET_ATOMS = st.builds(
    "[{}{}{}{}{}]".format,
    st.sampled_from(["", "2", "13"]),
    st.sampled_from(["C", "N", "O", "S", "H", "F", "c", "n", "Cl", "Fe"]),
    st.sampled_from(["", "@", "@@"]),
    st.sampled_from(["", "H", "H2"]),
    st.sampled_from(["", "+", "-", "+2", "+-"]))


def _parsed(parse, text):
    """(atoms, bonds) of the parse, or "error" for any ValueError."""
    try:
        g = parse(text)
    except ValueError:
        return "error"
    return g.atoms, g.bonds


class TestTokenGrammar:
    """The token-pattern parser against the character scanner it
    replaced: equal graphs, or both raise ValueError."""

    @settings(max_examples=2000, deadline=None)
    @example("C%10CC0")
    @example("[13C]1CC1")
    @given(st.lists(st.one_of(st.sampled_from(_SMILES_TOKENS),
                              _BRACKET_ATOMS), max_size=14).map("".join))
    def test_matches_reference_scanner(self, text):
        got = _parsed(parse_smiles, text)
        ref = _parsed(ref_parse_smiles, text)
        if got != ref and got == "error" and _LOOSE_CLASS.search(text):
            # the reference takes everything after ':' as the atom class;
            # the grammar takes ':' and digits only. Without the class
            # both read the same
            assert _parsed(parse_smiles, _no_class(text)) == ref, text
        elif got != ref:
            # the other allowed difference: the reference raises on a
            # one-letter body, which then reads as its explicit H0 form
            assert ref == "error" and _ONE_LETTER_BODY.search(text), text
            assert got == _parsed(ref_parse_smiles, _explicit_h0(text)), text

    @pytest.mark.parametrize("text", ["[h]", "[k]", "C[f]", "[i]C",
                                      "C[C:x@+]C", "[C:]", "[CH4:1x]"])
    def test_bodies_the_reference_accepted(self, text):
        """Lowercase bracket elements are the aromatic ones only, and an
        atom class is ':' and digits, where the reference read [h] as
        aromatic H and [C:x@+] as a neutral C."""
        ref_parse_smiles(text)
        with pytest.raises(SmilesParseError, match="malformed bracket"):
            parse_smiles(text)

    def test_atom_class_digits(self):
        assert _parsed(parse_smiles, "[CH3:12][nH:1]") == _parsed(
            ref_parse_smiles, "[CH3:12][nH:1]")

    def test_refused_bracket_rows_are_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("id\tsmiles\na\tCCO\nb\t[h]\nc\tC[C:x@+]C\n"
                     "d\tC[CH2:7]C\n")
        entries, skipped = load_smiles_table(p)
        assert [e[0] for e in entries] == ["a", "d"] and skipped == 2

    @pytest.mark.parametrize("text", ["[C]", "[2H]c1ccccc1", "C[N]C",
                                      "C[13C]O", "[H][H]"])
    def test_one_letter_bodies_the_reference_refused(self, text):
        with pytest.raises(SmilesParseError):
            ref_parse_smiles(text)
        assert _parsed(parse_smiles, text) == _parsed(ref_parse_smiles,
                                                      _explicit_h0(text))


def test_long_chain_canonicalizes():
    """A chain longer than the recursion limit parses to its normal form,
    which perception leaves unchanged and which fingerprints."""
    n = 1100
    g = parse_smiles("C" * n)
    assert [a.h_count for a in g.atoms] == [3] + [2] * (n - 2) + [3]
    assert sorted((b.key(), b.order) for b in g.bonds) == [
        ((k, k + 1), 1) for k in range(n - 1)]
    assert _perceive(g).atoms == g.atoms
    assert morgan_fingerprint(g) == morgan_fingerprint(_permuted(
        g, list(range(n))[::-1], random.Random(0)))


class TestTanimotoMatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_matches_scalar_reference(self, seed, na, nb):
        rng = np.random.default_rng(seed)

        def fps(k):
            # rows range from empty to dense; two empty rows make a 0/0 pair
            return [Fingerprint(bits=rng.random(64) < rng.choice(
                [0.0, 0.05, 0.5, 1.0]), nbits=64, radius=2)
                for _ in range(k)]

        a, b = fps(na), fps(nb)
        m = tanimoto_matrix(a, b)
        assert m.shape == (na, nb)
        for i in range(na):
            for j in range(nb):
                assert m[i, j] == _ref_tanimoto(a[i], b[j])
                assert tanimoto_matrix([a[i]], [b[j]]) == \
                    [[tanimoto(a[i], b[j])]]

    def test_all_zero_pair(self):
        z = Fingerprint(bits=np.zeros(64, dtype=bool), nbits=64, radius=2)
        one = Fingerprint(bits=np.eye(64, dtype=bool)[3], nbits=64, radius=2)
        assert tanimoto_matrix([z, one], [z, one]).tolist() == \
            [[1.0, 0.0], [0.0, 1.0]]

    def test_nbits_mismatch(self):
        a = Fingerprint(bits=np.ones(64, dtype=bool), nbits=64, radius=2)
        b = Fingerprint(bits=np.ones(128, dtype=bool), nbits=128, radius=2)
        with pytest.raises(ValueError, match="length mismatch"):
            tanimoto_matrix([a], [a, b])
        with pytest.raises(ValueError, match="length mismatch"):
            tanimoto(a, b)


def test_cli_import_leaves_out_networkx():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spescreen.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, spescreen.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
