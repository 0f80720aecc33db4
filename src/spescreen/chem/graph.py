"""Molecular graph representation built from SMILES input.

Atoms carry element, charge, hydrogen count, aromaticity and optional
isotope; bonds carry integer orders or the aromatic marker. Hydrogens are
implicit (counted, not instantiated as graph nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

AROMATIC = "ar"

# Allowed valences for implicit-hydrogen completion (organic subset).
DEFAULT_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

AROMATIC_ELEMENTS = {"B", "C", "N", "O", "P", "S"}


@dataclass
class Atom:
    element: str
    charge: int = 0
    h_count: int = 0
    aromatic: bool = False
    isotope: int | None = None
    bracket: bool = False  # written in brackets -> H count is explicit


@dataclass
class Bond:
    i: int
    j: int
    order: object  # 1, 2, 3 or AROMATIC

    def key(self):
        return (min(self.i, self.j), max(self.i, self.j))


@dataclass
class MolecularGraph:
    atoms: list = field(default_factory=list)
    bonds: list = field(default_factory=list)
    source: str = ""

    def __len__(self):
        return len(self.atoms)

    def adjacency(self):
        """Per-atom lists of (neighbour index, bond) pairs, in bond order."""
        adj = [[] for _ in self.atoms]
        for b in self.bonds:
            adj[b.i].append((b.j, b))
            adj[b.j].append((b.i, b))
        return adj

    def ring_bond_keys(self):
        """Keys of bonds lying on at least one cycle (non-bridge edges).

        Iterative Tarjan bridge search: the DFS tree bond from p into v is
        a bridge when no back edge from v's subtree reaches p or an
        ancestor of p (low[v] > disc[p]).
        """
        adj = self.adjacency()
        disc = [-1] * len(adj)
        low = [0] * len(adj)
        bridges = set()
        clock = 0
        for root in range(len(adj)):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = clock
            clock += 1
            stack = [(root, None, iter(adj[root]))]
            while stack:
                v, via, edges = stack[-1]
                for w, b in edges:
                    if b is via:
                        continue
                    if disc[w] < 0:
                        disc[w] = low[w] = clock
                        clock += 1
                        stack.append((w, b, iter(adj[w])))
                        break
                    low[v] = min(low[v], disc[w])
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[v])
                        if low[v] > disc[parent]:
                            bridges.add(via.key())
        return {b.key() for b in self.bonds} - bridges

    def ring_atoms(self):
        keys = self.ring_bond_keys()
        atoms = set()
        for i, j in keys:
            atoms.add(i)
            atoms.add(j)
        return atoms

    def validate(self):
        n = len(self.atoms)
        seen = set()
        for b in self.bonds:
            if not (0 <= b.i < n and 0 <= b.j < n):
                raise ValueError(f"bond ({b.i},{b.j}) references invalid atom index")
            if b.i == b.j:
                raise ValueError(f"self-loop bond on atom {b.i}")
            if b.key() in seen:
                raise ValueError(f"duplicate bond {b.key()}")
            seen.add(b.key())
            if b.order == AROMATIC:
                if not (self.atoms[b.i].aromatic and self.atoms[b.j].aromatic):
                    raise ValueError(
                        f"aromatic bond {b.key()} joins non-aromatic atom"
                    )
        for idx, a in enumerate(self.atoms):
            if a.h_count < 0:
                raise ValueError(f"negative hydrogen count on atom {idx}")
        return self


def bond_order_sum(atom: Atom, nbrs) -> float:
    """Valence consumed by explicit bonds, with the aromatic-system correction.

    `nbrs` is the atom's (neighbour, bond) list from `adjacency()`.
    Aromatic C/N/B/P atoms contribute one delocalized pi bond on top of
    their sigma framework; aromatic O/S donate a lone pair instead.
    """
    if atom.aromatic:
        sigma = len(nbrs)
        if atom.element in ("O", "S"):
            return sigma
        return sigma + 1
    total = 0
    for _, b in nbrs:
        total += 1.5 if b.order == AROMATIC else b.order
    return total


def assign_implicit_hydrogens(graph: MolecularGraph, positions=None,
                              adj=None):
    """Fill in h_count for non-bracket atoms by lowest-fitting valence.

    `positions` optionally maps atom index -> character position in the
    source text, used for error reporting. `adj` is the graph's
    `adjacency()`, built here when not given.
    """
    if adj is None:
        adj = graph.adjacency()
    for idx, atom in enumerate(graph.atoms):
        if atom.bracket:
            continue
        valences = DEFAULT_VALENCES.get(atom.element)
        if valences is None:
            atom.h_count = 0
            continue
        used = bond_order_sum(atom, adj[idx])
        for v in valences:
            if used <= v:
                atom.h_count = int(round(v - used))
                break
        else:
            pos = positions.get(idx) if positions else None
            loc = f" at position {pos}" if pos is not None else ""
            raise ValueError(
                f"valence overflow on {atom.element} atom {idx}{loc}: "
                f"bond order sum {used} exceeds {max(valences)}"
            )
    return graph
