"""SMILES parsing and aromaticity perception.

Supported grammar: the organic-subset SMILES of Weininger (J. Chem. Inf.
Comput. Sci. 28:31, 1988). It lives in `_TOKEN`, one named group per
token kind, and `_BRACKET`, the body of a bracket atom: an isotope, a
one- or two-letter element (lowercase: one of the aromatic elements b c n
o p s), chirality marks, an H count, charges and an atom class (':' and
digits). Stereo markers (/ \\ @ @@) and atom classes are consumed and
discarded: they carry no meaning here.
"""

from __future__ import annotations

import re

from .graph import (
    AROMATIC,
    AROMATIC_ELEMENTS,
    Atom,
    Bond,
    DEFAULT_VALENCES,
    MolecularGraph,
    assign_implicit_hydrogens,
)


class SmilesParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at character {position})")
        self.position = position


_BOND_CHARS = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}

_ELEMENT_SYMBOLS = set(DEFAULT_VALENCES) | {
    "H", "He", "Li", "Be", "Ne", "Na", "Mg", "Al", "Si", "Ar", "K", "Ca",
    "Ti", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
}
_ONE_LETTER = "".join(sorted(e for e in _ELEMENT_SYMBOLS if len(e) == 1))
_TWO_LETTER = "|".join(sorted(e for e in _ELEMENT_SYMBOLS if len(e) == 2))
_AROMATIC = "".join(sorted(AROMATIC_ELEMENTS)).lower()

# Every character starts exactly one token; `other` catches the rest.
_TOKEN = re.compile(rf"""
    (?P<bracket>\[[^\]]*\])
  | (?P<unterminated>\[)
  | (?P<organic>Cl|Br|[BCNOPSFI])
  | (?P<aromatic>[{_AROMATIC}])
  | (?P<bond>[-=#:/\\])
  | (?P<open>\()
  | (?P<close>\))
  | (?P<dot>\.)
  | (?P<ring>[0-9]|%[0-9][0-9])
  | (?P<percent>%)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

# charges are signs with optional magnitudes, summed; the atom class is
# ':' and digits
_BRACKET = re.compile(
    r"(?P<isotope>[0-9]+)?"
    rf"(?:(?P<element>{_TWO_LETTER}|[{_ONE_LETTER}])"
    rf"|(?P<aromatic>[{_AROMATIC}]))"
    r"@*(?P<h>H[0-9]*)?(?P<charge>(?:[+-][0-9]*)*)(?::[0-9]+)?")
_CHARGE = re.compile(r"([+-])([0-9]*)")


def _bracket_atom(token, start):
    """The Atom of a bracket token such as '[13CH4]' found at `start`."""
    m = _BRACKET.fullmatch(token, 1, len(token) - 1)
    if m is None:
        raise SmilesParseError(f"malformed bracket atom '{token}'", start)
    isotope, h = m["isotope"], m["h"]
    return Atom(element=m["element"] or m["aromatic"].upper(),
                charge=sum(int(sign + (size or "1"))
                           for sign, size in _CHARGE.findall(m["charge"])),
                h_count=int(h[1:] or 1) if h else 0,
                aromatic=m["aromatic"] is not None,
                isotope=None if isotope is None else int(isotope),
                bracket=True)


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Implicit hydrogens are completed by standard organic-subset valence
    rules and kekulized aromatic rings are perceived via a Hueckel 4n+2
    test, so 'c1ccccc1' and 'C1=CC=CC=C1' yield the same graph.
    """
    if not text or not text.strip():
        raise SmilesParseError("empty SMILES", 0)
    text = text.strip()
    graph = MolecularGraph(source=text)
    positions = {}
    prev = None          # previous atom index
    pending_bond = None  # explicit bond symbol awaiting use
    stack = []
    ring_open = {}       # closure number -> (atom index, bond symbol, char pos)
    bond_keys = set()

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

    for m in _TOKEN.finditer(text):
        kind, token, pos = m.lastgroup, m.group(), m.start()
        if kind == "bond":
            if pending_bond is not None:
                raise SmilesParseError("two bond symbols in a row", pos)
            pending_bond = _BOND_CHARS[token]
        elif kind == "open":
            if prev is None:
                raise SmilesParseError("branch with no preceding atom", pos)
            stack.append(prev)
        elif kind == "close":
            if not stack:
                raise SmilesParseError("unbalanced parentheses", pos)
            prev = stack.pop()
        elif kind == "dot":
            if pending_bond is not None:
                raise SmilesParseError("bond symbol before dot disconnect", pos)
            prev = None
        elif kind in ("ring", "percent"):
            if prev is None:
                raise SmilesParseError("ring closure with no preceding atom", pos)
            if kind == "percent":
                raise SmilesParseError("malformed %nn ring closure", pos)
            num = int(token.lstrip("%"))
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
        elif kind == "unterminated":
            raise SmilesParseError("unterminated bracket atom", pos)
        elif kind == "other":
            raise SmilesParseError(f"unknown element token '{token}'", pos)
        else:
            if kind == "bracket":
                atom = _bracket_atom(token, pos)
            elif kind == "organic":
                atom = Atom(element=token)
            else:
                atom = Atom(element=token.upper(), aromatic=True)
            graph.atoms.append(atom)
            idx = len(graph.atoms) - 1
            positions[idx] = pos
            if prev is not None:
                connect(prev, idx, pending_bond, pos)
            pending_bond = None
            prev = idx

    if stack:
        raise SmilesParseError("unbalanced parentheses", len(text))
    if ring_open:
        num, (_, _, at) = next(iter(ring_open.items()))
        raise SmilesParseError(f"unmatched ring closure digit {num}", at)
    if pending_bond is not None:
        raise SmilesParseError("dangling bond symbol", len(text))

    # perception changes bond orders only, so one adjacency serves both
    # hydrogen passes
    adj = graph.adjacency()
    assign_implicit_hydrogens(graph, positions, adj)
    perceive_aromaticity(graph)
    assign_implicit_hydrogens(graph, positions, adj)
    graph.validate()
    return graph


def _pi_contribution(atom, nbrs):
    """Electrons an atom donates to a candidate aromatic ring, or None."""
    if atom.element not in AROMATIC_ELEMENTS:
        return None
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


_MAX_RING = 8


def _chordless_rings(adj):
    """Every chordless ring of 3 to 8 atoms, as (atoms, bonds) lists.

    A bounded DFS from each ring's lowest-index atom s walks chordless
    paths over atoms above s: an atom may join a path only when none of
    its neighbours lies on it except the path's end and s. An atom bonded
    to s closes the ring, and the walk stops there, since that bond would
    otherwise be a chord. Each ring is walked in both directions; the
    direction whose second atom is below its last atom is kept.

    `adj` may be the adjacency of a whole graph or one restricted to some
    connected components of its 2-core (atoms outside them left with no
    neighbours): since every ring lies inside one such component, the
    rings of the components kept come out as the whole graph's search
    finds them, in the same order.
    """
    nbr_sets = [{j for j, _ in nbrs} for nbrs in adj]
    rings = []

    def extend(path, on_path, bonds):
        s, end = path[0], path[-1]
        for w, b in adj[end]:
            if w <= s or w in on_path:
                continue
            touching = nbr_sets[w] & on_path
            if not touching <= {s, end}:
                continue
            if s in touching:
                if path[1] < w:
                    closing = next(c for j, c in adj[w] if j == s)
                    rings.append((path + [w], bonds + [b, closing]))
            elif len(path) + 1 < _MAX_RING:
                extend(path + [w], on_path | {w}, bonds + [b])

    for s, nbrs in enumerate(adj):
        for v, b in nbrs:
            if v > s:
                extend([s, v], {s, v}, [b])
    return rings


def _ring_search_adjacency(graph, adj):
    """`adj` restricted to the 2-core components that hold a non-aromatic
    atom, or None when there is none.

    The 2-core is what is left after atoms of degree < 2 are stripped until
    none is left; every ring lies inside it. A component whose atoms are
    all aromatic holds only rings that perception skips, so it is dropped:
    chains and aromatic-written ring systems need no ring search.
    """
    degree = [len(nbrs) for nbrs in adj]
    in_core = [True] * len(adj)
    stack = [i for i, d in enumerate(degree) if d < 2]
    while stack:
        i = stack.pop()
        if not in_core[i]:
            continue
        in_core[i] = False
        for j, _ in adj[i]:
            degree[j] -= 1
            if in_core[j] and degree[j] < 2:
                stack.append(j)
    searched = [False] * len(adj)
    seen = [not core for core in in_core]
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        component, stack = [], [root]
        while stack:
            i = stack.pop()
            component.append(i)
            for j, _ in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        if not all(graph.atoms[i].aromatic for i in component):
            for i in component:
                searched[i] = True
    if not any(searched):
        return None
    return [[(j, b) for j, b in nbrs if searched[j]] if searched[i] else []
            for i, nbrs in enumerate(adj)]


def perceive_aromaticity(graph: MolecularGraph):
    """Mark Hueckel 4n+2 simple rings aromatic (atoms and ring bonds).

    Candidate rings are all chordless rings of 3 to 8 atoms. Passes repeat
    until no ring changes, because marking one ring can complete the pi
    count of a fused neighbour. Each pass judges every ring on the graph
    as the pass found it and marks the qualifying rings together, so the
    result does not depend on the order of the rings or of the atoms:
    judged one after another, two fused rings that each count 4n+2 on the
    Kekule input can disqualify each other, and which one stays aromatic
    would follow the atom numbering. In bridged and cage systems (norbornane,
    cubane) this set is larger than a minimum cycle basis; the extra rings
    there run through sp3 bridgeheads, which donate no pi electrons. This
    is deliberately simple-ring perception, enough to unify kekulized and
    aromatic spellings of fused polycyclic systems.

    A ring whose atoms are all aromatic is skipped by every pass, and
    aromaticity is only ever added, so rings are searched only in the
    2-core components that hold a non-aromatic atom
    (`_ring_search_adjacency`): chains and aromatic-written ring systems
    skip the search, Kekule-written ones take it, with the same result.
    """
    adj = graph.adjacency()
    search = _ring_search_adjacency(graph, adj)
    rings = [] if search is None else _chordless_rings(search)

    while True:
        passing = []
        for ring, ring_bonds in rings:
            if all(graph.atoms[i].aromatic for i in ring):
                continue
            pis = [_pi_contribution(graph.atoms[i], adj[i]) for i in ring]
            if any(p is None for p in pis):
                continue
            if sum(pis) % 4 != 2:
                continue
            passing.append((ring, ring_bonds))
        if not passing:
            break
        for ring, ring_bonds in passing:
            for i in ring:
                graph.atoms[i].aromatic = True
            for b in ring_bonds:
                b.order = AROMATIC
    # bonds written ':' or defaulted to aromatic between already-aromatic
    # bracket atoms may sit outside a perceived ring; keep validate() happy
    for b in graph.bonds:
        if b.order == AROMATIC:
            graph.atoms[b.i].aromatic = True
            graph.atoms[b.j].aromatic = True
    return graph
