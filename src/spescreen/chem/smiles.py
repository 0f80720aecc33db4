"""SMILES parsing and aromaticity perception.

Supported grammar: the organic subset (B C N O P S F Cl Br I and the
aromatic forms b c n o p s), bracket atoms with isotope/charge/H-count,
bond symbols - = # :, branches, ring closures including %nn, and the dot
disconnect. Stereo markers (/ \\ @ @@) are consumed and discarded: they
carry no geometric meaning here.
"""

from __future__ import annotations

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


_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = set("BCNOPSFI")
_AROMATIC_ONE = set("bcnops")
_BOND_CHARS = {"-": 1, "=": 2, "#": 3, ":": AROMATIC, "/": 1, "\\": 1}

_ELEMENT_SYMBOLS = set(DEFAULT_VALENCES) | {
    "H", "He", "Li", "Be", "Ne", "Na", "Mg", "Al", "Si", "Ar", "K", "Ca",
    "Ti", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
}


def _parse_bracket(text, start):
    """Parse a bracket atom starting at text[start] == '['. Returns (Atom, end)."""
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
    # element symbol (aromatic lowercase allowed for single letters)
    aromatic = False
    if i < len(body) and body[i : i + 2] in _ELEMENT_SYMBOLS:
        element = body[i : i + 2]
        i += 2
    elif i < len(body) and body[i].upper() in _ELEMENT_SYMBOLS and body[i].islower():
        element = body[i].upper()
        aromatic = True
        i += 1
    elif i < len(body) and body[i] in _ELEMENT_SYMBOLS:
        element = body[i]
        i += 1
    else:
        raise SmilesParseError(f"unknown element token in bracket '{body}'", start)
    # chirality markers: consumed, not interpreted
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
        # atom class: consumed and discarded
        i = len(body)
    if i != len(body):
        raise SmilesParseError(f"unrecognized bracket content '{body[i:]}'", start + 1 + i)
    atom = Atom(element=element, charge=charge, h_count=h_count,
                aromatic=aromatic, isotope=isotope, bracket=True)
    return atom, end + 1


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
        if ch in _BOND_CHARS:
            if pending_bond is not None:
                raise SmilesParseError("two bond symbols in a row", pos)
            pending_bond = _BOND_CHARS[ch]
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
            atom, newpos = _parse_bracket(text, pos)
            idx = add_atom(atom)
            if prev is not None:
                connect(prev, idx, pending_bond, pos)
            pending_bond = None
            prev = idx
            pos = newpos
            continue
        # organic-subset atom
        if text[pos : pos + 2] in _ORGANIC_TWO:
            atom = Atom(element=text[pos : pos + 2])
            width = 2
        elif ch in _ORGANIC_ONE:
            atom = Atom(element=ch)
            width = 1
        elif ch in _AROMATIC_ONE:
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
    perceive_aromaticity(graph)
    assign_implicit_hydrogens(graph, positions)
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
    """
    adj = graph.adjacency()
    rings = _chordless_rings(adj)

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
