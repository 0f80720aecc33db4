"""Circular (Morgan-style) fingerprints and similarity measures.

The per-atom environment hash is a stable 64-bit blake2b digest over a
canonical invariant tuple, so fingerprints are deterministic across runs
and atom orderings. Bit patterns are not expected to match any particular
cheminformatics toolkit bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import AROMATIC, MolecularGraph
from .smiles import SmilesParseError, parse_smiles

_BOND_RANK = {1: 1, 2: 2, 3: 3, AROMATIC: 4}
# Tanimoto cut-offs the similarity summary reports fractions at
SIMILARITY_THRESHOLDS = (0.4, 0.5)


def _stable_hash(obj) -> int:
    data = repr(obj).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass
class Fingerprint:
    bits: np.ndarray  # boolean vector of length nbits
    nbits: int
    radius: int

    def __eq__(self, other):
        return (
            isinstance(other, Fingerprint)
            and self.nbits == other.nbits
            and self.radius == other.radius
            and bool(np.array_equal(self.bits, other.bits))
        )


def morgan_fingerprint(graph: MolecularGraph, radius: int = 2,
                       nbits: int = 1024, *, memo=None) -> Fingerprint:
    """Hash circular atom environments of depth 0..radius into a bit vector.

    `memo` maps each invariant tuple already hashed to its hash; pass one
    dict to the fingerprints of a table so that an environment met again
    is not hashed again. Each position of a tuple has one fixed type, so
    equal keys have equal reprs (True == 1 as a dict key, so no position
    mixes bool and int). Without it, each call starts a dict of its own.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if nbits < 8 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two >= 8")
    if memo is None:
        memo = {}

    def hashed(key):
        h = memo.get(key)
        if h is None:
            h = memo[key] = _stable_hash(key)
        return h

    ring_atoms = graph.ring_atoms()
    neighbors = graph.adjacency()
    invariants = [hashed((
        a.element, len(neighbors[i]), a.h_count, a.charge,
        i in ring_atoms, a.aromatic, a.isotope or 0,
    )) for i, a in enumerate(graph.atoms)]
    bits = np.zeros(nbits, dtype=bool)
    for h in invariants:
        bits[h % nbits] = True
    for _ in range(radius):
        invariants = [hashed((invariants[i], tuple(sorted(
            (_BOND_RANK[b.order], invariants[j]) for j, b in neighbors[i]
        )))) for i in range(len(graph))]
        for h in invariants:
            bits[h % nbits] = True
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def _bit_matrix(fps, nbits):
    """Stack fingerprints into a float64 (len(fps), nbits) 0/1 matrix."""
    for fp in fps:
        if fp.nbits != nbits:
            raise ValueError(
                f"fingerprint length mismatch: {nbits} vs {fp.nbits}")
    return np.array([fp.bits for fp in fps],
                    dtype=np.float64).reshape(len(fps), nbits)


def tanimoto_matrix(fps_a, fps_b) -> np.ndarray:
    """Tanimoto similarity c/(a+b-c) of every pair, as a (len_a, len_b) array.

    The common-bit counts come from one float64 product of the bit
    matrices, which is exact because every count is at most nbits, far
    below 2**53. Two empty fingerprints count as 1. Passed the same list
    twice, it builds the bit matrix once.
    """
    same = fps_a is fps_b
    fps_a = list(fps_a)
    fps_b = fps_a if same else list(fps_b)
    nbits = next((fp.nbits for fp in fps_a + fps_b), 0)
    a = _bit_matrix(fps_a, nbits)
    b = a if same else _bit_matrix(fps_b, nbits)
    common = a @ b.T
    counts_a = a.sum(axis=1)
    counts_b = counts_a if same else b.sum(axis=1)
    union = counts_a[:, None] + counts_b[None, :] - common
    return np.divide(common, union, out=np.ones_like(common),
                     where=union > 0)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """Bit-vector similarity c/(a+b-c); two empty fingerprints count as 1."""
    return float(tanimoto_matrix([a], [b])[0, 0])


def rank_by_similarity(reference: Fingerprint, database):
    """Rank (id, Fingerprint) entries by Tanimoto similarity to a reference.

    Returns a descending list of (id, similarity); ties break by id.
    """
    entries = list(database)
    if not entries:
        raise ValueError("empty fingerprint database")
    sims = tanimoto_matrix([reference], [fp for _, fp in entries])[0]
    scored = [(str(eid), float(sim)) for (eid, _), sim in zip(entries, sims)]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


def similarity_summary(ranked) -> dict:
    """Fractions of a ranked (id, similarity) list at or below each of the
    SIMILARITY_THRESHOLDS."""
    sims = np.array([s for _, s in ranked], dtype=float)
    summary = {"count": int(sims.size)}
    for t in SIMILARITY_THRESHOLDS:
        frac = float((sims <= t).mean()) if sims.size else 0.0
        summary[f"fraction_at_or_below_{t}"] = frac
    return summary


def load_smiles_table(path):
    """Load and parse an (id, smiles) table from a TSV/CSV file.

    Rows whose SMILES fail to parse are skipped and counted.
    Returns (entries, skipped) with entries a list of (id, MolecularGraph);
    each graph's `source` holds its SMILES text.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        if not sample.strip():
            return [], 0
        delimiter = "\t" if "\t" in sample.splitlines()[0] else ","
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            return [], 0
        fields = {f.strip().lower(): f for f in reader.fieldnames}
        if "id" not in fields or "smiles" not in fields:
            raise ValueError(
                f"expected columns 'id' and 'smiles', got {reader.fieldnames}"
            )
        entries = []
        skipped = 0
        for row in reader:
            eid = (row[fields["id"]] or "").strip()
            smi = (row[fields["smiles"]] or "").strip()
            if not eid and not smi:
                continue
            try:
                graph = parse_smiles(smi)
            except (SmilesParseError, ValueError):
                skipped += 1
                continue
            entries.append((eid, graph))
    return entries, skipped
