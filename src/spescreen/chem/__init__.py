from .graph import AROMATIC, Atom, Bond, MolecularGraph
from .smiles import SmilesParseError, parse_smiles
from .fingerprint import (
    Fingerprint,
    load_smiles_table,
    morgan_fingerprint,
    rank_by_similarity,
    similarity_summary,
    tanimoto,
    tanimoto_matrix,
)

__all__ = [
    "AROMATIC", "Atom", "Bond", "MolecularGraph",
    "SmilesParseError", "parse_smiles",
    "Fingerprint", "load_smiles_table", "morgan_fingerprint",
    "rank_by_similarity", "similarity_summary", "tanimoto", "tanimoto_matrix",
]
