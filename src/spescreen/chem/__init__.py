from .graph import AROMATIC, Atom, Bond, MolecularGraph
from .smiles import (
    SmilesParseError,
    canonical_smiles,
    canonicalize,
    parse_smiles,
    write_smiles,
)
from .fingerprint import (
    Fingerprint,
    linear_kernel_similarity,
    load_smiles_table,
    morgan_fingerprint,
    rank_by_similarity,
    similarity_summary,
    tanimoto,
    tanimoto_matrix,
)

__all__ = [
    "AROMATIC", "Atom", "Bond", "MolecularGraph",
    "SmilesParseError", "canonical_smiles", "canonicalize", "parse_smiles",
    "write_smiles",
    "Fingerprint", "linear_kernel_similarity", "load_smiles_table",
    "morgan_fingerprint", "rank_by_similarity", "similarity_summary",
    "tanimoto", "tanimoto_matrix",
]
