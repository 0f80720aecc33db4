"""
Fingerprint similarity screening
================================

Rank a small molecule table against a naphthalene reference, the same
workflow the `spescreen similarity` subcommand wraps.
"""

# parse each SMILES string into a molecular graph, hash circular atom
# environments into bit vectors, then compare with the Tanimoto index
from spescreen.chem.fingerprint import (
    morgan_fingerprint,
    rank_by_similarity,
    similarity_summary,
    tanimoto,
)
from spescreen.chem.smiles import parse_smiles

TABLE = [
    ("naphthalene", "c1ccc2ccccc2c1"),
    ("anthracene", "c1ccc2cc3ccccc3cc2c1"),
    ("biphenyl", "c1ccc(cc1)-c1ccccc1"),
    ("benzene", "c1ccccc1"),
    ("thiophene", "c1ccsc1"),
    ("cyclohexane", "C1CCCCC1"),
    ("acetone", "CC(C)=O"),
    ("pentane", "CCCCC"),
]

reference = morgan_fingerprint(parse_smiles("c1ccc2ccccc2c1"))

# rank the whole table against the reference
database = [
    (name, morgan_fingerprint(parse_smiles(smiles))) for name, smiles in TABLE
]
ranked = rank_by_similarity(reference, database)

print("Tanimoto ranking vs naphthalene:")
for name, sim in ranked:
    print(f"  {name:12s} {sim:.3f}")

# threshold statistics of the kind quoted for large screening tables
summary = similarity_summary(ranked)
print(f"\nentries: {summary['count']}")
print(f"fraction at or below 0.4: {summary['fraction_at_or_below_0.4']:.2f}")
print(f"fraction at or below 0.5: {summary['fraction_at_or_below_0.5']:.2f}")

# the index is symmetric and exactly 1 on identity
fp_a = morgan_fingerprint(parse_smiles("c1ccccc1"))
fp_b = morgan_fingerprint(parse_smiles("c1ccsc1"))
assert tanimoto(fp_a, fp_b) == tanimoto(fp_b, fp_a)
assert tanimoto(fp_a, fp_a) == 1.0
