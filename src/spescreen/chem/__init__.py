"""Molecular graphs, SMILES parsing, and Morgan fingerprints."""
