"""Candidate labeling, dimensionality reduction, and classification."""
