"""Exact desk-scale computations in coarse geometry on finitely generated groups."""

__version__ = "0.1.0"
