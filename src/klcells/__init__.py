"""Exact Kazhdan-Lusztig cells for finite Coxeter groups with unequal
parameters, rank-1 Calogero-Moser cell data, and cross-checks between
the two."""

__version__ = "0.1.0"
