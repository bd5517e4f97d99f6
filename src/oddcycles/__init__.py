"""Minimum odd-length zero-sum cycles of equal-magnitude lattice vectors."""

__version__ = "0.1.0"
