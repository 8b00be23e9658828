"""Clique-core ((k, psi_h)-core) decomposition by min-degree peeling."""

from .clique_core import Peel, peel

__all__ = ["Peel", "peel"]
