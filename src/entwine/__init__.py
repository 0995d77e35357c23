"""Exact-arithmetic toolkit for entwining structures.

Algebras, coalgebras and entwinings between them; entwined modules and
entwined contramodules; measurings between entwinings and the induction,
cotensor and cohom constructions they generate; Galois data; decision
procedures for separability, Frobenius properties, cointegrals and
Maschke-type splittings.  All arithmetic is exact, over Q or F_p.
"""

from .exactlin import Field, Mat, kron, flip
from .report import Check, Report

__all__ = [
    "Field", "Mat", "kron", "flip",
    "Check", "Report",
]

__version__ = "0.1.0"
