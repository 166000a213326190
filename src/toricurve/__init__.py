"""Exact construction and certification of rational-curve embeddings
into smooth projective toric 3-folds.

Import each name from its module (``from toricurve.verify import certify``):
the package re-exports nothing.
"""

__version__ = "0.1.0"
