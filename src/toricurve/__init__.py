"""Exact construction and certification of rational-curve embeddings
into smooth projective toric 3-folds.

Import each name from its module (``from toricurve.verify import certify``),
so a process loads only the modules its command runs: ``embed`` never
loads verify.
"""

__version__ = "0.1.0"
