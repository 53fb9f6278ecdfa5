"""Permutation statistics, equidistribution bijections, and an exhaustive
verification harness.

Words are tuples of distinct naturals in one-line notation; permutations of
size n use the letters 1..n. See `permstat.stats` for the statistic registry,
`permstat.bijections` for phi and psi, and `permstat.equidist` for the
enumeration and verification engine.
"""
from . import bijections, core, equidist, stats
from .bijections import avoids, f_insert, f_uninsert, phi, phi_inverse, psi
from .equidist import verify_suite
from .stats import REGISTRY

__all__ = [
    "REGISTRY",
    "avoids",
    "bijections",
    "core",
    "equidist",
    "f_insert",
    "f_uninsert",
    "phi",
    "phi_inverse",
    "psi",
    "stats",
    "verify_suite",
]
