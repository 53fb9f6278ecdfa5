"""Permutation statistics, equidistribution bijections, and an exhaustive
verification harness.

Words are tuples of distinct naturals in one-line notation; permutations of
size n use the letters 1..n. See `permstat.stats` for the statistic registry,
`permstat.bijections` for phi and psi, and `permstat.equidist` for the
enumeration and verification engine.

Importing the package loads no submodule. Each one, and each name of
`__all__`, is imported from its module the first time it is read (PEP 562),
so a caller of `stats` or `bijections` alone never compiles the engine.
"""
import importlib

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

_HOMES = {"REGISTRY": "stats", "verify_suite": "equidist"} | dict.fromkeys(
    ("avoids", "f_insert", "f_uninsert", "phi", "phi_inverse", "psi"), "bijections") | {
    module: module for module in ("bijections", "cli", "core", "equidist", "errors", "stats")}


def __getattr__(name):
    """A submodule by its name, or a name of `__all__` from its home module."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    return module if _HOMES[name] == name else getattr(module, name)
