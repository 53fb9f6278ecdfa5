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
    ("avoids", "f_insert", "f_uninsert", "phi", "phi_inverse", "psi"), "bijections")


def __getattr__(name):
    """A submodule by its name, or a name of `__all__` from its home module."""
    home = _HOMES.get(name, name)
    if home.isidentifier():  # importing a dotted or empty name raises for another module
        try:
            module = importlib.import_module(f"{__name__}.{home}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{home}":
                raise
        else:
            return module if home == name else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
