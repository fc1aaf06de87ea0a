"""Exact-arithmetic toolkit for finite ultrametric spaces.

Spaces carry rational distance matrices validated against the strong triangle
inequality; on top of that sit dendrogram conversion and isometry testing,
Hausdorff distances between subsets, amalgamation along common subspaces, the
Gromov-Hausdorff ultrametric with constructive certificates, and generators
for the standard counterexample families.

Public names are imported from their home module on first access (PEP 562),
so ``import ultrametric`` stays cheap and a CLI job loads only what its verb
uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    "Certificate": "certificates",
    "ChainGlueResult": "amalgam",
    "GlueSpec": "amalgam",
    "Leaf": "dendrogram",
    "Membership": "generators",
    "Merge": "dendrogram",
    "Node": "dendrogram",
    "ORACLE_MAX_POINTS": "oracle",
    "QuotientSpace": "builders",
    "SpectrumConstraint": "generators",
    "UghResult": "gromov",
    "UltrametricError": "errors",
    "UltrametricSpace": "spaces",
    "as_rational": "rationals",
    "cauchy_sequence": "generators",
    "certificate": "certificates",
    "chain_glue": "amalgam",
    "closed_quotient": "builders",
    "crowd_family": "generators",
    "disjoint_amalgam": "amalgam",
    "encoding": "dendrogram",
    "epsilon_net": "hyperspace",
    "format_rational": "rationals",
    "from_dendrogram": "dendrogram",
    "glue": "amalgam",
    "hausdorff_distance": "hyperspace",
    "in_uk": "generators",
    "isometric": "dendrogram",
    "isometry_witness": "dendrogram",
    "merge_duplicate_points": "spaces",
    "parse_rational": "rationals",
    "random_space": "generators",
    "restrict": "hyperspace",
    "single_linkage": "linkage",
    "spectrum": "spaces",
    "spectrum_agreement": "gromov",
    "spectrum_constraint": "generators",
    "to_dendrogram": "dendrogram",
    "two_point_space": "generators",
    "ugh_distance": "gromov",
    "ugh_oracle": "oracle",
    "validate_ultrametric": "spaces",
    "verify_certificate": "certificates",
}

__all__ = list(_HOME)


def _forward(module, homes):
    """A PEP 562 ``__getattr__`` for ``module`` that imports each name of ``homes``
    from the sibling module the table gives; only the package binds the name."""

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(f".{homes[name]}", __name__), name)
        if module == __name__:
            globals()[name] = value
        return value

    return __getattr__


__getattr__ = _forward(__name__, _HOME)


def __dir__():
    return sorted(set(globals()) | set(__all__))
