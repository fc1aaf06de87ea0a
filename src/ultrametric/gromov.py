"""Exact Gromov-Hausdorff ultrametric between finite ultrametric spaces.

Definition used: ``u_GH(X, Y)`` is the first candidate scale ``t`` in
``{0} | spectrum(X) | spectrum(Y)`` whose closed-ball quotients of X and Y
are isometric.  Why this equals the infimum of Hausdorff distances over
common ultrametric embeddings (Memoli, Smith & Wan, arXiv:2110.03136, study
this quantity through the two dendrograms):

* (upper bound) from a quotient isometry at scale ``t`` one can build an
  explicit common space on the disjoint union realizing Hausdorff distance
  exactly ``t`` -- that construction is
  :func:`ultrametric.certificates.certificate`;
* (lower bound) inside any common ultrametric space, mutual coverage within
  ``t`` forces the two closed-ball quotients at ``t`` to be isometric, because
  distances above ``t`` propagate unchanged across points that are within
  ``t`` of each other.

Quotient partitions only change at spectrum values, and at the larger
diameter both quotients are single points, so some candidate always works.

Search.  Isometry of the quotients is monotone in ``t``: the quotient at
``t' >= t`` is the quotient at ``t'`` of the quotient at ``t``, so an
isometry at ``t`` carries over to every larger scale.  The candidates
therefore split into a failing prefix and an isometric suffix.
:func:`spectrum_agreement` is a lower bound (an isometry at ``t`` makes the
spectra agree above ``t``), so candidates below it are dropped.
:func:`ugh_distance` gallops upward over positions 0, 1, 3, 7, ... of the
rest and then bisects: an answer at position ``p`` costs ``O(log p)`` tests,
at most ``O(log k)`` for ``k`` candidates, instead of a linear scan.

Test.  Each space's chain (Prim's visit order and join keys, O(n^2) once
per space, and already held by a validated one) is cut at every gap above
``t``; its runs are the closed balls, and the runs' lowest-index points with
the cut gaps between them are the chain of the quotient.  One stack pass over
that chain (:func:`ultrametric.dendrogram.quotient_canon`) builds the
quotient's canonical tree and key ``(height rank, count, encoding, lowest
label)`` without building a quotient matrix; equal encodings mean isometric
quotients.  A test costs O(n) for the cut plus the total length of the
encodings, ``O(n log n)`` on a tree of logarithmic depth (``O(n^2)`` on a
caterpillar), so a search past the chains costs ``O(n log n * log k)``.  At
the answer the leaves of the two canonical quotient trees are paired in leaf
order for the block map, whose blocks are the closed balls of
:func:`ultrametric.spaces.closed_balls`, named by their lowest-index point
exactly as :func:`closed_quotient` names them.

The exhaustive search in :mod:`ultrametric.oracle` double-checks the whole
scheme on small instances; the acceptance suite treats any disagreement as a
bug in the scan.  Certificates live in :mod:`ultrametric.certificates`, which
a scan does not load; their names are still importable from here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .dendrogram import leaf_pairing, quotient_canon
from .spaces import ZERO, Record, UltrametricSpace, closed_balls

BlockMap = tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


class UghResult(Record):
    """Distance value plus the constructive evidence the scan produced.

    ``scale_witness`` is the minimal scale with isometric closed quotients
    (equal to ``value``); ``block_map`` pairs each block of X's quotient with
    its image block in Y's quotient.
    """

    value: Fraction
    scale_witness: Fraction
    block_map: BlockMap


def ugh_distance(x: UltrametricSpace, y: UltrametricSpace) -> UghResult:
    """Gromov-Hausdorff ultrametric, exact, with a quotient isometry witness.

    Searches the candidate scales on the two chains, as the module docstring
    explains.
    """
    floor = spectrum_agreement(x, y)
    candidates = sorted(t for t in {*x.values, *y.values} if t >= floor)
    truncated = cache(lambda k: tuple(quotient_canon(s, candidates[k]) for s in (x, y)))

    def isometric_at(k: int) -> bool:
        (_, kx), (_, ky) = truncated(k)
        return kx[2] == ky[2]

    # Both quotients are single points at the last candidate.  Gallop up over
    # positions 0, 1, 3, 7, ... to the first isometric one, then bisect below it.
    lo, hi, probe = 0, len(candidates) - 1, 0
    while probe < hi and not isometric_at(probe):
        lo, probe = probe + 1, 2 * probe + 1
    hi = min(hi, probe)
    while lo < hi:
        mid = (lo + hi) // 2
        if isometric_at(mid):
            hi = mid
        else:
            lo = mid + 1
    t = candidates[hi]
    (qx, _), (qy, _) = truncated(hi)
    witness = leaf_pairing(qx, qy)
    x_blocks, y_blocks = (
        [tuple(map(s.labels.__getitem__, ball)) for ball in closed_balls(s, t)] for s in (x, y)
    )
    y_block_of = {block[0]: block for block in y_blocks}
    block_map = tuple((block, y_block_of[witness[block[0]]]) for block in x_blocks)
    return UghResult(t, t, block_map)


def spectrum_agreement(x: UltrametricSpace, y: UltrametricSpace) -> Fraction:
    """Smallest t above which the two spectra coincide.

    This is the largest value belonging to exactly one spectrum (0 when the
    spectra are equal), and it never exceeds the Gromov-Hausdorff ultrametric:
    quotient isometry at the distance value forces the spectra to agree above
    it.
    """
    return max(set(x.values) ^ set(y.values), default=ZERO)


def __getattr__(name):
    if name in ("Certificate", "certificate", "verify_certificate"):
        from . import certificates

        return getattr(certificates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
