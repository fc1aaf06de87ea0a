"""Naming what is wrong with a matrix that does not read or does not check.

:func:`ultrametric.spaces.validate_ultrametric` reads a matrix of canonical
rational strings at C speed and accepts an ultrametric at once, by comparing
it with its subdominant.  What runs only when it cannot lives here: the
respelling of a matrix with an entry that is not a string (a JSON integer,
say) or does not parse, which names the first bad entry, and the scans that
name a rejected matrix's first violated axiom with its witness.  A job whose
input reads and checks does not load this module.
"""

from bisect import bisect_left
from fractions import Fraction

from .errors import (
    InputFormat,
    InstanceTooLarge,
    NegativeDistance,
    NonSymmetric,
    NonzeroDiagonal,
    TriangleViolation,
    UltrametricError,
    ZeroOffDiagonal,
)
from .rationals import as_rational, format_rational, int_max_str_digits

# The types whose str() is their canonical spelling.
_STR_SPELLS = (int, Fraction)


def _canonical_spellings(matrix, width: int | None) -> list[list[str]]:
    """The matrix in canonical spellings, read as
    :func:`ultrametric.spaces.rank_image` reads it, so the first bad entry or
    row raises."""
    spelled = []
    for i, row in enumerate(matrix):
        if width is not None and len(row) != width:
            raise InputFormat(f"matrix row {i} has {len(row)} entries, expected {width}")
        try:
            spelled.append(
                [str(v) if type(v) in _STR_SPELLS else format_rational(as_rational(v)) for v in row]
            )
        except ValueError:  # str() of a value past the integer string limit
            limit = int_max_str_digits()
            raise InstanceTooLarge(
                f"matrix row {i} exceeds the {limit}-digit integer limit", row=i, limit=limit
            ) from None
    return spelled


def first_fault(labels, rows, values, sub) -> UltrametricError:
    """The first axiom the matrix ``rows`` of ranks into ``values`` violates,
    as an error naming its witnesses.

    The scan order is the diagonal, then each pair ``i < j`` for symmetry,
    negativity and a zero off the diagonal, then the strong triangle over
    ascending index triples.  ``sub`` is the matrix's subdominant, with a
    zero diagonal, and only a pair where the two differ can have a triangle
    witness.  A matrix that is not its own subdominant, or has a gap at most
    0 in its chain, always has a fault.
    """
    zero = bisect_left(values, 0)
    n = len(labels)

    def text(i, j):
        return format_rational(values[rows[i][j]])

    for i in range(n):
        if rows[i][i] != zero:
            return NonzeroDiagonal(
                f"d({labels[i]},{labels[i]}) = {text(i, i)}, expected 0",
                point=labels[i],
            )
    for i in range(n):
        rank_i = rows[i]
        for j in range(i + 1, n):
            r = rank_i[j]
            if r != rows[j][i]:
                return NonSymmetric(
                    f"d({labels[i]},{labels[j]}) = {text(i, j)} but "
                    f"d({labels[j]},{labels[i]}) = {text(j, i)}",
                    points=[labels[i], labels[j]],
                )
            if r < zero:
                return NegativeDistance(
                    f"d({labels[i]},{labels[j]}) = {text(i, j)} < 0",
                    points=[labels[i], labels[j]],
                )
            if r == zero:
                return ZeroOffDiagonal(
                    f"d({labels[i]},{labels[j]}) = 0 for distinct points",
                    points=[labels[i], labels[j]],
                )
    for i in range(n):
        rank_i = rows[i]
        sub_i = sub[i]
        for j in range(i + 1, n):
            dij = rank_i[j]
            # A violating k forces dij > max(d(i,k), d(k,j)) >= sub(i,j).
            if dij == sub_i[j]:
                continue
            rank_j = rows[j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > rank_i[k] and dij > rank_j[k]:
                    return TriangleViolation(
                        f"d({labels[i]},{labels[j]}) = {text(i, j)} > "
                        f"max(d({labels[i]},{labels[k]}), d({labels[k]},{labels[j]})) = "
                        f"max({text(i, k)}, {text(j, k)})",
                        points=[labels[i], labels[j], labels[k]],
                    )
