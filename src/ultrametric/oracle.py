"""Exhaustive cross-check for the Gromov-Hausdorff ultrametric.

This module deliberately shares no machinery with the quotient-scan algorithm:
isometry is decided by trying every bijection, and the distance is found by
enumerating every joint ultrametric on the disjoint union whose cross
distances are drawn from the candidate value set.  Restricting cross distances
to the two spectra loses nothing: any common embedding can be normalized onto
those values without increasing the Hausdorff distance between the images (see
the algorithm notes in the README).

The search runs on order-isomorphic integer ranks instead of Fractions - the
ultrametric axioms and the Hausdorff formula only ever compare, min, and max
values, so ranks decide exactly the same questions at a fraction of the cost.
The winning assignment is converted back and re-verified against the real
axiom checker and the real Hausdorff routine before the value is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .errors import InstanceTooLarge
from .hyperspace import hausdorff_distance
from .spaces import UltrametricSpace, block_matrix, spectrum, validate_ultrametric

ORACLE_MAX_POINTS = 4


def brute_force_isometry(x: UltrametricSpace, y: UltrametricSpace) -> dict[str, str] | None:
    """Distance-preserving bijection found by trying all of them, or None.

    Factorial in the number of points; meant for small spaces and for
    validating the canonical-form isometry test.
    """
    n = len(x)
    if n != len(y):
        return None
    dx, dy = x.dist, y.dist
    for perm in permutations(range(n)):
        if all(
            dx[i][j] == dy[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n)
        ):
            return {x.labels[i]: y.labels[perm[i]] for i in range(n)}
    return None


def _rank_hausdorff(cross: list[list[int]], nx: int, ny: int) -> int:
    forward = max(min(cross[i][j] for j in range(ny)) for i in range(nx))
    backward = max(min(cross[i][j] for i in range(nx)) for j in range(ny))
    return max(forward, backward)


def ugh_oracle(x: UltrametricSpace, y: UltrametricSpace) -> Fraction:
    """Minimum Hausdorff distance over all joint ultrametric embeddings.

    Isometric inputs give 0 (the two copies are identified point by point);
    otherwise the minimum runs over every ultrametric on the disjoint union
    with positive cross distances drawn from the union of the two spectra.
    A non-isometric pair has a positive value in that pool, and the constant
    cross matrix at the top value is always admissible, so a best one exists.
    """
    if len(x) > ORACLE_MAX_POINTS or len(y) > ORACLE_MAX_POINTS:
        raise InstanceTooLarge(
            f"oracle is exhaustive and limited to {ORACLE_MAX_POINTS}-point spaces; "
            f"got {len(x)} and {len(y)} points",
            limit=ORACLE_MAX_POINTS,
        )
    if brute_force_isometry(x, y) is not None:
        return Fraction(0)

    values = sorted({*spectrum(x), *spectrum(y)})
    rank = {v: r for r, v in enumerate(values)}
    nx, ny = len(x), len(y)
    rx = [[rank[v] for v in row] for row in x.dist]
    ry = [[rank[v] for v in row] for row in y.dist]
    choices = range(1, len(values))

    cross = [[-1] * ny for _ in range(nx)]
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    best_rank: int | None = None
    best_cross: list[list[int]] | None = None

    def admissible(i: int, j: int, r: int) -> bool:
        # Triangles with two X points share a column, those with two Y points
        # share a row; intra-space triangles hold already, so checking against
        # previously assigned cells in this row and column covers every axiom.
        for k in range(nx):
            s = cross[k][j]
            if s < 0 or k == i:
                continue
            m = rx[i][k]
            if m > r and m > s:
                return False
            if r > m and r > s:
                return False
            if s > m and s > r:
                return False
        for k in range(ny):
            s = cross[i][k]
            if s < 0 or k == j:
                continue
            m = ry[j][k]
            if m > r and m > s:
                return False
            if r > m and r > s:
                return False
            if s > m and s > r:
                return False
        return True

    def search(cell: int, done_rows_bound: int) -> None:
        nonlocal best_rank, best_cross
        if best_rank is not None and done_rows_bound >= best_rank:
            return
        if cell == len(cells):
            h = _rank_hausdorff(cross, nx, ny)
            if best_rank is None or h < best_rank:
                best_rank = h
                best_cross = [row[:] for row in cross]
            return
        i, j = cells[cell]
        for r in choices:
            if admissible(i, j, r):
                cross[i][j] = r
                bound = done_rows_bound
                if j == ny - 1:
                    bound = max(bound, min(cross[i]))
                search(cell + 1, bound)
                cross[i][j] = -1

    search(0, -1)
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    cross = [[values[r] for r in row] for row in best_cross]
    joint = validate_ultrametric(labels, block_matrix(x.dist, y.dist, cross))
    achieved = hausdorff_distance(joint, labels[:nx], labels[nx:])
    assert achieved == values[best_rank], "rank search and exact Hausdorff disagree"
    return achieved
