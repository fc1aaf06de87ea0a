"""Seeded input generators and reference computations for the benchmark.

Everything here is independent of the package under test: spaces are built
from random merge trees (so they are ultrametric by construction), metrics are
integer L1 distances between grid points, and corruptions change one entry of
a valid matrix at a chosen place in ``validate_ultrametric``'s scan order.
The reference routines compute expected CLI outputs from the generated
matrices, so a job is checked against values the run under test never saw.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)


def fmt(value) -> str:
    """Canonical rational text, as the CLI writes it."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=True) + "\n"


class Space:
    """Labels plus a square matrix of Fractions (or ints)."""

    def __init__(self, labels, dist):
        self.labels = list(labels)
        self.dist = [list(row) for row in dist]

    def __len__(self):
        return len(self.labels)

    def text(self) -> str:
        return dumps({"points": self.labels, "dist": [[fmt(v) for v in row] for row in self.dist]})

    def diameter(self) -> Fraction:
        return max(max(row) for row in self.dist)

    def min_positive(self) -> Fraction:
        return min(v for row in self.dist for v in row if v > 0)

    def spectrum(self) -> list[Fraction]:
        return sorted({ZERO, *(v for row in self.dist for v in row)})

    def restrict(self, indices) -> "Space":
        return Space([self.labels[i] for i in indices], [[self.dist[i][j] for j in indices] for i in indices])

    def permuted(self, rng, prefix: str) -> "Space":
        """Same space with points shuffled and renamed ``<prefix><k>``."""
        order = list(range(len(self)))
        rng.shuffle(order)
        out = self.restrict(order)
        out.labels = [f"{prefix}{k}" for k in range(1, len(self) + 1)]
        return out


def _partition(rng, items, parts):
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    bounds = [0, *cuts, len(items)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(parts)]


def tree_space(rng, n: int, heights, prefix: str = "x") -> Space:
    """Ultrametric from a random merge tree with node heights from ``heights``.

    Each internal node takes a height from the upper half of the values still
    below its parent's and splits its points into 2-4 parts (all of them when
    no lower value is left), so every draw is valid by construction.  The
    bounded fan-out keeps the trees of one size alike in depth, and so keeps
    the cost of validating them alike from seed to seed.
    """
    heights = sorted(heights)
    dist = [[ZERO] * n for _ in range(n)]
    points = list(range(n))
    rng.shuffle(points)
    stack = [(points, len(heights))]
    while stack:
        members, top = stack.pop()
        if len(members) == 1:
            continue
        level = rng.randrange(top // 2, top)
        h = heights[level]
        count = rng.randint(2, min(4, len(members))) if level else len(members)
        parts = _partition(rng, members, count)
        for p, part in enumerate(parts):
            for other in parts[p + 1 :]:
                for i in part:
                    row = dist[i]
                    for j in other:
                        row[j] = h
                        dist[j][i] = h
            stack.append((part, level))
    return Space([f"{prefix}{k}" for k in range(1, n + 1)], dist)


def balanced_space(rng, n: int, heights, fanout: int = 3, prefix: str = "x") -> Space:
    """Ultrametric of a balanced merge tree: every node splits its points evenly.

    Only the point order and the node heights (distinct values drawn from
    ``heights``, one per tree level) depend on the seed, so the cost of a full
    validation scan is nearly the same for every draw.
    """
    depth, size = 1, fanout
    while size < n:
        depth, size = depth + 1, size * fanout
    levels = sorted(rng.sample(sorted(heights), depth))
    dist = [[ZERO] * n for _ in range(n)]
    points = list(range(n))
    rng.shuffle(points)
    stack = [(points, depth - 1)]
    while stack:
        members, level = stack.pop()
        if len(members) == 1:
            continue
        count = min(fanout, len(members)) if level else len(members)
        parts = [members[k * len(members) // count : (k + 1) * len(members) // count] for k in range(count)]
        for p, part in enumerate(parts):
            for other in parts[p + 1 :]:
                for i in part:
                    for j in other:
                        dist[i][j] = dist[j][i] = levels[level]
            stack.append((part, level - 1))
    return Space([f"{prefix}{k}" for k in range(1, n + 1)], dist)


def grid_heights(count: int = 64) -> list[Fraction]:
    """The allowed values ``k/count`` for ``k = 1..count``."""
    return [Fraction(k, count) for k in range(1, count + 1)]


def distinct_heights(rng, m: int, denominator: int = 360) -> list[Fraction]:
    """``m`` distinct positive rationals with mixed reduced denominators."""
    return sorted(Fraction(k, denominator) for k in rng.sample(range(1, 8 * m + 8), m))


def spine_counts(rng, n: int, m: int) -> list[int]:
    """Leaves joining at each of ``m`` spine levels: 2 at the bottom, then 1 or 2, ``n`` in all.

    The top two levels always differ, so swapping them changes the shape.
    """
    doubles = n - 2 - (m - 1)
    if not 0 < doubles < m - 1:
        raise ValueError(f"cannot spread {n} points over {m} spine levels")
    chosen = set(rng.sample(range(1, m), doubles))
    counts = [2] + [2 if level in chosen else 1 for level in range(1, m)]
    if counts[-1] == counts[-2]:
        other = next(level for level in range(1, m - 1) if counts[level] != counts[-1])
        counts[other], counts[-1] = counts[-1], counts[other]
    return counts


def caterpillar(rng, counts, heights, prefix: str) -> Space:
    """Deep-spectrum space: a spine of merges, one per height.

    ``counts[level]`` fresh leaves join everything below at ``heights[level]``
    (see ``spine_counts``); the spectrum is exactly ``{0} | heights``.
    """
    heights = sorted(heights)
    level_of = [level for level, count in enumerate(counts) for _ in range(count)]
    # d(p, q) is the height of the later of the two join levels
    dist = [[heights[max(a, b)] for b in level_of] for a in level_of]
    for i in range(len(level_of)):
        dist[i][i] = ZERO
    return Space([f"{prefix}{k}" for k in range(1, len(level_of) + 1)], dist).permuted(rng, prefix)


def perturb_bottom(space: Space, new_height: Fraction) -> tuple[Space, Fraction]:
    """Copy of a caterpillar with its lowest merge moved to ``new_height``.

    Returns the copy and the old height; the Gromov-Hausdorff ultrametric
    between the two is ``max(old, new)`` when ``new`` lies below the second
    spectrum value and outside the spectrum.
    """
    old = space.spectrum()[1]
    out = Space(space.labels, space.dist)
    for row in out.dist:
        for j, v in enumerate(row):
            if v == old:
                row[j] = new_height
    return out, old


def l1_metric(rng, n: int, duplicates: int = 0, side: int = 40, dims: int = 3) -> Space:
    """Integer L1 distances between distinct grid points, plus planted copies.

    The last ``duplicates`` points repeat earlier ones (distance 0), so the
    matrix is a metric only after merging duplicates.
    """
    seen: set[tuple[int, ...]] = set()
    coords: list[tuple[int, ...]] = []
    while len(coords) < n - duplicates:
        p = tuple(rng.randrange(side) for _ in range(dims))
        if p not in seen:
            seen.add(p)
            coords.append(p)
    coords += rng.sample(coords, duplicates)
    dist = [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    return Space([f"m{k}" for k in range(1, n + 1)], dist)


# -- single-entry corruptions ---------------------------------------------------

CORRUPTIONS = {
    # kind: (error code validate_ultrametric must raise, changes both d(a,b) and d(b,a))
    "triangle_up": ("TriangleViolation", True),
    "triangle_down": ("TriangleViolation", True),
    "asymmetric": ("NonSymmetric", False),
    "zero": ("ZeroOffDiagonal", True),
    "negative": ("NegativeDistance", True),
}

PLACES = {"early": 0.02, "middle": 0.5, "late": 0.98}


def _row_at(n: int, share: float) -> int:
    """Row whose pairs sit at ``share`` of the ascending (i < j) pair order."""
    return min(n - 2, int(n * (1 - (1 - share) ** 0.5)))


def corrupt(rng, space: Space, kind: str, place: str) -> tuple[Space, tuple[str, str]]:
    """Change one entry of a valid space so that validation fails at ``place``.

    Returns the corrupted space (points may be reordered) and the labels of
    the changed pair.  Every violation a single-entry change creates involves
    that pair, so the reported witness must name both of its points.
    """
    n = len(space)
    row = _row_at(n, PLACES[place])
    if kind == "triangle_down":
        a, b, involved = _lowering_target(rng, space)
        # Lowering d(a,b) breaks only triangles through points closer to a or
        # b than d(a,b); put all of them in one block starting at ``row``.
        start = min(row, n - len(involved))
        rest = [i for i in range(n) if i not in involved]
        order = rest[:start] + involved + rest[start:]
        space = space.restrict(order)
        a, b = order.index(a), order.index(b)
        value = space.dist[a][b] / 3
    else:
        a, b = row, row + 1 + rng.randrange(min(4, n - row - 1))
        value = {
            "triangle_up": space.diameter() + 1,
            "asymmetric": space.dist[a][b] + Fraction(1, 7),
            "zero": ZERO,
            "negative": -space.dist[a][b],
        }[kind]
    out = Space(space.labels, space.dist)
    out.dist[a][b] = value
    if CORRUPTIONS[kind][1]:
        out.dist[b][a] = value
    return out, (out.labels[a], out.labels[b])


def corrupted_space(rng, n: int, heights, kind: str, place: str) -> tuple[Space, tuple[str, str]]:
    """``corrupt`` applied to a fresh ``balanced_space``, redrawn while no target exists."""
    while True:
        try:
            return corrupt(rng, balanced_space(rng, n, heights), kind, place)
        except ValueError:
            continue


def _lowering_target(rng, space: Space):
    """A pair (a, b) with a point closer to a than b is, and few points near either."""
    n = len(space)
    best = None
    for _ in range(60):
        a, b = rng.sample(range(n), 2)
        h = space.dist[a][b]
        near_a = [k for k in range(n) if k != a and space.dist[a][k] < h]
        if not near_a:
            continue
        near_b = [k for k in range(n) if k != b and space.dist[b][k] < h]
        involved = sorted({a, b, *near_a, *near_b})
        if best is None or len(involved) < len(best[2]):
            best = (a, b, involved)
    if best is None:
        raise ValueError("space has no pair whose lowering breaks a triangle")
    return best


# -- reference computations -----------------------------------------------------

def subdominant(dist):
    """Largest ultrametric below a symmetric matrix: minimax path distances.

    Prim's minimum spanning tree, then one walk of the tree per source point;
    O(n^2).  A matrix is an ultrametric exactly when it equals this.
    """
    n = len(dist)
    parent = [0] * n
    best = list(dist[0])
    in_tree = [False] * n
    in_tree[0] = True
    adjacent: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for _ in range(n - 1):
        v = min((i for i in range(n) if not in_tree[i]), key=lambda i: best[i])
        in_tree[v] = True
        adjacent[v].append((parent[v], best[v]))
        adjacent[parent[v]].append((v, best[v]))
        row = dist[v]
        for i in range(n):
            if not in_tree[i] and row[i] < best[i]:
                best[i] = row[i]
                parent[i] = v
    out = [[ZERO] * n for _ in range(n)]
    for source in range(n):
        row = out[source]
        stack = [(source, -1, ZERO)]
        while stack:
            v, came_from, reach = stack.pop()
            row[v] = reach
            for w, weight in adjacent[v]:
                if w != came_from:
                    stack.append((w, v, max(reach, weight)))
    return out


def is_ultrametric(dist) -> bool:
    n = len(dist)
    if any(len(row) != n for row in dist):
        return False
    for i in range(n):
        if dist[i][i] != 0:
            return False
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i] or dist[i][j] <= 0:
                return False
    return subdominant(dist) == dist


def balls(space: Space, t) -> list[list[int]]:
    """Closed balls of radius t, each listed from its first point, in point order."""
    n = len(space)
    assigned = [False] * n
    out = []
    for i in range(n):
        if not assigned[i]:
            members = [j for j in range(n) if not assigned[j] and space.dist[i][j] <= t]
            for j in members:
                assigned[j] = True
            out.append(members)
    return out


def quotient_text(space: Space, t) -> str:
    blocks = balls(space, t)
    reps = [block[0] for block in blocks]
    q = space.restrict(reps)
    return dumps(
        {
            "points": q.labels,
            "dist": [[fmt(v) for v in row] for row in q.dist],
            "scale": fmt(t),
            "blocks": [[space.labels[j] for j in block] for block in blocks],
        }
    )


def net_text(space: Space, eps) -> str:
    return dumps([space.labels[block[0]] for block in balls(space, eps)])


def hausdorff(space: Space, a, b) -> Fraction:
    d = space.dist
    forward = max(min(d[i][j] for j in b) for i in a)
    backward = max(min(d[i][j] for i in a) for j in b)
    return max(forward, backward)


def merged_duplicates(space: Space) -> Space:
    """Keep the first point of each group at distance 0 (groups here are exact copies)."""
    keep = []
    for i in range(len(space)):
        if all(space.dist[i][k] != 0 for k in keep):
            keep.append(i)
    return space.restrict(keep)


def glue_space(x1: Space, x2: Space, identify) -> Space:
    common1 = [x1.labels.index(a) for a, _ in identify]
    common2 = [x2.labels.index(b) for _, b in identify]
    rest2 = [j for j in range(len(x2)) if j not in set(common2)]
    labels = [f"L:{l}" for l in x1.labels] + [f"R:{x2.labels[j]}" for j in rest2]
    n1 = len(x1)
    dist = [[ZERO] * len(labels) for _ in labels]
    for i in range(n1):
        dist[i][:n1] = x1.dist[i]
    for p, jp in enumerate(rest2):
        for q, jq in enumerate(rest2):
            dist[n1 + p][n1 + q] = x2.dist[jp][jq]
        for i in range(n1):
            value = min(max(x1.dist[i][a], x2.dist[b][jp]) for a, b in zip(common1, common2))
            dist[i][n1 + p] = dist[n1 + p][i] = value
    return Space(labels, dist)


def amalgam_space(x: Space, y: Space, s) -> Space:
    nx = len(x)
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    dist = [[s] * len(labels) for _ in labels]
    for i in range(nx):
        dist[i][:nx] = x.dist[i]
    for i in range(len(y)):
        dist[nx + i][nx:] = y.dist[i]
    return Space(labels, dist)


def crowd_space(base: Space, base_label: str, c, count: int) -> Space:
    """Adjoin ``count`` points at mutual distance c, crowded around one base point."""
    b = base.labels.index(base_label)
    m = len(base)
    prefix = ""
    while any(f"{prefix}{k}" in base.labels for k in range(1, count + 1)):
        prefix += "_"
    labels = base.labels + [f"{prefix}{k}" for k in range(1, count + 1)]
    dist = [[c] * (m + count) for _ in labels]
    for i in range(m):
        dist[i][:m] = base.dist[i]
        reach = max(base.dist[i][b], c)
        for k in range(m, m + count):
            dist[i][k] = dist[k][i] = reach
    for k in range(m, m + count):
        dist[k][k] = ZERO
    return Space(labels, dist)
