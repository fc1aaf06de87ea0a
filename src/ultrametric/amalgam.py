"""Amalgamation of ultrametric spaces along a common subspace.

Two spaces that agree on an identified common part A can be glued into a
single ultrametric space: distances inside each part are preserved and the
cross distance is ``min over a in A of max(d1(x1,a), d2(a,x2))``.  The empty
common part is rejected; use :func:`disjoint_amalgam` with an explicit scale
for that case.

Label policy: the glued space relabels points as ``L:<label>`` / ``R:<label>``,
identified pairs taking the left label.  This keeps outputs deterministic and
collision-free.
"""

from __future__ import annotations

from .errors import (
    DuplicateIdentification,
    EmptyChain,
    EmptyCommonPart,
    MetricMismatchOnA,
    ScaleTooSmall,
    UltrametricError,
    UnknownLabel,
)
from .rationals import as_rational, format_rational
from .spaces import (
    Record,
    UltrametricSpace,
    block_matrix,
    merged_spectrum,
    remap,
    space_from_ranks,
)


class GlueSpec(Record):
    """Two spaces plus the point identification defining their common part."""

    x1: UltrametricSpace
    x2: UltrametricSpace
    identify: tuple[tuple[str, str], ...]

    def __init__(self, x1, x2, identify):
        super().__init__(x1, x2, tuple((a, b) for a, b in identify))


def _check_spec(spec: GlueSpec) -> None:
    if not spec.identify:
        raise EmptyCommonPart(
            "identification is empty; glue needs a nonempty common part "
            "(use disjoint_amalgam for the disjoint case)"
        )
    left = [a for a, _ in spec.identify]
    right = [b for _, b in spec.identify]
    for side, names in (("left", left), ("right", right)):
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise DuplicateIdentification(
                f"point {dup!r} appears twice on the {side} side", label=dup
            )
    for a, b in spec.identify:
        spec.x1.index(a)
        spec.x2.index(b)
    for a, b in spec.identify:
        for c, d in spec.identify:
            if spec.x1.d(a, c) != spec.x2.d(b, d):
                raise MetricMismatchOnA(
                    f"common part metrics disagree: d({a},{c}) = "
                    f"{format_rational(spec.x1.d(a, c))} on the left but "
                    f"d({b},{d}) = {format_rational(spec.x2.d(b, d))} on the right",
                    left=[a, c],
                    right=[b, d],
                )


def glue_embeddings(spec: GlueSpec) -> tuple[dict[str, str], dict[str, str]]:
    """Label maps from each input space into the glued space."""
    right_to_left = {b: a for a, b in spec.identify}
    left = {a: f"L:{a}" for a in spec.x1.labels}
    right = {
        b: f"L:{right_to_left[b]}" if b in right_to_left else f"R:{b}"
        for b in spec.x2.labels
    }
    return left, right


def glue(spec: GlueSpec) -> UltrametricSpace:
    """Amalgamate the two spaces along their identified common part."""
    _check_spec(spec)
    x1, x2 = spec.x1, spec.x2
    common = [(x1.index(a), x2.index(b)) for a, b in spec.identify]
    identified_right = {b for _, b in common}
    rest2 = [j for j in range(len(x2)) if j not in identified_right]

    labels = [f"L:{l}" for l in x1.labels] + [f"R:{x2.labels[j]}" for j in rest2]
    values, (table1, table2) = merged_spectrum(x1.values, x2.values)
    ranks1, ranks2 = remap(x1.ranks, table1), remap(x2.ranks, table2)
    rest = [[ranks2[p][q] for q in rest2] for p in rest2]
    # Cross rank (x, q) is the min over pairs (a, b) of max(d1(x, a), d2(b, q)).
    to_common = [[ranks2[q][b] for _, b in common] for q in rest2]
    cross = [
        [min(map(max, via, column)) for column in to_common]
        for via in ([row[a] for a, _ in common] for row in ranks1)
    ]
    return space_from_ranks(labels, block_matrix(ranks1, rest, cross), values)


def disjoint_amalgam(x: UltrametricSpace, y: UltrametricSpace, s) -> UltrametricSpace:
    """Disjoint union with every cross distance equal to ``s``.

    ``s`` must be positive and at least both diameters: any smaller scale
    would break the strong triangle inequality on a triangle with two points
    in the wider space.
    """
    s = as_rational(s)
    required = max(x.diameter(), y.diameter())
    if s <= 0 or s < required:
        raise ScaleTooSmall(
            f"scale {format_rational(s)} is too small; need a positive value >= "
            f"{format_rational(required)}",
            scale=format_rational(s),
            required_minimum=format_rational(required),
        )
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    values, (table_x, table_y, (rank_s,)) = merged_spectrum(x.values, y.values, (s,))
    cross = [[rank_s] * len(y) for _ in x.labels]
    ranks = block_matrix(remap(x.ranks, table_x), remap(y.ranks, table_y), cross)
    return space_from_ranks(labels, ranks, values)


class ChainGlueResult(Record):
    """Glued chain plus, for each input space, its label map into the result."""

    space: UltrametricSpace
    embeddings: tuple[dict[str, str], ...]


def chain_glue(spaces, identifications) -> ChainGlueResult:
    """Left fold of :func:`glue` over a chain of spaces.

    ``identifications[i]`` lists pairs ``(label in spaces[i], label in
    spaces[i+1])``; the left side is resolved through the accumulated space,
    so every input embeds isometrically into the result.
    """
    spaces = list(spaces)
    identifications = list(identifications)
    if not spaces:
        raise EmptyChain("chain_glue needs at least one space")
    if len(identifications) != len(spaces) - 1:
        raise EmptyChain(
            f"{len(spaces)} spaces need {len(spaces) - 1} identification lists, "
            f"got {len(identifications)}"
        )
    current = spaces[0]
    embeddings: list[dict[str, str]] = [{l: l for l in current.labels}]
    for link, (nxt, pairs) in enumerate(zip(spaces[1:], identifications)):
        try:
            resolved = tuple((embeddings[link][a], b) for a, b in pairs)
        except KeyError as exc:
            raise UnknownLabel(
                f"link {link}: point {exc.args[0]!r} is not in space {link} of the chain",
                label=exc.args[0],
                link=link,
            ) from None
        spec = GlueSpec(current, nxt, resolved)
        try:
            glued = glue(spec)
        except UltrametricError as exc:
            exc.details["link"] = link
            raise
        left, right = glue_embeddings(spec)
        embeddings = [{orig: left[cur] for orig, cur in emb.items()} for emb in embeddings]
        embeddings.append(right)
        current = glued
    return ChainGlueResult(current, tuple(embeddings))
