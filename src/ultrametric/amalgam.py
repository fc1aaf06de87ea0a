"""Amalgamation of ultrametric spaces along a common subspace.

Two spaces that agree on an identified common part A can be glued into a
single ultrametric space: distances inside each part are preserved and the
cross distance is ``min over a in A of max(d1(x1,a), d2(a,x2))``.  The empty
common part is rejected; use :func:`disjoint_amalgam` with an explicit scale
for that case.

Label policy: the glued space relabels points as ``L:<label>`` / ``R:<label>``,
identified pairs taking the left label (:func:`glue_embeddings`).  This keeps
outputs deterministic and collision-free.  Each construction here is one
:func:`join_spaces` of its inputs' chains, placed by such label maps.
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
from .spaces import Record, UltrametricSpace, join_spaces


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
    for side, names in zip(("left", "right"), zip(*spec.identify)):
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise DuplicateIdentification(
                f"point {dup!r} appears twice on the {side} side", label=dup
            )
    x1, x2 = spec.x1, spec.x2
    at1, at2 = zip(*((x1.index(a), x2.index(b)) for a, b in spec.identify))
    # X2's ranks go through one table into X1's (-1 for a value X1 lacks).
    position = {v: r for r, v in enumerate(x1.values)}
    table = [position.get(v, -1) for v in x2.values]
    for (a, b), i, j in zip(spec.identify, at1, at2):
        want = list(map(x1.ranks[i].__getitem__, at1))
        got = list(map(table.__getitem__, map(x2.ranks[j].__getitem__, at2)))
        if want != got:
            c, d = spec.identify[next(k for k, (w, g) in enumerate(zip(want, got)) if w != g)]
            raise MetricMismatchOnA(
                f"common part metrics disagree: d({a},{c}) = "
                f"{format_rational(x1.d(a, c))} on the left but "
                f"d({b},{d}) = {format_rational(x2.d(b, d))} on the right",
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
    """Amalgamate the two spaces along their identified common part.

    It is the single linkage (:func:`join_spaces`) of both chains placed by
    :func:`glue_embeddings`, which puts X2's identified points on their X1
    partners, so it is ultrametric; a minimax path from X1 to X2 crosses A,
    at ``min over a of max(d1, d2)``.
    """
    _check_spec(spec)
    left, right = glue_embeddings(spec)
    return join_spaces([(spec.x1, left), (spec.x2, right)], [])


def disjoint_amalgam(x: UltrametricSpace, y: UltrametricSpace, s) -> UltrametricSpace:
    """Disjoint union with every cross distance equal to ``s``.

    ``s`` must be positive and at least both diameters: then every triangle
    with points on both sides has its two longest sides equal to ``s``, and
    any smaller scale would break the strong triangle inequality on a
    triangle with two points in the wider space.  Built as the single linkage
    (:func:`join_spaces`) of both chains and one link at ``s``.
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
    left, right = glue_embeddings(GlueSpec(x, y, ()))
    return join_spaces([(x, left), (y, right)], [(s, left[x.labels[0]], right[y.labels[0]])])


class ChainGlueResult(Record):
    """Glued chain plus, for each input space, its label map into the result."""

    space: UltrametricSpace
    embeddings: tuple[dict[str, str], ...]


def chain_glue(spaces, identifications) -> ChainGlueResult:
    """The union of the sequence that glues ``spaces[1]`` to ``spaces[0]``,
    the result to ``spaces[2]``, and so on.

    ``identifications[i]`` pairs labels of ``spaces[i]`` with labels of
    ``spaces[i+1]``.  Link ``i`` is checked as :func:`glue` checks it, on
    ``spaces[i]`` under its labels so far, where the earlier links embed it
    isometrically, so each error is that glue's, with its ``link``.  Each
    later glue prefixes those labels with ``L:``; so prefixed, they place
    every input's chain in one :func:`join_spaces`.
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
    stages = [{l: l for l in spaces[0].labels}]  # each input's labels right after its link
    for link, (nxt, pairs) in enumerate(zip(spaces[1:], identifications)):
        try:
            resolved = tuple((stages[link][a], b) for a, b in pairs)
        except KeyError as exc:
            raise UnknownLabel(
                f"link {link}: point {exc.args[0]!r} is not in space {link} of the chain",
                label=exc.args[0],
                link=link,
            ) from None
        held = spaces[link]
        labels = tuple(map(stages[link].__getitem__, held.labels))
        spec = GlueSpec(UltrametricSpace(labels, held.values, held.ranks), nxt, resolved)
        try:
            _check_spec(spec)
        except UltrametricError as exc:
            exc.details["link"] = link
            raise
        stages.append(glue_embeddings(spec)[1])
    embeddings = tuple(
        {l: "L:" * (len(identifications) - k) + label for l, label in stage.items()}
        for k, stage in enumerate(stages)
    )
    return ChainGlueResult(join_spaces(list(zip(spaces, embeddings)), []), embeddings)
