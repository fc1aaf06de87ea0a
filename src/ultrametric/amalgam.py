"""Amalgamation of ultrametric spaces along a common subspace.

Two spaces that agree on an identified common part A can be glued into a
single ultrametric space: distances inside each part are preserved and the
cross distance is ``min over a in A of max(d1(x1,a), d2(a,x2))``.  The empty
common part is rejected; use :func:`disjoint_amalgam` with an explicit scale
for that case.

Label policy: :func:`builders.side_by_side` labels points ``L:<label>`` /
``R:<label>``, identified pairs taking the left label.  This keeps outputs
deterministic and collision-free.  Each construction here is one
:func:`join_spaces` of its inputs' chains, placed by such label maps.  The
handlers of the ``glue`` and ``amalgam`` verbs live here.
"""

from . import jsonio
from .builders import join_spaces, merged_spectrum, side_by_side
from .errors import (
    DuplicateIdentification,
    EmptyChain,
    EmptyCommonPart,
    InputFormat,
    MetricMismatchOnA,
    ScaleTooSmall,
    UltrametricError,
    UnknownLabel,
)
from .rationals import as_rational, format_rational
from .spaces import Record, UltrametricSpace


class GlueSpec(Record):
    """Two spaces plus the point identification defining their common part."""

    x1: UltrametricSpace
    x2: UltrametricSpace
    identify: tuple[tuple[str, str], ...]

    def __init__(self, x1, x2, identify):
        super().__init__(x1, x2, tuple((a, b) for a, b in identify))


def gluespec_from_obj(obj) -> GlueSpec:
    """The glue spec ``{"x1": <space>, "x2": <space>, "identify": [["a", "a2"], ...]}``,
    both spaces validated."""
    if not isinstance(obj, dict):
        raise InputFormat("glue spec must be a JSON object")
    for key in ("x1", "x2", "identify"):
        if key not in obj:
            raise InputFormat(f'glue spec needs "{key}"')
    pairs = obj["identify"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p)
        for p in pairs
    ):
        raise InputFormat('"identify" must be a list of [left, right] label pairs')
    return GlueSpec(jsonio.space_from_obj(obj["x1"]), jsonio.space_from_obj(obj["x2"]), pairs)


def first_distortion(x: UltrametricSpace, xs, y: UltrametricSpace, ys) -> tuple[int, int] | None:
    """The first pair ``(p, q)``, row by row, whose distance the map ``xs[k] ->
    ys[k]`` of point indices from ``x`` to ``y`` changes, or None for an isometry.
    Both sides' ranks go through their tables into the merged spectrum."""
    _, (tx, ty) = merged_spectrum(x.values, y.values)
    for p, (i, j) in enumerate(zip(xs, ys)):
        row_x, row_y = x.ranks[i], y.ranks[j]
        want = [tx[row_x[k]] for k in xs]
        got = [ty[row_y[k]] for k in ys]
        if want != got:
            return p, [w == g for w, g in zip(want, got)].index(False)


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
    bad = first_distortion(x1, at1, x2, at2)
    if bad:
        (a, b), (c, d) = map(spec.identify.__getitem__, bad)
        raise MetricMismatchOnA(
            f"common part metrics disagree: d({a},{c}) = "
            f"{format_rational(x1.d(a, c))} on the left but "
            f"d({b},{d}) = {format_rational(x2.d(b, d))} on the right",
            left=[a, c],
            right=[b, d],
        )


def glue(spec: GlueSpec) -> UltrametricSpace:
    """Amalgamate the two spaces along their identified common part.

    It is the single linkage (:func:`join_spaces`) of both chains placed by
    :func:`side_by_side`, which puts X2's identified points on their X1
    partners, so it is ultrametric; a minimax path from X1 to X2 crosses A,
    at ``min over a of max(d1, d2)``.
    """
    _check_spec(spec)
    left, right = side_by_side(spec.x1, spec.x2, spec.identify)
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
    left, right = side_by_side(x, y)
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
        stages.append(side_by_side(spec.x1, nxt, resolved)[1])
    embeddings = tuple(  # each later link's left map (side_by_side) adds L:
        {l: "L:" * (len(identifications) - k) + label for l, label in stage.items()}
        for k, stage in enumerate(stages)
    )
    return ChainGlueResult(join_spaces(list(zip(spaces, embeddings)), []), embeddings)


def cli_glue(args) -> dict:
    """``ultrametric glue GLUESPEC``."""
    spec = gluespec_from_obj(jsonio.loads(jsonio.read_text(args.gluespec)))
    return jsonio.space_to_obj(glue(spec))


def cli_amalgam(args) -> dict:
    """``ultrametric amalgam SPACE_A SPACE_B --s S``."""
    a = jsonio.load_space(args.space_a)
    b = jsonio.load_space(args.space_b)
    return jsonio.space_to_obj(disjoint_amalgam(a, b, args.s))
