"""Traced in-process replay of a workload's CLI jobs.

Each job is replayed by calling the public functions its verb calls, in the
verb's order, with a span around each call.  Spans are timed in process CPU
time, kept in memory by a ``Recorder`` and written once at the end of a run.
A layer's self time is its span's duration minus the time its child spans
cover; calls a public function
makes internally (the validation inside ``certificate``, say) stay in that
function's self time.  The replay coerces raw matrices itself and hands
Fractions to validation, so rational coercion is counted once, under
``rationals.as_rational``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import process_time

from ultrametric import jsonio
from ultrametric.amalgam import GlueSpec, disjoint_amalgam, glue
from ultrametric.cli import build_parser
from ultrametric.dendrogram import isometry_witness, to_dendrogram
from ultrametric.errors import InputFormat, OracleMismatch, UltrametricError
from ultrametric.generators import (
    crowd_family,
    in_uk,
    random_space,
    single_linkage,
    spectrum_constraint,
)
from ultrametric.gromov import certificate, ugh_distance, verify_certificate
from ultrametric.hyperspace import epsilon_net, hausdorff_distance
from ultrametric.oracle import ugh_oracle
from ultrametric.rationals import as_rational, format_rational, parse_rational, parse_rational_list
from ultrametric.spaces import closed_quotient, merge_duplicate_points, spectrum, validate_ultrametric

from workloads import Result

# (metric, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("jsonio.loads.self_s", "s", "lower", "job_cpu_p50_s on all workloads; flat under algorithmic changes"),
    ("jsonio.loads.bytes", "bytes", "lower", "job_cpu_p50_s on all workloads"),
    ("jsonio.dumps.self_s", "s", "lower", "job_cpu_p50_s on all workloads; flat under algorithmic changes"),
    ("jsonio.dumps.bytes", "bytes", "lower", "job_cpu_p50_s on all workloads"),
    ("rationals.as_rational.self_s", "s", "lower", "job_cpu_p50_s and peak_rss_mb on construct"),
    ("rationals.as_rational.values", "count", "lower", "job_cpu_p50_s and peak_rss_mb on construct"),
    ("spaces.validate_ultrametric.self_s", "s", "lower", "cpu_s and job_cpu_tail_s, most on construct; no worse on reject"),
    ("spaces.validate_ultrametric.calls", "count", "lower", "cpu_s on construct"),
    ("spaces.validate_ultrametric.points", "count", "lower", "cpu_s on construct"),
    ("spaces.validate_ultrametric.rejected", "count", "lower", "cpu_s on reject"),
    ("spaces.merge_duplicate_points.self_s", "s", "lower", "job_cpu_p50_s on construct"),
    ("spaces.closed_quotient.self_s", "s", "lower", "job_cpu_p50_s on construct"),
    ("spaces.spectrum.self_s", "s", "lower", "job_cpu_p50_s on construct"),
    ("generators.single_linkage.self_s", "s", "lower", "job_cpu_tail_s and cpu_s on construct"),
    ("generators.random_space.self_s", "s", "lower", "job_cpu_tail_s and cpu_s on construct"),
    ("generators.crowd_family.self_s", "s", "lower", "job_cpu_tail_s and cpu_s on construct"),
    ("amalgam.glue.self_s", "s", "lower", "cpu_s on construct"),
    ("amalgam.disjoint_amalgam.self_s", "s", "lower", "cpu_s on construct"),
    ("hyperspace.hausdorff_distance.self_s", "s", "lower", "job_cpu_p50_s on construct"),
    ("hyperspace.epsilon_net.self_s", "s", "lower", "job_cpu_p50_s on construct"),
    ("gromov.ugh_distance.self_s", "s", "lower", "cpu_s and job_cpu_tail_s on ugh_scan; not construct"),
    ("gromov.ugh_distance.candidates", "count", "lower", "cpu_s on ugh_scan"),
    ("gromov.ugh_distance.scales_tried", "count", "lower", "cpu_s and job_cpu_tail_s on ugh_scan"),
    ("gromov.ugh_distance.useful_ratio", "ratio", "higher", "cpu_s on ugh_scan"),
    ("gromov.certificate.self_s", "s", "lower", "job_cpu_tail_s on construct"),
    ("gromov.verify_certificate.self_s", "s", "lower", "job_cpu_tail_s on construct"),
    ("dendrogram.to_dendrogram.probe_s", "s", "lower", "cpu_s on ugh_scan"),
    ("dendrogram.isometry_witness.probe_s", "s", "lower", "cpu_s on ugh_scan"),
    ("oracle.ugh_oracle.self_s", "s", "lower", "job_cpu_p50_s on ugh_scan"),
    ("oracle.ugh_oracle.calls", "count", "lower", "job_cpu_p50_s on ugh_scan"),
    ("cli.startup_s", "s", "lower", "job_cpu_p50_s on ugh_scan and reject; flat under --stats/trace work"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced against untraced in-process replay"),
]


class Recorder:
    """In-memory span recorder; with ``enabled`` false every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the block; the yielded dict takes counts known only afterwards."""
        if not self.enabled:
            yield counts
            return
        record = {"name": name, "job": self.job, "parent": self._open[-1] if self._open else None, "counts": counts}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = process_time()
        try:
            yield counts
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = process_time()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


PARSER = build_parser()


def run_job(rec: Recorder, argv: list[str], workdir: str) -> Result:
    """Replay one CLI job in-process; the Result mirrors what the CLI prints."""
    args = PARSER.parse_args(argv)
    files: dict[str, str] = {}
    try:
        line = _VERBS[args.verb](rec, args, workdir, files)
    except OracleMismatch as exc:
        return Result(3, "", jsonio.dumps(exc.payload()) + "\n", files)
    except UltrametricError as exc:
        return Result(1, "", jsonio.dumps(exc.payload()) + "\n", files)
    except Exception as exc:  # the CLI would end in a traceback here
        return Result(1, "", f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n"[:2000], files)
    return Result(0, line + "\n", "", files)


def _read(workdir: str, path: str) -> str:
    try:
        with open(os.path.join(workdir, path), encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormat(f"cannot read {path}: {exc.strerror}", path=path) from exc


def _load_json(rec, workdir, path):
    text = _read(workdir, path)
    with rec.span("jsonio.loads", bytes=len(text)):
        return jsonio.loads(text)


def _coerce(rec, points, raw):
    with rec.span("rationals.as_rational", values=sum(len(row) for row in raw)):
        return points, [[as_rational(v) for v in row] for row in raw]


def _validate(rec, points, rows):
    with rec.span("spaces.validate_ultrametric", calls=1, points=len(points)) as counts:
        try:
            return validate_ultrametric(points, rows)
        except UltrametricError:
            counts["rejected"] = 1
            raise


def _raw(rec, obj):
    with rec.span("jsonio.loads"):
        return jsonio.raw_space_from_obj(obj)


def _load_space(rec, workdir, path, merge=False):
    obj = _load_json(rec, workdir, path)
    points, rows = _coerce(rec, *_raw(rec, obj))
    if merge:
        with rec.span("spaces.merge_duplicate_points"):
            points, rows = merge_duplicate_points(points, rows)
    return _validate(rec, points, rows)


def _dumps(rec, to_obj, value) -> str:
    with rec.span("jsonio.dumps") as counts:
        text = jsonio.dumps(to_obj(value))
        counts["bytes"] = len(text)
    return text


def _subset(rec, workdir, text):
    if text.startswith("@"):
        text = _read(workdir, text[1:])
    with rec.span("jsonio.loads", bytes=len(text)):
        return jsonio.subset_from_obj(jsonio.loads(text))


def _validate_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space, args.merge_duplicates)
    return _dumps(rec, jsonio.space_to_obj, space)


def _spectrum_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space)
    with rec.span("spaces.spectrum"):
        values = spectrum(space)
    return _dumps(rec, jsonio.rational_list_to_obj, values)


def _quotient_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space)
    t = parse_rational(args.t)
    with rec.span("spaces.closed_quotient"):
        q = closed_quotient(space, t)
    return _dumps(rec, jsonio.quotient_to_obj, q)


def _hausdorff_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space)
    a = _subset(rec, workdir, args.a)
    b = _subset(rec, workdir, args.b)
    with rec.span("hyperspace.hausdorff_distance"):
        value = hausdorff_distance(space, a, b)
    return _dumps(rec, lambda v: {"value": format_rational(v)}, value)


def _net_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space)
    eps = parse_rational(args.eps)
    with rec.span("hyperspace.epsilon_net"):
        net = epsilon_net(space, eps)
    return _dumps(rec, list, net)


def _glue_verb(rec, args, workdir, files):
    obj = _load_json(rec, workdir, args.gluespec)
    # The checks of jsonio.gluespec_from_obj, with its two space loads split
    # into parse, coercion and validation spans.
    if not isinstance(obj, dict):
        raise InputFormat("glue spec must be a JSON object")
    for key in ("x1", "x2", "identify"):
        if key not in obj:
            raise InputFormat(f'glue spec needs "{key}"')
    pairs = obj["identify"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p) for p in pairs
    ):
        raise InputFormat('"identify" must be a list of [left, right] label pairs')
    x1 = _validate(rec, *_coerce(rec, *_raw(rec, obj["x1"])))
    x2 = _validate(rec, *_coerce(rec, *_raw(rec, obj["x2"])))
    spec = GlueSpec(x1, x2, tuple((a, b) for a, b in pairs))
    with rec.span("amalgam.glue"):
        glued = glue(spec)
    return _dumps(rec, jsonio.space_to_obj, glued)


def _amalgam_verb(rec, args, workdir, files):
    a = _load_space(rec, workdir, args.space_a)
    b = _load_space(rec, workdir, args.space_b)
    s = parse_rational(args.s)
    with rec.span("amalgam.disjoint_amalgam"):
        glued = disjoint_amalgam(a, b, s)
    return _dumps(rec, jsonio.space_to_obj, glued)


def _ugh_verb(rec, args, workdir, files):
    a = _load_space(rec, workdir, args.space_a)
    b = _load_space(rec, workdir, args.space_b)
    with rec.span("gromov.ugh_distance", calls=1) as counts:
        result = ugh_distance(a, b)
    # Where the returned scale sits among the candidates, read off the
    # matrices here rather than inside the library.
    candidates = sorted({v for space in (a, b) for row in space.dist for v in row})
    counts["candidates"] = len(candidates)
    counts["scales_tried"] = candidates.index(result.value) + 1
    if args.oracle:
        with rec.span("oracle.ugh_oracle", calls=1):
            oracle_value = ugh_oracle(a, b)
        if oracle_value != result.value:
            raise OracleMismatch(
                f"scan reports {format_rational(result.value)} but the exhaustive "
                f"oracle reports {format_rational(oracle_value)}",
                scan=format_rational(result.value),
                oracle=format_rational(oracle_value),
            )
    if args.certificate:
        with rec.span("gromov.certificate"):
            cert = certificate(a, b, result)
        with rec.span("gromov.verify_certificate"):
            verify_certificate(cert, a, b)
        files[args.certificate] = _dumps(rec, jsonio.certificate_to_obj, cert) + "\n"
    return _dumps(rec, jsonio.ugh_result_to_obj, result)


def _gen_verb(rec, args, workdir, files):
    if args.family == "crowd":
        base = _load_space(rec, workdir, args.space)
        c = parse_rational(args.c)
        with rec.span("generators.crowd_family"):
            space = crowd_family(base, args.base, c, args.n)
    elif args.family == "random":
        constraint = spectrum_constraint(parse_rational_list(args.k))
        with rec.span("generators.random_space"):
            space = random_space(args.n, constraint, args.seed)
    else:
        raise ValueError(f"no replay for gen {args.family}")
    return _dumps(rec, jsonio.space_to_obj, space)


def _cluster_verb(rec, args, workdir, files):
    obj = _load_json(rec, workdir, args.input)
    points, rows = _coerce(rec, *_raw(rec, obj))
    if args.merge_duplicates:
        with rec.span("spaces.merge_duplicate_points"):
            points, rows = merge_duplicate_points(points, rows)
    with rec.span("generators.single_linkage"):
        space = single_linkage(points, rows)
    return _dumps(rec, jsonio.space_to_obj, space)


def _in_uk_verb(rec, args, workdir, files):
    space = _load_space(rec, workdir, args.space)
    constraint = spectrum_constraint(parse_rational_list(args.k))
    with rec.span("generators.in_uk"):
        membership = in_uk(space, constraint)
    if not membership.member:
        raise ValueError("no replay for a failed in-uk membership")
    return _dumps(rec, dict, {"member": True})


_VERBS = {
    "validate": _validate_verb,
    "spectrum": _spectrum_verb,
    "quotient": _quotient_verb,
    "hausdorff": _hausdorff_verb,
    "net": _net_verb,
    "glue": _glue_verb,
    "amalgam": _amalgam_verb,
    "ugh": _ugh_verb,
    "gen": _gen_verb,
    "cluster": _cluster_verb,
    "in-uk": _in_uk_verb,
}


def probe_pair(workdir: str, pair: tuple[str, str]) -> tuple[float, float]:
    """Seconds for to_dendrogram on both spaces and for isometry_witness on the pair."""
    spaces = []
    for path in pair:
        points, raw = jsonio.raw_space_from_obj(jsonio.loads(_read(workdir, path)))
        spaces.append(validate_ultrametric(points, raw))
    t0 = process_time()
    for space in spaces:
        to_dendrogram(space)
    t1 = process_time()
    isometry_witness(*spaces)
    return t1 - t0, process_time() - t1
