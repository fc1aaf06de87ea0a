"""The three workloads: seeded CLI job lists with the expected outcome of each job.

A workload is built from its seed alone.  ``build`` returns the input files to
write and the jobs to run against them; every job carries expectations derived
from the generator (see ``gen``), never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import gen
from gen import Space, dumps, fmt

WHY = {
    "construct": (
        "builds and ingests spaces of 40-110 points with every constructive verb; "
        "cubic validation and single-linkage closure dominate, the u_GH scan stops early"
    ),
    "ugh_scan": (
        "u_GH on deep-spectrum pairs of about 60 points, half needing the full candidate "
        "scan and half exiting early, plus small --oracle jobs; the scan dominates"
    ),
    "reject": (
        "inputs that must fail with exit 1 and one diagnostic: single-entry corruptions "
        "early, mid and late in validate's scan order, bad glue/amalgam/crowd/cluster inputs"
    ),
}

HOSTILE = "hostile"  # job id prefix of the known-defect inputs (traceback at this commit)


@dataclass
class Result:
    exit: int
    stdout: str
    stderr: str
    files: dict[str, str] = field(default_factory=dict)


@dataclass
class Job:
    id: str
    argv: list[str]
    n: int  # points of the largest input space
    exit: int = 0
    stdout: str | None = None  # exact expected stdout
    check: Callable[[Result], str | None] | None = None  # extra by-construction check
    error: tuple[str, ...] = ()  # acceptable diagnostic codes when exit != 0
    names: tuple[str, ...] = ()  # labels the diagnostic's "points" must include
    details: dict = field(default_factory=dict)  # exact diagnostic fields
    files: tuple[str, ...] = ()  # files the job writes, relative to the work dir
    pair: tuple[str, str] | None = None  # ugh_scan input pair, for the dendrogram probes


def problems(job: Job, result: Result, digests: dict | None) -> list[str]:
    """Everything wrong with one job's outcome; empty when it passed."""
    out = []
    if result.exit != job.exit:
        out.append(f"exit {result.exit}, expected {job.exit}")
    if "Traceback (most recent call last)" in result.stderr:
        out.append("traceback on stderr")
    elif job.exit == 0:
        if result.stderr:
            out.append("unexpected stderr")
    else:
        out.extend(_diagnostic_problems(job, result.stderr))
    if job.stdout is not None and result.stdout != job.stdout:
        out.append("stdout differs from the expected bytes")
    if job.check is not None and not out:
        problem = job.check(result)
        if problem:
            out.append(problem)
    if digests is not None and job.id in digests and digest(result) != digests[job.id]:
        out.append("output digest differs from the recorded one")
    return out


def _diagnostic_problems(job: Job, stderr: str) -> list[str]:
    lines = stderr.splitlines()
    if len(lines) != 1:
        return [f"expected one diagnostic line, got {len(lines)}"]
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError:
        return ["diagnostic is not JSON"]
    if not isinstance(payload, dict) or "error" not in payload:
        return ["diagnostic has no error code"]
    out = []
    if job.error and payload["error"] not in job.error:
        out.append(f"error {payload['error']}, expected {'/'.join(job.error)}")
    missing = [name for name in job.names if name not in payload.get("points", [])]
    if missing:
        out.append(f"witness {payload.get('points')} does not name {missing}")
    for key, value in job.details.items():
        if payload.get(key) != value:
            out.append(f"diagnostic {key}={payload.get(key)!r}, expected {value!r}")
    return out


def digest(result: Result) -> str:
    h = hashlib.sha256()
    for part in (str(result.exit), result.stdout, result.stderr, *sorted(result.files.items())):
        h.update(repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def build(workload: str, seed: int) -> tuple[dict[str, str], list[Job]]:
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []
    {"construct": _construct, "ugh_scan": _ugh_scan, "reject": _reject}[workload](rng, files, jobs)
    return files, jobs


def _put(files, name: str, space: Space) -> str:
    files[name] = space.text()
    return name


def _obj(space: Space) -> dict:
    return json.loads(space.text())


def _k_list(values) -> str:
    return ",".join(fmt(v) for v in [Fraction(0), *values])


# -- construct ------------------------------------------------------------------

def _construct(rng, files, jobs):
    grid = gen.grid_heights(64)

    s = gen.tree_space(rng, 100, grid)
    jobs.append(Job("validate", ["validate", _put(files, "validate.json", s)], 100, stdout=s.text()))

    s = gen.tree_space(rng, 90, grid)
    jobs.append(
        Job("spectrum", ["spectrum", _put(files, "spectrum.json", s)], 90,
            stdout=dumps([fmt(v) for v in s.spectrum()]))
    )

    s = gen.tree_space(rng, 110, grid)
    spec = s.spectrum()
    t = spec[len(spec) // 2]
    jobs.append(
        Job("quotient", ["quotient", _put(files, "quotient.json", s), "--t", fmt(t)], 110,
            stdout=gen.quotient_text(s, t))
    )

    s = gen.tree_space(rng, 90, grid)
    a = sorted(rng.sample(range(90), 30))
    b = sorted(rng.sample(range(90), 25))
    files["subset_a.json"] = dumps([s.labels[i] for i in a])
    files["subset_b.json"] = dumps([s.labels[i] for i in b])
    jobs.append(
        Job("hausdorff",
            ["hausdorff", _put(files, "hausdorff.json", s), "--a", "@subset_a.json", "--b", "@subset_b.json"],
            90, stdout=dumps({"value": fmt(gen.hausdorff(s, a, b))}))
    )

    s = gen.tree_space(rng, 100, grid)
    spec = s.spectrum()
    eps = spec[max(1, len(spec) // 3)]
    jobs.append(
        Job("net", ["net", _put(files, "net.json", s), "--eps", fmt(eps)], 100, stdout=gen.net_text(s, eps))
    )

    s = gen.tree_space(rng, 90, grid)
    jobs.append(
        Job("in_uk", ["in-uk", _put(files, "in_uk.json", s), "--k", _k_list(grid)], 90,
            stdout=dumps({"member": True}))
    )

    allowed = set(grid) | {Fraction(0)}
    jobs.append(
        Job("gen_random", ["gen", "random", "--n", "110", "--k", _k_list(grid), "--seed", str(rng.randrange(10**6))],
            110, check=lambda r: _generated_space_problem(r.stdout, 110, allowed))
    )

    m = gen.l1_metric(rng, 60)
    expected = Space(m.labels, gen.subdominant(m.dist))
    jobs.append(Job("cluster", ["cluster", "--input", _put(files, "metric.json", m)], 60, stdout=expected.text()))

    m = gen.l1_metric(rng, 60, duplicates=6)
    merged = gen.merged_duplicates(m)
    expected = Space(merged.labels, gen.subdominant(merged.dist))
    jobs.append(
        Job("cluster_merge", ["cluster", "--input", _put(files, "dirty_metric.json", m), "--merge-duplicates"],
            60, stdout=expected.text())
    )

    base = gen.tree_space(rng, 40, grid, prefix="y")
    point = rng.choice(base.labels)
    c = base.min_positive() / 2
    jobs.append(
        Job("gen_crowd",
            ["gen", "crowd", "--space", _put(files, "crowd_base.json", base), "--base", point, "--c", fmt(c), "--n", "25"],
            65, stdout=gen.crowd_space(base, point, c, 25).text())
    )

    whole = gen.tree_space(rng, 80, grid)
    x1 = whole.restrict(range(44))
    common = rng.sample(range(44), 8)
    x2 = whole.restrict(common + list(range(44, 80)))
    x2.labels = [f"b{k}" for k in range(1, 45)]
    identify = [[x1.labels[i], x2.labels[k]] for k, i in enumerate(common)]
    rng.shuffle(identify)
    files["gluespec.json"] = dumps({"x1": _obj(x1), "x2": _obj(x2), "identify": identify})
    jobs.append(Job("glue", ["glue", "gluespec.json"], 80, stdout=gen.glue_space(x1, x2, identify).text()))

    x = gen.tree_space(rng, 40, grid, prefix="u")
    y = gen.tree_space(rng, 40, grid, prefix="v")
    s_value = max(x.diameter(), y.diameter()) + Fraction(1, 8)
    jobs.append(
        Job("amalgam",
            ["amalgam", _put(files, "amalgam_a.json", x), _put(files, "amalgam_b.json", y), "--s", fmt(s_value)],
            80, stdout=gen.amalgam_space(x, y, s_value).text())
    )

    x = _caterpillar(rng, 50, "p")
    spec = x.spectrum()
    y, old = gen.perturb_bottom(x.permuted(rng, "q"), (spec[1] + spec[2]) / 2)
    value = max(old, (spec[1] + spec[2]) / 2)
    jobs.append(
        Job("ugh_certificate",
            ["ugh", _put(files, "cert_x.json", x), _put(files, "cert_y.json", y), "--certificate", "cert.json"],
            100, stdout=dumps({"value": fmt(value), "scale_witness": fmt(value)}), files=("cert.json",),
            check=lambda r: _certificate_problem(r.files.get("cert.json", ""), x, y, value))
    )


def _generated_space_problem(text: str, n: int, allowed) -> str | None:
    obj = json.loads(text)
    if sorted(obj["points"]) != sorted(f"x{k}" for k in range(1, n + 1)):
        return "generated labels are not x1..xn"
    dist = [[Fraction(v) for v in row] for row in obj["dist"]]
    if any(v not in allowed for row in dist for v in row):
        return "generated distance outside the allowed values"
    if not gen.is_ultrametric(dist):
        return "generated space is not an ultrametric"
    return None


def _certificate_problem(text: str, x: Space, y: Space, value) -> str | None:
    if not text:
        return "certificate file missing"
    cert = json.loads(text)
    if cert["achieved"] != fmt(value):
        return "certificate achieves another value"
    if cert["embed_left"] != {l: f"L:{l}" for l in x.labels} or cert["embed_right"] != {l: f"R:{l}" for l in y.labels}:
        return "certificate embeddings are not the disjoint-union ones"
    labels = cert["space"]["points"]
    dist = [[Fraction(v) for v in row] for row in cert["space"]["dist"]]
    if not gen.is_ultrametric(dist):
        return "certificate space is not an ultrametric"
    index = {label: i for i, label in enumerate(labels)}
    for side, source in (("L", x), ("R", y)):
        idx = [index[f"{side}:{l}"] for l in source.labels]
        if any(dist[idx[i]][idx[j]] != source.dist[i][j] for i in range(len(idx)) for j in range(len(idx))):
            return "certificate embedding distorts a distance"
    left = [index[f"L:{l}"] for l in x.labels]
    right = [index[f"R:{l}"] for l in y.labels]
    if gen.hausdorff(gen.Space(labels, dist), left, right) != value:
        return "certificate images are not at the claimed Hausdorff distance"
    return None


def _caterpillar(rng, n: int, prefix: str) -> Space:
    m = n // 2 + 2
    return gen.caterpillar(rng, gen.spine_counts(rng, n, m), gen.distinct_heights(rng, m), prefix)


# -- ugh_scan -------------------------------------------------------------------

def _ugh_scan(rng, files, jobs):
    def ugh_job(kind, x, y, value, extra=()):
        k = len(jobs)
        fx = _put(files, f"ugh{k}_x.json", x)
        fy = _put(files, f"ugh{k}_y.json", y)
        expected = None if value is None else dumps({"value": fmt(value), "scale_witness": fmt(value)})
        jobs.append(Job(f"{kind}{k}", ["ugh", fx, fy, *extra], max(len(x), len(y)), stdout=expected, pair=(fx, fy)))

    # Five pairs of each kind, all of about 60 points: the median job falls
    # among the early exits and the tail among the full scans, each time
    # inside a group of jobs of like cost rather than in a gap between kinds.
    #
    # Full scan: equal size and heights, but the top two spine levels take
    # their leaves in swapped numbers, so the quotients differ in shape at
    # every scale below the diameter.
    for n in (60,) * 5:
        m = n // 2 + 2
        counts = gen.spine_counts(rng, n, m)
        heights = gen.distinct_heights(rng, m)
        x = gen.caterpillar(rng, counts, heights, "p")
        y = gen.caterpillar(rng, counts[:-2] + [counts[-1], counts[-2]], heights, "q")
        ugh_job("full", x, y, heights[-1])
    # Early exit: a relabelled copy (distance 0) or a copy whose lowest merge
    # moved (distance = the larger of the two lowest heights).
    for n in (60, 62, 64):
        x = _caterpillar(rng, n, "p")
        ugh_job("copy", x, x.permuted(rng, "q"), Fraction(0))
    for n in (60, 62):
        x = _caterpillar(rng, n, "p")
        spec = x.spectrum()
        low = rng.choice((spec[1] / 2, (spec[1] + spec[2]) / 2))
        y, old = gen.perturb_bottom(x.permuted(rng, "q"), low)
        ugh_job("low", x, y, max(old, low))
    for n, m in ((3, 4), (4, 4), (4, 3)):
        heights = gen.distinct_heights(rng, 3, denominator=12)
        ugh_job("oracle", gen.tree_space(rng, n, heights, "p"), gen.tree_space(rng, m, heights, "q"), None, ("--oracle",))


# -- reject ---------------------------------------------------------------------

def _reject(rng, files, jobs):
    grid = gen.grid_heights(64)
    # The eight slowest jobs (triangle violations mid-scan at n=130 and late
    # at n=105, and the four non-validate rejections below) are sized to cost
    # about the same, so the tail falls inside that group rather than in a
    # gap between job kinds.  The other corruptions fail in the quadratic
    # symmetry pass.
    triangle_sizes = {"early": 130, "middle": 130, "late": 105}
    sizes = iter([110, 130, 150] * 3)
    for kind, (code, _) in gen.CORRUPTIONS.items():
        for place in gen.PLACES:
            n = triangle_sizes[place] if kind.startswith("triangle") else next(sizes)
            bad, pair = gen.corrupted_space(rng, n, grid, kind, place)
            name = _put(files, f"{kind}_{place}.json", bad)
            jobs.append(Job(f"{kind}_{place}", ["validate", name], n, exit=1, error=(code,), names=pair))

    # A metric whose (ordinary) triangle inequality fails on its last pair.
    m = gen.l1_metric(rng, 74)
    m.dist[72][73] = m.dist[73][72] = m.dist[72][73] + 2 * max(max(row) for row in m.dist)
    jobs.append(
        Job("cluster_triangle", ["cluster", "--input", _put(files, "not_metric.json", m)], 74, exit=1,
            error=("NotAMetric",), names=(m.labels[72], m.labels[73]), details={"kind": "triangle"})
    )

    # The right side is the left one scaled by 2, so the first off-diagonal
    # identified pair already disagrees.
    x1 = gen.balanced_space(rng, 84, grid)
    x2 = Space([f"b{k}" for k in range(1, 85)], [[2 * v for v in row] for row in x1.dist])
    common = rng.sample(range(84), 6)
    identify = [[x1.labels[i], x2.labels[i]] for i in common]
    files["glue_mismatch.json"] = dumps({"x1": _obj(x1), "x2": _obj(x2), "identify": identify})
    jobs.append(
        Job("glue_mismatch", ["glue", "glue_mismatch.json"], 84, exit=1, error=("MetricMismatchOnA",),
            details={"left": [identify[0][0], identify[1][0]], "right": [identify[0][1], identify[1][1]]})
    )

    x = gen.balanced_space(rng, 84, grid, prefix="u")
    y = gen.balanced_space(rng, 84, grid, prefix="v")
    required = max(x.diameter(), y.diameter())
    jobs.append(
        Job("amalgam_small",
            ["amalgam", _put(files, "small_a.json", x), _put(files, "small_b.json", y), "--s", fmt(required / 2)],
            84, exit=1, error=("ScaleTooSmall",), details={"required_minimum": fmt(required)})
    )

    base = gen.balanced_space(rng, 105, grid, prefix="y")
    bound = base.min_positive()
    jobs.append(
        Job("crowd_large",
            ["gen", "crowd", "--space", _put(files, "crowd_base.json", base), "--base", base.labels[0],
             "--c", fmt(bound), "--n", "5"],
            105, exit=1, error=("ScaleNotBelowMinDistance",), details={"bound": fmt(bound)})
    )

    # Known defects at this commit: both end in a Python traceback.
    depth = 100_000
    files["deep.json"] = '{"points": ["a"], "dist": ' + "[" * depth + "]" * depth + "}\n"
    files["huge.json"] = dumps({"points": ["a", "b"], "dist": [["0", "1e400000"], ["1e400000", "0"]]})
    for name in ("deep", "huge"):
        jobs.append(
            Job(f"{HOSTILE}_{name}", ["validate", f"{name}.json"], 2, exit=1, error=("InputFormat", "InstanceTooLarge"))
        )
