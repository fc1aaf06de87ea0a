"""Growth-rate bench of the constructions, timed in process, and the
start-up cost and CPU time of each CLI job.

Usage (from the repository root)::

    python3 bench/growth.py --src change=src --src parent=../parent/src -o BENCH.json

Each ``--src NAME=DIR`` is one column: a library source tree, imported from
``DIR`` by a fresh interpreter.  Every round runs each column once, in
alternating order, so the columns see the same host.  A run builds seeded
inputs, then times each of :data:`LAYERS` at each size, in CPU milliseconds,
best of ``--repeat`` calls: the constructions on spaces, the generators, the
closed quotient at scale 0 and at the middle value of the spectrum,
``restrict`` to every other point, ``single_linkage`` of an ultrametric
string matrix, ``ugh_distance`` of two freshly generated spaces, and the
three steps of a ``validate`` job on a space's JSON text: ``jsonio.loads``
(``read``), ``validate_ultrametric`` accepting the matrix read (``validate``)
and ``jsonio.dumps(jsonio.space_to_obj(...))`` of the space it returns
(``write``).  The
fixed reference job ``perfbench/reference.py`` runs before and after every
run, and each time is also given scaled: divided by the mean CPU seconds of
those two reference runs, so ``scaled`` counts milliseconds per
reference-second and follows the program, not the host's speed.  A column
keeps, per layer and size, its best time over the rounds (``ms``,
``scaled``), the median over the rounds (``median_ms``, ``median_scaled``)
and their interquartile range (``iqr_ms``, ``iqr_scaled``; 0 over one
round).  With two or more columns, each later column's medians are also
given as ratios to the first column's (``ratios``), raw and scaled, and
printed to stderr: a column run shares its reference pair with no other
column, so a scaled ratio can drift with the host while the raw medians of
interleaved rounds do not.  Each printed ratio stands beside the first
column's interquartile range over its median, raw and scaled; a ratio nearer
1 than that cannot be told from the host.

The start-up row (``startup``) is the source a CLI job compiles, since a job
started with ``PYTHONDONTWRITEBYTECODE=1`` compiles every package module it
imports.  Per package module it gives the AST nodes of its source and the
median CPU milliseconds of ``compile()`` over the rounds; per clean job of
every verb (:data:`JOBS`, run from ``tests/golden``), the package modules the
job leaves loaded and their sums.  That separates the package's share from
interpreter start-up.  The printed report gives each later column's job sum
of nodes also as its difference from the first column's.  Its compile times
are warm: the median of repeated ``compile()`` calls in one process.  A job
compiles each module once, cold, so the row understates a job's compile
cost: on a ``ugh`` job (Python 3.11.7, 2 vCPUs, shared host) the warm sum
was 7.8-9.5 ms against 9.6-16.1 ms timed cold at ``importlib``'s
``SourceLoader.source_to_code``, 1.2-1.9x.  The CLI rows' program share
below includes the cold compile, so it is the figure a job pays.

The CLI rows (``cli``) time whole processes, started from ``tests/golden``
with ``PYTHONDONTWRITEBYTECODE=1`` inside the column run's reference pair:
each of :data:`JOBS` as ``python -m ultrametric`` (``jobs``), and the bare
interpreter as ``python -c pass`` and ``python -S -c pass`` (``bare``), so
the host's ``site`` start-up shows apart from the program's.  A round's
time of a row is the median child CPU milliseconds of :data:`CLI_RUNS`
passes over every row, and each row keeps its best round, the median over
the rounds and their interquartile range, raw and scaled, as the layers do.
In each pass every job also runs right next to a ``python -c pass``, the two
alternating which goes first, and the job's time minus that bare run's is
the pass's program share: the two see the same host, so the share drifts far
less than either time.  A job row keeps the median of the per-round median
shares (``share_ms``) and their interquartile range (``share_iqr_ms``), so a
change smaller than that spread cannot be told from the host.

No timing is checked; :func:`check_schema` checks the file's form only, of
this schema and of the earlier ones (the first kept the best time only, the
second had no start-up row and no ratios, the third no CLI rows, the fourth
no program shares, the fifth no read, validate and write rows, and the sixth
kept an interquartile range of the program shares only).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.py"
GOLDEN = ROOT / "tests" / "golden"
VERSION = 7
SCHEMA = f"ultrametric-growth/{VERSION}"
# The first schema's layers, whose entries held the best time only.
LAYERS_1 = ("glue", "disjoint_amalgam", "crowd_family", "certificate", "chain_glue")
# The layers of schemas 2 to 5.
LAYERS_5 = (
    *LAYERS_1,
    "random_space",
    "cauchy_sequence",
    "closed_quotient_t0",
    "closed_quotient_mid",
    "restrict",
    "single_linkage",
    "ugh_distance_fresh",
)
LAYERS = (*LAYERS_5, "read", "validate", "write")
SEEDS = (1, 2)
# Glue's cross loop was cubic before it became a spanning forest: 30 s at
# n = 800, so no column times it above 400 points.  crowd_family adds n
# points to n, which the generators' cell budget allows up to n = 724.
MAX_N = {"glue": 400, "crowd_family": 724}
CHAIN_PART = 20  # points per space of the chain_glue chain, one shared per link
# A clean job of every verb and family, on the corpus inputs.
JOBS = {
    "validate": ["validate", "isosceles.json"],
    "validate_merge": ["validate", "dirty_space.json", "--merge-duplicates"],
    "spectrum": ["spectrum", "isosceles.json"],
    "quotient": ["quotient", "isosceles.json", "--t", "1"],
    "hausdorff": ["hausdorff", "isosceles.json", "--a", '["a"]', "--b", '["b"]'],
    "net": ["net", "isosceles.json", "--eps", "1"],
    "glue": ["glue", "gluespec.json"],
    "amalgam": ["amalgam", "pair.json", "single.json", "--s", "1"],
    "ugh": ["ugh", "x_half.json", "x_three_quarters.json"],
    "ugh_oracle": ["ugh", "x_half.json", "x_three_quarters.json", "--oracle"],
    "ugh_certificate": ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", os.devnull],
    "gen_two_point": ["gen", "two-point", "--c", "1/2"],
    "gen_crowd": ["gen", "crowd", "--space", "pair.json", "--base", "a", "--c", "1/2", "--n", "1"],
    "gen_cauchy": ["gen", "cauchy", "--depth", "2"],
    "gen_random": ["gen", "random", "--n", "3", "--k", "0,1", "--seed", "1"],
    "cluster": ["cluster", "--input", "metric.json"],
    "in_uk": ["in-uk", "isosceles.json", "--k", "0,1,2"],
}
# The bare-interpreter rows: start-up and exit with and without ``site``.
BARE = {"python -c pass": ["-c", "pass"], "python -S -c pass": ["-S", "-c", "pass"]}
# Runs of each CLI row per column run; the median is that round's time.
CLI_RUNS = 3
# The bare run paired with each job run, whose time the job's share leaves out.
PAIRED = BARE["python -c pass"]
# Runs the CLI as ``python -m ultrametric`` does, then prints the package
# modules it left loaded as the last line of stdout.  The job's ``os._exit``
# raises SystemExit instead, so the child goes on to print; a source tree
# whose job exits normally raises it anyway.
LIST_MODULES = """
import json, os, runpy, sys
sys.argv = ["ultrametric", *sys.argv[1:]]
os._exit = sys.exit
try:
    runpy.run_module("ultrametric", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "ultrametric")))
"""


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_reference() -> float:
    """CPU seconds of one run of the reference job."""
    cpu = children_cpu()
    subprocess.run([sys.executable, str(REFERENCE)], check=True, capture_output=True)
    return children_cpu() - cpu


def measure(sizes: list[int], repeat: int) -> dict:
    """Best CPU milliseconds per layer and size; runs in the column's interpreter."""
    import gc
    import time
    from fractions import Fraction

    from ultrametric import (
        GlueSpec,
        cauchy_sequence,
        certificate,
        chain_glue,
        closed_quotient,
        crowd_family,
        disjoint_amalgam,
        glue,
        random_space,
        restrict,
        single_linkage,
        spectrum_constraint,
        ugh_distance,
        validate_ultrametric,
    )
    from ultrametric import jsonio
    from ultrametric.rationals import format_rational

    grid = spectrum_constraint([Fraction(k, 64) for k in range(65)])

    def read(space, prefix=""):
        # Validated like a CLI input, so each space holds its chain before timing.
        return validate_ultrametric([prefix + l for l in space.labels], space.dist)

    def best(call, inputs=tuple) -> float:
        """Best time of ``call(*inputs())``, the inputs made untimed per call."""
        times = []
        for _ in range(repeat):
            args = inputs()
            gc.collect()
            start = time.process_time()
            call(*args)
            times.append(time.process_time() - start)
        return min(times) * 1000

    out = {layer: {} for layer in LAYERS}
    for n in sizes:
        x, y = (read(random_space(n, grid, seed)) for seed in SEEDS)
        twin = read(x, "m:")
        result = ugh_distance(x, y)
        part = min(CHAIN_PART, n)
        chain = [read(random_space(part, grid, k), f"{k}:") for k in range(max(1, n // part) + 1)]
        links = [[(a.labels[-1], b.labels[0])] for a, b in zip(chain, chain[1:])]
        if n <= MAX_N["glue"]:
            spec = GlueSpec(x, twin, [(l, "m:" + l) for l in x.labels[: max(1, n // 2)]])
            out["glue"][n] = best(lambda: glue(spec))
        out["disjoint_amalgam"][n] = best(lambda: disjoint_amalgam(x, y, 1))
        if n <= MAX_N["crowd_family"]:
            out["crowd_family"][n] = best(lambda: crowd_family(x, x.labels[0], Fraction(1, 128), n))
        out["certificate"][n] = best(lambda: certificate(x, y, result))
        out["chain_glue"][n] = best(lambda: chain_glue(chain, links))
        out["random_space"][n] = best(lambda: random_space(n, grid, SEEDS[0]))
        out["cauchy_sequence"][n] = best(lambda: cauchy_sequence(n - 1))
        out["closed_quotient_t0"][n] = best(lambda: closed_quotient(x, 0))
        middle = x.values[len(x.values) // 2]
        out["closed_quotient_mid"][n] = best(lambda: closed_quotient(x, middle))
        out["restrict"][n] = best(lambda: restrict(x, x.labels[::2]))
        text = [[format_rational(v) for v in row] for row in x.dist]
        out["single_linkage"][n] = best(lambda: single_linkage(x.labels, text))

        def fresh():  # new spaces per call, so no call reuses a chain another found
            return [random_space(n, grid, seed) for seed in SEEDS]

        out["ugh_distance_fresh"][n] = best(ugh_distance, fresh)
        written = jsonio.dumps(jsonio.space_to_obj(x))
        out["read"][n] = best(lambda: jsonio.loads(written))
        points, dist = jsonio.raw_space_from_obj(jsonio.loads(written))
        out["validate"][n] = best(lambda: validate_ultrametric(points, dist))
        out["write"][n] = best(
            lambda space: jsonio.dumps(jsonio.space_to_obj(space)), lambda: (validate_ultrametric(points, dist),)
        )
    return out


def compile_times(src: Path, repeat: int) -> dict:
    """Median CPU milliseconds of ``compile()`` per package module."""
    import time

    out = {}
    for path in sorted((src / "ultrametric").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        times = []
        for _ in range(repeat):
            start = time.process_time()
            compile(text, str(path), "exec")
            times.append(time.process_time() - start)
        out[module_name(path)] = statistics.median(times) * 1000
    return out


def module_name(path: Path) -> str:
    return "ultrametric" if path.stem == "__init__" else f"ultrametric.{path.stem}"


def ast_nodes(src: Path) -> dict:
    """AST nodes of each package module's source."""
    return {
        module_name(path): sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))
        for path in sorted((src / "ultrametric").glob("*.py"))
    }


def column_env(src: Path) -> dict:
    """The environment of a child that imports the package from ``src`` and
    compiles it from source."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def job_modules(src: Path) -> dict:
    """The package modules each of :data:`JOBS` leaves loaded."""
    env = column_env(src)
    out = {}
    for job, argv in JOBS.items():
        proc = subprocess.run(
            [sys.executable, "-c", LIST_MODULES, *argv], cwd=GOLDEN, env=env, check=True, capture_output=True, text=True
        )
        out[job] = json.loads(proc.stdout.splitlines()[-1])
    return out


def startup(src: Path, compile_ms: dict) -> dict:
    """The start-up row of a column: per module, then per job."""
    nodes = ast_nodes(src)
    modules = {name: {"nodes": nodes[name], "compile_ms": round(ms, 3)} for name, ms in compile_ms.items()}
    jobs = {
        job: {
            "modules": loaded,
            "nodes": sum(nodes[name] for name in loaded),
            "compile_ms": round(sum(compile_ms[name] for name in loaded), 3),
        }
        for job, loaded in job_modules(src).items()
    }
    return {"modules": modules, "jobs": jobs}


def digest(src: Path) -> str:
    """SHA-256 over the package's sources, by relative path."""
    h = hashlib.sha256()
    for path in sorted((src / "ultrametric").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_cli(src: Path) -> tuple[dict, dict]:
    """Child CPU milliseconds of each of :data:`JOBS` as ``python -m
    ultrametric`` and of each :data:`BARE` command, and each job's program
    share: the medians of :data:`CLI_RUNS` passes over all of them.

    In a pass each job runs next to a :data:`PAIRED` bare run, the job first
    at even turns and the bare run first at odd ones, counting the turns over
    every job of every pass; its share is its time minus that bare run's."""
    env = column_env(src)
    jobs = {job: ["-m", "ultrametric", *argv] for job, argv in JOBS.items()}
    runs = {name: [] for name in (*jobs, *BARE)}
    shares = {job: [] for job in jobs}

    def cpu_ms(args):
        cpu = children_cpu()
        subprocess.run([sys.executable, *args], cwd=GOLDEN, env=env, check=True, capture_output=True)
        return (children_cpu() - cpu) * 1000

    for p in range(CLI_RUNS):
        for turn, (job, args) in enumerate(jobs.items(), p * len(jobs)):
            if turn % 2:
                bare, ms = cpu_ms(PAIRED), cpu_ms(args)
            else:
                ms, bare = cpu_ms(args), cpu_ms(PAIRED)
            runs[job].append(ms)
            shares[job].append(ms - bare)
        for name, args in BARE.items():
            runs[name].append(cpu_ms(args))
    median = {name: statistics.median(ms) for name, ms in runs.items()}
    return median, {job: statistics.median(ms) for job, ms in shares.items()}


def run_column(src: Path, sizes: list[int], repeat: int) -> dict:
    """One worker run: ``{"layers": ..., "compile_ms": ...}``."""
    env = column_env(src)
    argv = [sys.executable, __file__, "--worker", "--sizes", ",".join(map(str, sizes))]
    proc = subprocess.run([*argv, "--repeat", str(repeat)], env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def slope(times: dict) -> float | None:
    """Log-log slope between the two largest sizes, or None below two sizes."""
    if len(times) < 2:
        return None
    (n1, t1), (n2, t2) = sorted((int(n), t) for n, t in times.items())[-2:]
    return round(math.log(t2 / t1) / math.log(n2 / n1), 3) if t1 > 0 and t2 > 0 else None


def bench(columns: dict[str, Path], sizes: list[int], repeat: int, rounds: int) -> dict:
    runs = {name: {layer: {} for layer in LAYERS} for name in columns}
    compiles = {name: {} for name in columns}
    cli = {name: {} for name in columns}
    shares = {name: {job: [] for job in JOBS} for name in columns}
    refs = []
    for r in range(rounds):
        names = list(columns) if r % 2 == 0 else list(reversed(columns))
        for name in names:
            before = run_reference()
            out = run_column(columns[name], sizes, repeat)
            jobs, share = run_cli(columns[name])
            after = run_reference()
            refs += [before, after]
            for job, ms in jobs.items():
                cli[name].setdefault(job, []).append((ms, ms / ((before + after) / 2)))
            for job, ms in share.items():
                shares[name][job].append(ms)
            for layer, by_n in out["layers"].items():
                for n, ms in by_n.items():
                    runs[name][layer].setdefault(n, []).append((ms, ms / ((before + after) / 2)))
            for module, ms in out["compile_ms"].items():
                compiles[name].setdefault(module, []).append(ms)
    kept = {
        name: {layer: {n: summary(timed) for n, timed in by_n.items()} for layer, by_n in layers.items()}
        for name, layers in runs.items()
    }
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "sizes": sizes,
        "repeat": repeat,
        "rounds": rounds,
        "seeds": list(SEEDS),
        "reference_cpu_s": [round(ref, 4) for ref in refs],
        "columns": {
            name: {
                "digest": digest(src),
                "times": kept[name],
                "slopes": {layer: slope({n: e["scaled"] for n, e in by_n.items()}) for layer, by_n in kept[name].items()},
                "startup": startup(src, {m: statistics.median(ms) for m, ms in compiles[name].items()}),
                "cli": {
                    "jobs": {job: {**summary(cli[name][job]), **spread(shares[name][job])} for job in JOBS},
                    "bare": {command: summary(cli[name][command]) for command in BARE},
                },
            }
            for name, src in columns.items()
        },
        "ratios": ratios(kept),
    }


def ratios(kept: dict) -> dict:
    """Each later column's medians over the first column's, per layer and size:
    ``raw`` from ``median_ms``, ``scaled`` from ``median_scaled``."""
    (_, base), *rest = kept.items()
    return {
        name: {
            layer: {
                n: {
                    kind: round(entry[field] / base[layer][n][field], 3) if base[layer][n][field] > 0 else None
                    for kind, field in (("raw", "median_ms"), ("scaled", "median_scaled"))
                }
                for n, entry in by_n.items()
            }
            for layer, by_n in layers.items()
        }
        for name, layers in rest
    }


FIELDS = {"ms", "scaled", "median_ms", "median_scaled"}
# The fields a row gained in schema 7.
IQR_FIELDS = {"iqr_ms", "iqr_scaled"}


def iqr(values: list[float]) -> float:
    """The interquartile range of ``values``, 0 over one value."""
    q1, _, q3 = statistics.quantiles(values, method="inclusive") if len(values) > 1 else values * 3
    return round(q3 - q1, 3)


def summary(timed: list[tuple[float, float]]) -> dict:
    """The round with the best scaled time, and the medians over the rounds
    and their interquartile ranges."""
    ms, scaled = min(timed, key=lambda pair: pair[1])
    raw, scales = [pair[0] for pair in timed], [pair[1] for pair in timed]
    return {
        "ms": round(ms, 3),
        "scaled": round(scaled, 3),
        "median_ms": round(statistics.median(raw), 3),
        "median_scaled": round(statistics.median(scales), 3),
        "iqr_ms": iqr(raw),
        "iqr_scaled": iqr(scales),
    }


SHARE_FIELDS = {"share_ms", "share_iqr_ms"}


def spread(shares: list[float]) -> dict:
    """The median of a job's per-round program shares, and their
    interquartile range (0 over one round)."""
    return {"share_ms": round(statistics.median(shares), 3), "share_iqr_ms": iqr(shares)}


def check_schema(doc: dict) -> None:
    """Raise AssertionError unless ``doc`` has the form :func:`bench` writes,
    or the form of an earlier schema."""
    version = {f"ultrametric-growth/{v}": v for v in range(1, VERSION + 1)}.get(doc["schema"])
    assert version, doc["schema"]
    layers, fields = (LAYERS if version >= 6 else LAYERS_5, FIELDS | IQR_FIELDS if version >= 7 else FIELDS)
    if version == 1:
        layers, fields = (LAYERS_1, {"ms", "scaled"})
    assert isinstance(doc["python"], str) and isinstance(doc["cpus"], int)
    sizes = doc["sizes"]
    assert sizes and all(isinstance(n, int) and n > 0 for n in sizes)
    assert doc["repeat"] >= 1 and doc["rounds"] >= 1 and doc["seeds"] == list(SEEDS)
    assert len(doc["reference_cpu_s"]) == 2 * doc["rounds"] * len(doc["columns"]) > 0
    for column in doc["columns"].values():
        assert len(column["digest"]) == 64
        assert set(column["times"]) == set(column["slopes"]) == set(layers)
        for layer, by_n in column["times"].items():
            want = [n for n in sizes if n <= MAX_N.get(layer, n)]
            assert sorted(map(int, by_n)) == want, (layer, sorted(by_n))
            for entry in by_n.values():
                assert set(entry) == fields and all(entry[field] >= 0 for field in fields)
            assert column["slopes"][layer] is None or isinstance(column["slopes"][layer], float)
    if version <= 2:
        return
    for column in doc["columns"].values():
        if version >= 4:
            rows = column["cli"]
            assert set(rows) == {"jobs", "bare"}
            assert set(rows["jobs"]) == set(JOBS) and set(rows["bare"]) == set(BARE)
            shared = SHARE_FIELDS if version >= 5 else set()
            for entry in rows["jobs"].values():
                assert set(entry) == fields | shared and all(entry[field] >= 0 for field in fields)
                assert not shared or (isinstance(entry["share_ms"], float) and entry["share_iqr_ms"] >= 0)
            for entry in rows["bare"].values():
                assert set(entry) == fields and all(entry[field] >= 0 for field in fields)
        modules, jobs = column["startup"]["modules"], column["startup"]["jobs"]
        assert "ultrametric" in modules and set(jobs) == set(JOBS), sorted(jobs)
        for entry in modules.values():
            assert entry["nodes"] > 0 and entry["compile_ms"] >= 0
        for job, entry in jobs.items():
            assert {"ultrametric", "ultrametric.cli"} <= set(entry["modules"]) <= set(modules), job
            assert entry["nodes"] == sum(modules[m]["nodes"] for m in entry["modules"]), job
            assert entry["compile_ms"] >= 0, job
    names = list(doc["columns"])
    assert list(doc["ratios"]) == names[1:]
    for name, ratio in doc["ratios"].items():
        assert set(ratio) == set(layers)
        for layer, by_n in ratio.items():
            assert set(by_n) == set(doc["columns"][name]["times"][layer]), (name, layer)
            for entry in by_n.values():
                assert set(entry) == {"raw", "scaled"}


def report(doc: dict) -> str:
    """The ratios and the start-up sums as text, one line per layer or job."""
    first, *rest = doc["columns"]
    lines = []
    base = doc["columns"][first]["times"]
    for name in rest:
        lines.append(f"{first} -> {name}, ratio of medians (raw, scaled) [{first}'s IQR over its median]:")
        for layer, by_n in doc["ratios"][name].items():
            cells = ", ".join(
                f"n={n} {e['raw']}x/{e['scaled']}x [{relative_iqr(base[layer][n])}]" for n, e in by_n.items()
            )
            lines.append(f"  {layer}: {cells}")
    lines.append("start-up, package AST nodes and compile ms per job (nodes from the first column):")
    for job in JOBS:
        rows = [(name, c["startup"]["jobs"][job]) for name, c in doc["columns"].items()]
        base = rows[0][1]["nodes"]
        cells = ", ".join(
            f"{name} {e['nodes']} / {e['compile_ms']:.2f}" + (f" ({e['nodes'] - base:+d})" if k else "")
            for k, (name, e) in enumerate(rows)
        )
        lines.append(f"  {job}: {cells}")
    lines.append("CLI, median child CPU ms per job (raw / scaled):")
    for job in (*JOBS, *BARE):
        kind = "jobs" if job in JOBS else "bare"
        cells = ", ".join(
            f"{name} {c['cli'][kind][job]['median_ms']:.1f} / {c['cli'][kind][job]['median_scaled']:.1f}"
            for name, c in doc["columns"].items()
        )
        lines.append(f"  {job}: {cells}")
    lines.append("CLI, program share per job: median ms over the rounds (IQR):")
    for job in JOBS:
        cells = ", ".join(
            f"{name} {c['cli']['jobs'][job]['share_ms']:.1f} ({c['cli']['jobs'][job]['share_iqr_ms']:.1f})"
            for name, c in doc["columns"].items()
        )
        lines.append(f"  {job}: {cells}")
    return "\n".join(lines) + "\n"


def relative_iqr(entry: dict) -> str:
    """A layer entry's interquartile ranges over its medians, raw and scaled."""
    return "/".join(
        f"{entry[iqr_field] / entry[field]:.3f}" if entry[field] > 0 else "-"
        for iqr_field, field in (("iqr_ms", "median_ms"), ("iqr_scaled", "median_scaled"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="NAME=DIR", help="a column (default change=src)")
    parser.add_argument("--sizes", default="100,200,400", help="comma-separated point counts")
    parser.add_argument("--repeat", type=int, default=3, help="calls per layer and size, best kept")
    parser.add_argument("--rounds", type=int, default=3, help="runs per column, interleaved")
    parser.add_argument("-o", "--output", help="write the JSON here (default stdout)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    if args.worker:
        import ultrametric

        src = Path(ultrametric.__file__).resolve().parent.parent
        print(json.dumps({"layers": measure(sizes, args.repeat), "compile_ms": compile_times(src, args.repeat)}))
        return 0
    columns = dict(spec.split("=", 1) for spec in args.src or ["change=src"])
    doc = bench({name: Path(src).resolve() for name, src in columns.items()}, sizes, args.repeat, args.rounds)
    check_schema(doc)
    sys.stderr.write(report(doc))
    text = json.dumps(doc, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
