"""Growth-rate bench of the constructions and of each CLI job, timed in
same-moment pairs.

Usage (from the repository root)::

    python3 bench/growth.py --src parent=../parent/src --src change=src -o BENCH.json

Each ``--src NAME=DIR`` is one column: the library source tree in ``DIR``,
imported into this one process as its own package ``growth_column_<k>``, so
its relative imports and lazy names resolve inside that tree.  At each size
every column builds seeded inputs with its own package, and the bench times
each of :data:`LAYERS` in CPU milliseconds, best of ``--repeat`` calls, each
after a garbage collection: the constructions on spaces, the generators, the
closed quotient at scale 0 and at the middle value of the spectrum,
``restrict`` to every other point, ``single_linkage`` of an ultrametric
string matrix, ``ugh_distance`` of two freshly generated spaces, the three
steps of a ``validate`` job on a space's JSON text: ``jsonio.loads``
(``read``), ``validate_ultrametric`` accepting the matrix read
(``validate``) and ``jsonio.dumps(jsonio.space_to_obj(...))`` of the space
it returns (``write``), and ``single_linkage`` of a collinear metric
(``single_linkage_collinear``): seeded distinct positions ``k/3`` on a line,
nearly every distance its own spelling and only neighbours cleared by the
subdominant, so the row shows both the matrix reader's sort and the triangle
scan.  Library calls only: a CLI job ends in ``os._exit``.

A round times a layer for every column back to back, then the next layer;
the first column rotates round by round, and ``--rounds`` counts the rounds.
The two times of a pair share the host's moment and the process, so their
ratio leaves out the host's drift and the bias a process's layout gives its
timings.  A column keeps, per layer and size, the best time over the rounds
(``ms``), the median (``median_ms``) and their interquartile range
(``iqr_ms``, 0 over one round); ``slopes`` come from the medians.  With two
or more columns, ``ratios`` holds each later column's median and
interquartile range of its same-round ratios to the first column, per layer
and size, as printed to stderr: a median nearer 1 than its IQR cannot be
told from the host.  One timer serves every row: :func:`best` reads the CPU
time of this process and of its waited-for children, so a layer, which
starts no child, is timed in this process alone, and a process is timed
whole.  The bench's own CPU to start and wait for a child (0.36 ms median
against 36.2 ms for a ``python -c pass`` child, 20 runs) is paid by both
columns of a pair.

The CLI rows (``cli``) are paired as the layers are: each clean job of every
verb in :data:`JOBS` as ``python -m ultrametric`` (``jobs``), and ``python -c
pass`` and ``python -S -c pass`` (``bare``), so the host's ``site`` start-up
shows apart from the program's, each run from ``tests/golden`` with
``PYTHONDONTWRITEBYTECODE=1`` for every column back to back.  So a job
compiles each package module it imports once, cold, and its row includes that
compile: 9.6-16.1 ms at ``importlib``'s ``SourceLoader.source_to_code`` on a
``ugh`` job (Python 3.11.7, 2 vCPUs, shared host).  The rows keep a layer's
fields, and ``cli_ratios`` gives their same-round ratios as ``ratios`` does.
A job is a process of some 45 ms, so about 1 ms is the floor of what a run
resolves: at n = 100, 11 rounds, best of 3 (Python 3.11.7, 2 vCPUs, shared
host), a CPU loop of 5.3 ms planted in ``validate``'s handler read 1.139x (IQR
0.073) on ``validate``, and one of 1.0 ms read 1.023x (IQR 0.019), while the
jobs that do not run it read 0.992-1.014x.

No timing is checked.  :func:`check_schema` checks the form of a file of
this schema, ``ultrametric-growth/10``, and refuses any other; the committed
files of earlier schemas are pinned by their SHA-256 digests in the tests.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCHEMA = "ultrametric-growth/10"
LAYERS = (
    "glue",
    "disjoint_amalgam",
    "crowd_family",
    "certificate",
    "chain_glue",
    "random_space",
    "cauchy_sequence",
    "closed_quotient_t0",
    "closed_quotient_mid",
    "restrict",
    "single_linkage",
    "ugh_distance_fresh",
    "read",
    "validate",
    "write",
    "single_linkage_collinear",
)
SEEDS = (1, 2)
# Glue's cross loop was cubic before it became a spanning forest: 30 s at
# n = 800, so no column times it above 400 points.  crowd_family adds n
# points to n, which the generators' cell budget allows up to n = 724.  A
# collinear single linkage grows as n^2.7, 2.4 s at n = 400.
MAX_N = {"glue": 400, "crowd_family": 724, "single_linkage_collinear": 400}
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


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def load(name: str, src: Path):
    """The package of ``src`` imported as ``name``, after any earlier package
    of that name and its submodules are dropped from ``sys.modules``."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    package = src / "ultrametric"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(package: str, n: int) -> dict:
    """``(call, inputs)`` per layer at size ``n``: the layer is
    ``call(*inputs())``.  The seeded inputs are built and validated by the
    column's own ``package``, like a CLI input, so each space holds its chain
    before timing."""
    lib, jsonio = import_module(package), import_module(f"{package}.jsonio")
    grid = lib.spectrum_constraint([Fraction(k, 64) for k in range(65)])

    def read(space, prefix=""):
        return lib.validate_ultrametric([prefix + l for l in space.labels], space.dist)

    x, y = (read(lib.random_space(n, grid, seed)) for seed in SEEDS)
    twin = read(x, "m:")
    result = lib.ugh_distance(x, y)
    part = min(CHAIN_PART, n)
    chain = [read(lib.random_space(part, grid, k), f"{k}:") for k in range(max(1, n // part) + 1)]
    links = [[(a.labels[-1], b.labels[0])] for a, b in zip(chain, chain[1:])]
    spec = lib.GlueSpec(x, twin, [(l, "m:" + l) for l in x.labels[: max(1, n // 2)]])
    middle = x.values[len(x.values) // 2]
    text = [[lib.format_rational(v) for v in row] for row in x.dist]
    line = random.Random(SEEDS[0]).sample(range(10**6), n)
    collinear = [[f"{abs(a - b)}/3" for b in line] for a in line]
    written = jsonio.dumps(jsonio.space_to_obj(x))
    points, dist = jsonio.raw_space_from_obj(jsonio.loads(written))
    calls = {
        "glue": lambda: lib.glue(spec),
        "disjoint_amalgam": lambda: lib.disjoint_amalgam(x, y, 1),
        "crowd_family": lambda: lib.crowd_family(x, x.labels[0], Fraction(1, 128), n),
        "certificate": lambda: lib.certificate(x, y, result),
        "chain_glue": lambda: lib.chain_glue(chain, links),
        "random_space": lambda: lib.random_space(n, grid, SEEDS[0]),
        "cauchy_sequence": lambda: lib.cauchy_sequence(n - 1),
        "closed_quotient_t0": lambda: lib.closed_quotient(x, 0),
        "closed_quotient_mid": lambda: lib.closed_quotient(x, middle),
        "restrict": lambda: lib.restrict(x, x.labels[::2]),
        "single_linkage": lambda: lib.single_linkage(x.labels, text),
        "single_linkage_collinear": lambda: lib.single_linkage(x.labels, collinear),
        "read": lambda: jsonio.loads(written),
        "validate": lambda: lib.validate_ultrametric(points, dist),
    }
    out = {layer: (call, tuple) for layer, call in calls.items()}
    # New spaces per call, so no call reuses a chain another found.
    out["ugh_distance_fresh"] = (lib.ugh_distance, lambda: [lib.random_space(n, grid, seed) for seed in SEEDS])
    out["write"] = (
        lambda space: jsonio.dumps(jsonio.space_to_obj(space)),
        lambda: (lib.validate_ultrametric(points, dist),),
    )
    return {layer: out[layer] for layer in LAYERS if n <= MAX_N.get(layer, n)}


def cli_cases(src: Path) -> dict:
    """``(call, inputs)`` per CLI row: each of :data:`JOBS` as ``python -m
    ultrametric`` and each :data:`BARE` command, run from ``tests/golden``
    under :func:`column_env`."""
    env = column_env(src)

    def run(*args):
        subprocess.run([sys.executable, *args], cwd=GOLDEN, env=env, check=True, capture_output=True)

    rows = {**{job: ["-m", "ultrametric", *argv] for job, argv in JOBS.items()}, **BARE}
    return {row: (run, lambda args=tuple(args): args) for row, args in rows.items()}


def best(call, inputs, repeat: int) -> float:
    """Best CPU milliseconds of ``call(*inputs())``, this process's and its
    waited-for children's, over ``repeat`` calls, the inputs made untimed and
    the garbage collected before each call."""
    times = []
    for _ in range(repeat):
        args = inputs()
        gc.collect()
        start = time.process_time() + children_cpu()
        call(*args)
        times.append(time.process_time() + children_cpu() - start)
    return min(times) * 1000


def rotated(names: list, r: int) -> list:
    """``names`` in round ``r``'s order: the first column rotates."""
    k = r % len(names)
    return names[k:] + names[:k]


def pair_rounds(by_column: dict, rounds: int, repeat: int) -> dict:
    """Each column's :func:`best` time of each of its cases, per round.  A
    round times each case for every column that has it back to back, in
    :func:`rotated` order, before the next case."""
    names = list(by_column)
    keys = dict.fromkeys(key for by_key in by_column.values() for key in by_key)
    times = {name: {key: [] for key in by_key} for name, by_key in by_column.items()}
    for r in range(rounds):
        for key in keys:
            for name in rotated(names, r):
                if key in by_column[name]:
                    times[name][key].append(best(*by_column[name][key], repeat))
    return times


def column_env(src: Path) -> dict:
    """The environment of a child that imports the package from ``src`` and
    compiles it from source."""
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def digest(src: Path) -> str:
    """SHA-256 over the package's sources, by relative path."""
    h = hashlib.sha256()
    for path in sorted((src / "ultrametric").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def slope(times: dict) -> float | None:
    """Log-log slope between the two largest sizes, or None below two sizes."""
    if len(times) < 2:
        return None
    (n1, t1), (n2, t2) = sorted((int(n), t) for n, t in times.items())[-2:]
    return round(math.log(t2 / t1) / math.log(n2 / n1), 3) if t1 > 0 and t2 > 0 else None


def bench(columns: dict[str, Path], sizes: list[int], repeat: int, rounds: int) -> dict:
    packages = {name: load(f"growth_column_{k}", src).__name__ for k, (name, src) in enumerate(columns.items())}
    timed = {
        n: pair_rounds({name: cases(package, n) for name, package in packages.items()}, rounds, repeat) for n in sizes
    }
    # Per column, layer and size, the time of each round.
    layers = {
        name: {layer: {n: timed[n][name][layer] for n in sizes if layer in timed[n][name]} for layer in LAYERS}
        for name in columns
    }
    cli = pair_rounds({name: cli_cases(src) for name, src in columns.items()}, rounds, repeat)
    first, *rest = columns
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "sizes": sizes,
        "repeat": repeat,
        "rounds": rounds,
        "seeds": list(SEEDS),
        "columns": {
            name: {
                "digest": digest(src),
                "times": {layer: {n: summary(ms) for n, ms in by_n.items()} for layer, by_n in layers[name].items()},
                "slopes": {
                    layer: slope({n: statistics.median(ms) for n, ms in by_n.items()})
                    for layer, by_n in layers[name].items()
                },
                "cli": {
                    "jobs": {job: summary(cli[name][job]) for job in JOBS},
                    "bare": {command: summary(cli[name][command]) for command in BARE},
                },
            }
            for name, src in columns.items()
        },
        "ratios": {
            name: {
                layer: {n: paired(layers[first][layer][n], ms) for n, ms in by_n.items()}
                for layer, by_n in layers[name].items()
            }
            for name in rest
        },
        "cli_ratios": {name: {row: paired(cli[first][row], ms) for row, ms in cli[name].items()} for name in rest},
    }


def paired(base: list[float], other: list[float]) -> dict:
    """The median and interquartile range of the same-round ratios
    ``other / base``."""
    quotients = [b / a for a, b in zip(base, other)]
    return {"median": round(statistics.median(quotients), 3), "iqr": iqr(quotients)}


def iqr(values: list[float]) -> float:
    """The interquartile range of ``values``, 0 over one value."""
    q1, _, q3 = statistics.quantiles(values, method="inclusive") if len(values) > 1 else values * 3
    return round(q3 - q1, 3)


FIELDS = {"ms", "median_ms", "iqr_ms"}


def summary(times: list[float]) -> dict:
    """The best time over the rounds, their median and interquartile range."""
    return {"ms": round(min(times), 3), "median_ms": round(statistics.median(times), 3), "iqr_ms": iqr(times)}


RATIO_FIELDS = {"median", "iqr"}
KEYS = {"schema", "python", "machine", "cpus", "sizes", "repeat", "rounds", "seeds", "columns", "ratios", "cli_ratios"}


def check_schema(doc: dict) -> None:
    """Raise AssertionError unless ``doc`` has the form :func:`bench` writes."""
    assert doc["schema"] == SCHEMA, doc["schema"]
    assert set(doc) == KEYS, sorted(doc)
    assert isinstance(doc["python"], str) and isinstance(doc["cpus"], int)
    sizes = doc["sizes"]
    assert sizes and all(isinstance(n, int) and n > 0 for n in sizes)
    assert doc["repeat"] >= 1 and doc["rounds"] >= 1 and doc["seeds"] == list(SEEDS) and doc["columns"]
    for column in doc["columns"].values():
        assert set(column) == {"digest", "times", "slopes", "cli"}, sorted(column)
        assert len(column["digest"]) == 64
        assert set(column["times"]) == set(column["slopes"]) == set(LAYERS)
        for layer, by_n in column["times"].items():
            want = [n for n in sizes if n <= MAX_N.get(layer, n)]
            assert sorted(map(int, by_n)) == want, (layer, sorted(by_n))
            assert column["slopes"][layer] is None or isinstance(column["slopes"][layer], float)
        rows = column["cli"]
        assert set(rows) == {"jobs", "bare"}
        assert set(rows["jobs"]) == set(JOBS) and set(rows["bare"]) == set(BARE)
        times = [entry for by_n in column["times"].values() for entry in by_n.values()]
        for entry in [*times, *rows["jobs"].values(), *rows["bare"].values()]:
            assert set(entry) == FIELDS and all(entry[field] >= 0 for field in FIELDS)
    names = list(doc["columns"])
    assert list(doc["ratios"]) == names[1:]
    for name, ratio in doc["ratios"].items():
        assert set(ratio) == set(LAYERS)
        for layer, by_n in ratio.items():
            assert set(by_n) == set(doc["columns"][name]["times"][layer]), (name, layer)
            assert all(set(entry) == RATIO_FIELDS for entry in by_n.values()), (name, layer)
    assert list(doc["cli_ratios"]) == names[1:]
    for ratio in doc["cli_ratios"].values():
        assert set(ratio) == {*JOBS, *BARE} and all(set(entry) == RATIO_FIELDS for entry in ratio.values())


def report(doc: dict) -> str:
    """The ratios and the CLI rows as text, one line per layer, job or
    command."""
    first, *rest = doc["columns"]
    lines = []
    for name in rest:
        lines.append(f"{first} -> {name}, median of the same-round ratios (their IQR):")
        for layer, by_n in doc["ratios"][name].items():
            lines.append(f"  {layer}: " + ", ".join(f"n={n} {ratio_text(e)}" for n, e in by_n.items()))
    lines.append(f"CLI, median CPU ms per row and its IQR (against {first}: paired ratio):")
    for row in (*JOBS, *BARE):
        kind = "jobs" if row in JOBS else "bare"
        entries = {name: c["cli"][kind][row] for name, c in doc["columns"].items()}
        cells = ", ".join(
            f"{name} {e['median_ms']:.1f} ms (IQR {e['iqr_ms']:.1f})"
            + (f" paired {ratio_text(doc['cli_ratios'][name][row])}" if name != first else "")
            for name, e in entries.items()
        )
        lines.append(f"  {row}: {cells}")
    return "\n".join(lines) + "\n"


def ratio_text(entry: dict) -> str:
    return f"{entry['median']:.3f}x ({entry['iqr']:.3f})"


def count(text: str) -> int:
    """``text`` as an integer of at least 1, for argparse."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def counts(text: str) -> list[int]:
    return [count(n) for n in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="NAME=DIR", help="a column (default change=src)")
    parser.add_argument("--sizes", type=counts, default="100,200,400", help="comma-separated point counts")
    parser.add_argument("--repeat", type=count, default=3, help="calls per row, size and column, best kept")
    parser.add_argument("--rounds", type=count, default=3, help="rounds of same-moment pairs")
    parser.add_argument("-o", "--output", help="write the JSON here (default stdout)")
    args = parser.parse_args(argv)
    if args.sizes != sorted(set(args.sizes)):
        parser.error(f"--sizes must rise without a repeat, got {args.sizes}")
    columns = {}
    for spec in args.src or ["change=src"]:
        name, _, src = spec.partition("=")
        if not (name and src):
            parser.error(f"--src wants NAME=DIR, got {spec!r}")
        if name in columns:
            parser.error(f"--src names column {name!r} twice")
        columns[name] = Path(src).resolve()
        if not (columns[name] / "ultrametric" / "__init__.py").is_file():
            parser.error(f"--src {spec!r}: no ultrametric package in {columns[name]}")
    doc = bench(columns, args.sizes, args.repeat, args.rounds)
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
