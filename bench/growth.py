"""Growth-rate bench of the constructions, timed in process.

Usage (from the repository root)::

    python3 bench/growth.py --src change=src --src parent=../parent/src -o BENCH.json

Each ``--src NAME=DIR`` is one column: a library source tree, imported from
``DIR`` by a fresh interpreter.  Every round runs each column once, in
alternating order, so the columns see the same host.  A run builds seeded
inputs, then times each of :data:`LAYERS` at each size, in CPU milliseconds,
best of ``--repeat`` calls: the constructions on spaces, the generators, the
closed quotient at scale 0 and at the middle value of the spectrum,
``restrict`` to every other point, ``single_linkage`` of an ultrametric
string matrix, and ``ugh_distance`` of two freshly generated spaces.  The
fixed reference job ``perfbench/reference.py`` runs before and after every
run, and each time is also given scaled: divided by the mean CPU seconds of
those two reference runs, so ``scaled`` counts milliseconds per
reference-second and follows the program, not the host's speed.  A column
keeps, per layer and size, its best time over the rounds (``ms``,
``scaled``) and the median over the rounds (``median_ms``,
``median_scaled``).  No timing is checked; :func:`check_schema` checks the
file's form only, of this schema and of the first, which kept the best only.
"""

from __future__ import annotations

import argparse
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
SCHEMA = "ultrametric-growth/2"
# The first schema's layers, and its entries, which held the best time only.
SCHEMA_1 = "ultrametric-growth/1"
LAYERS_1 = ("glue", "disjoint_amalgam", "crowd_family", "certificate", "chain_glue")
LAYERS = (
    *LAYERS_1,
    "random_space",
    "cauchy_sequence",
    "closed_quotient_t0",
    "closed_quotient_mid",
    "restrict",
    "single_linkage",
    "ugh_distance_fresh",
)
SEEDS = (1, 2)
# Glue's cross loop was cubic before it became a spanning forest: 30 s at
# n = 800, so no column times it above 400 points.  crowd_family adds n
# points to n, which the generators' cell budget allows up to n = 724.
MAX_N = {"glue": 400, "crowd_family": 724}
CHAIN_PART = 20  # points per space of the chain_glue chain, one shared per link


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
    return out


def digest(src: Path) -> str:
    """SHA-256 over the package's sources, by relative path."""
    h = hashlib.sha256()
    for path in sorted((src / "ultrametric").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_column(src: Path, sizes: list[int], repeat: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
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
    refs = []
    for r in range(rounds):
        names = list(columns) if r % 2 == 0 else list(reversed(columns))
        for name in names:
            before = run_reference()
            times = run_column(columns[name], sizes, repeat)
            after = run_reference()
            refs += [before, after]
            for layer, by_n in times.items():
                for n, ms in by_n.items():
                    runs[name][layer].setdefault(n, []).append((ms, ms / ((before + after) / 2)))
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
            }
            for name, src in columns.items()
        },
    }


def summary(timed: list[tuple[float, float]]) -> dict:
    """The round with the best scaled time, and the medians over the rounds."""
    ms, scaled = min(timed, key=lambda pair: pair[1])
    return {
        "ms": round(ms, 3),
        "scaled": round(scaled, 3),
        "median_ms": round(statistics.median(pair[0] for pair in timed), 3),
        "median_scaled": round(statistics.median(pair[1] for pair in timed), 3),
    }


def check_schema(doc: dict) -> None:
    """Raise AssertionError unless ``doc`` has the form :func:`bench` writes,
    or the form of the first schema."""
    assert doc["schema"] in (SCHEMA, SCHEMA_1)
    layers, fields = (LAYERS, {"ms", "scaled", "median_ms", "median_scaled"})
    if doc["schema"] == SCHEMA_1:
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
        print(json.dumps(measure(sizes, args.repeat)))
        return 0
    columns = dict(spec.split("=", 1) for spec in args.src or ["change=src"])
    doc = bench({name: Path(src).resolve() for name, src in columns.items()}, sizes, args.repeat, args.rounds)
    check_schema(doc)
    text = json.dumps(doc, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
