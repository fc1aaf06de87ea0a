"""Smoke check of the benchmark's own generators and checkers at tiny sizes.

Run from the repository root: ``python3 perfbench/smoke.py``.  It exits 0
when every check holds, and compares the generators and reference routines
against the library itself on inputs small enough to run in a second.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from ultrametric import (  # noqa: E402
    GlueSpec,
    closed_quotient,
    crowd_family,
    disjoint_amalgam,
    epsilon_net,
    glue,
    single_linkage,
    ugh_distance,
    validate_ultrametric,
)
from ultrametric import jsonio  # noqa: E402
from ultrametric.errors import UltrametricError  # noqa: E402


def lib(space: gen.Space):
    return validate_ultrametric(space.labels, space.dist)


def text(space) -> str:
    return jsonio.dumps(jsonio.space_to_obj(space)) + "\n"


def check_spaces(rng):
    for n in (1, 2, 5, 9, 14):
        s = gen.tree_space(rng, n, gen.grid_heights(8))
        assert text(lib(s)) == s.text(), "tree space is not canonical"
        assert gen.is_ultrametric(s.dist)
    for n in (8, 11, 14):
        m = n // 2 + 2
        counts = gen.spine_counts(rng, n, m)
        assert sum(counts) == n and counts[-1] != counts[-2]
        heights = gen.distinct_heights(rng, m)
        s = gen.caterpillar(rng, counts, heights, "p")
        lib(s)
        assert s.spectrum() == [Fraction(0), *heights], "caterpillar spectrum"


def check_pairs(rng):
    """The u_GH value each ugh_scan pair kind promises, against the library."""
    for n in (8, 10, 12):
        m = n // 2 + 2
        counts = gen.spine_counts(rng, n, m)
        heights = gen.distinct_heights(rng, m)
        x = gen.caterpillar(rng, counts, heights, "p")
        y = gen.caterpillar(rng, counts[:-2] + [counts[-1], counts[-2]], heights, "q")
        assert ugh_distance(lib(x), lib(y)).value == heights[-1], "full-scan pair"
        assert ugh_distance(lib(x), lib(x.permuted(rng, "q"))).value == 0, "relabelled copy"
        spec = x.spectrum()
        for low in (spec[1] / 2, (spec[1] + spec[2]) / 2):
            y, old = gen.perturb_bottom(x.permuted(rng, "q"), low)
            assert ugh_distance(lib(x), lib(y)).value == max(old, low), "low-level perturbation"


def check_corruptions(rng):
    """Each corrupted file fails validation on the intended axiom, naming the changed pair."""
    for n in (12, 20):
        for kind, (code, _) in gen.CORRUPTIONS.items():
            for place in gen.PLACES:
                bad, pair = gen.corrupted_space(rng, n, gen.grid_heights(16), kind, place)
                try:
                    validate_ultrametric(bad.labels, bad.dist)
                except UltrametricError as exc:
                    assert exc.code == code, f"{kind}/{place}: {exc.code}, expected {code}"
                    assert set(pair) <= set(exc.details["points"]), f"{kind}/{place}: witness"
                else:
                    raise AssertionError(f"{kind}/{place} passed validation")


def check_metrics(rng):
    m = gen.l1_metric(rng, 12, duplicates=3)
    zeros = sum(1 for i in range(12) for j in range(i + 1, 12) if m.dist[i][j] == 0)
    assert zeros >= 3, "planted duplicates"
    merged = gen.merged_duplicates(m)
    assert len(merged) == 9
    assert all(
        merged.dist[i][j] <= merged.dist[i][k] + merged.dist[k][j]
        for i in range(9) for j in range(9) for k in range(9)
    ), "L1 distances are a metric"
    expected = gen.Space(merged.labels, gen.subdominant(merged.dist))
    assert text(single_linkage(merged.labels, merged.dist)) == expected.text(), "subdominant"


def check_references(rng):
    """The reference outputs equal the library's on small inputs."""
    grid = gen.grid_heights(16)
    s = gen.tree_space(rng, 15, grid)
    for t in s.spectrum():
        assert jsonio.dumps(jsonio.quotient_to_obj(closed_quotient(lib(s), t))) + "\n" == gen.quotient_text(s, t)
        if t > 0:
            assert jsonio.dumps(list(epsilon_net(lib(s), t))) + "\n" == gen.net_text(s, t)
    whole = gen.tree_space(rng, 14, grid)
    x1, x2 = whole.restrict(range(8)), whole.restrict([1, 3, *range(8, 14)])
    x2.labels = [f"b{k}" for k in range(1, 9)]
    identify = [[x1.labels[1], "b1"], [x1.labels[3], "b2"]]
    assert text(glue(GlueSpec(lib(x1), lib(x2), identify))) == gen.glue_space(x1, x2, identify).text()
    y = gen.tree_space(rng, 5, grid, prefix="v")
    scale = max(x1.diameter(), y.diameter())
    assert text(disjoint_amalgam(lib(x1), lib(y), scale)) == gen.amalgam_space(x1, y, scale).text()
    c = x1.min_positive() / 2
    assert text(crowd_family(lib(x1), x1.labels[2], c, 3)) == gen.crowd_space(x1, x1.labels[2], c, 3).text()
    assert not gen.is_ultrametric(gen.corrupt(rng, s, "triangle_up", "late")[0].dist)


def check_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY, "workload reasons"
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [row[:3] for row in replay.LAYER_METRICS], "per-layer metrics"


def main() -> int:
    rng = random.Random("smoke")
    for check in (check_spaces, check_pairs, check_corruptions, check_metrics, check_references):
        check(rng)
        print(f"ok {check.__name__}")
    check_benchmark_file()
    print("ok check_benchmark_file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
