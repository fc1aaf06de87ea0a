"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (Fraction equality, no tolerances); the stated
wall-clock budgets are asserted too.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from ultrametric import (
    certificate,
    crowd_family,
    cauchy_sequence,
    epsilon_net,
    glue,
    hausdorff_distance,
    isometric,
    random_space,
    restrict,
    spectrum,
    spectrum_constraint,
    two_point_space,
    ugh_distance,
    ugh_oracle,
    validate_ultrametric,
    verify_certificate,
)

from cli_corpus import CASES, SKIPPED, expected_text, run_case
from conftest import SIX_VALUES, make_space, random_glue_spec

FIVE_VALUES = spectrum_constraint(["0", "1/4", "1/2", "3/4", "1"])
DENSITY_VALUES = spectrum_constraint(["0", "1/8", "1/4", "1/2", "1"])


def criterion(number: int, description: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        detail = body()
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(
        f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} "
        f"[{detail}] ({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert ok, f"criterion {number} exceeded its budget: {elapsed:.2f}s >= {budget:g}s"


def oracle_pool() -> list:
    rng = random.Random(1003)
    pool = []
    while len(pool) < 20:
        pool.append(random_space(1 + len(pool) % 4, FIVE_VALUES, rng.randrange(10**9)))
    return pool


def test_criterion_1_glue_soundness():
    def body():
        rng = random.Random(1001)
        for _ in range(1000):
            spec = random_glue_spec(rng, max_side=7)
            glued = glue(spec)
            validate_ultrametric(glued.labels, glued.dist)
        return "1000/1000 glued spaces valid"

    criterion(1, "random amalgamations satisfy every ultrametric axiom", 10.0, body)


def test_criterion_2_ugh_is_an_ultrametric():
    def body():
        rng = random.Random(1002)
        for _ in range(500):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            z = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            dxy = ugh_distance(x, y).value
            dyx = ugh_distance(y, x).value
            dyz = ugh_distance(y, z).value
            dxz = ugh_distance(x, z).value
            assert dxy == dyx, "symmetry"
            assert (dxy == 0) == isometric(x, y), "zero iff isometric"
            assert dxz <= max(dxy, dyz), "strong triangle inequality"
        return "500 triples: symmetry, zero-iff-isometric, strong triangle"

    criterion(2, "the distance is an ultrametric on isometry classes", 60.0, body)


def test_criterion_3_oracle_equivalence():
    def body():
        pool = oracle_pool()
        pairs = 0
        for x, y in combinations(pool, 2):
            scan = ugh_distance(x, y).value
            exhaustive = ugh_oracle(x, y)
            assert scan == exhaustive, (
                f"scan={scan} oracle={exhaustive} on a pool pair: the scan is wrong"
            )
            pairs += 1
        assert pairs == 190
        return "190/190 pairs agree with the exhaustive oracle"

    criterion(3, "quotient scan equals the exhaustive embedding search", 60.0, body)


def test_criterion_4_two_point_grid():
    def body():
        grid = [Fraction(1, 2) + Fraction(k, 16) for k in range(9)]
        assert grid[-1] == 1
        pairs = 0
        for c1, c2 in combinations(grid, 2):
            value = ugh_distance(two_point_space(c1), two_point_space(c2)).value
            assert value >= Fraction(1, 4)
            assert value == max(c1, c2)
            pairs += 1
        assert pairs == 36
        return "36/36 grid pairs: value = max(c1,c2) >= 1/4"

    criterion(4, "two-point family stays uniformly separated", 5.0, body)


def test_criterion_5_crowd_and_density():
    def body():
        base = make_space(
            ["y1", "y2", "y3"],
            {("y1", "y2"): "1/4", ("y1", "y3"): "1/2", ("y2", "y3"): "1/2"},
        )
        c = Fraction(1, 8)
        family = {n: crowd_family(base, "y1", c, n) for n in range(1, 6)}
        values = set()
        for m in range(1, 6):
            for n in range(m + 1, 6):
                value = ugh_distance(family[m], family[n]).value
                assert c / 2 <= value <= c
                values.add(value)
        assert len(values) == 1, "the family pairs sit at one common distance"

        rng = random.Random(1005)
        checked = 0
        for _ in range(50):
            x = random_space(rng.randint(1, 8), DENSITY_VALUES, rng.randrange(10**9))
            for eps in DENSITY_VALUES.values[1:]:
                net = epsilon_net(x, eps)
                assert ugh_distance(x, restrict(x, net)).value <= eps
                checked += 1
        return f"10 crowd pairs in [1/16, 1/8]; {checked} net restrictions within eps"

    criterion(5, "crowding stays within [c/2, c] and nets are eps-close", 60.0, body)


def test_criterion_6_spectrum_propagation():
    def body():
        rng = random.Random(1006)
        for _ in range(200):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            value = ugh_distance(x, y).value
            above_x = {v for v in spectrum(x) if v > value}
            above_y = {v for v in spectrum(y) if v > value}
            assert above_x == above_y
        return "200 pairs: spectra coincide strictly above the distance"

    criterion(6, "distance values propagate above the computed distance", 30.0, body)


def test_criterion_7_hausdorff_is_an_ultrametric():
    def body():
        rng = random.Random(1007)
        for _ in range(500):
            ambient = random_space(rng.randint(2, 8), SIX_VALUES, rng.randrange(10**9))
            a = rng.sample(ambient.labels, rng.randint(1, len(ambient)))
            b = rng.sample(ambient.labels, rng.randint(1, len(ambient)))
            c = rng.sample(ambient.labels, rng.randint(1, len(ambient)))
            dab = hausdorff_distance(ambient, a, b)
            dbc = hausdorff_distance(ambient, b, c)
            dac = hausdorff_distance(ambient, a, c)
            assert dac <= max(dab, dbc)
        return "500 subset triples satisfy the strong triangle inequality"

    criterion(7, "Hausdorff distance on subsets is an ultrametric", 10.0, body)


def test_criterion_8_certificates_revalidate():
    def body():
        pool = oracle_pool()
        count = 0
        for x, y in combinations(pool, 2):
            result = ugh_distance(x, y)
            cert = certificate(x, y, result)
            assert cert.achieved == result.value
            verify_certificate(cert, x, y)
            count += 1
        return f"{count}/190 certificates re-verified from scratch"

    criterion(8, "every certificate re-validates exactly", 60.0, body)


def test_criterion_9_cauchy_sequence():
    def body():
        spaces = [cauchy_sequence(i) for i in range(10)]
        values = [
            ugh_distance(spaces[i], spaces[i + 1]).value for i in range(9)
        ]
        for i in range(8):
            assert values[i] > values[i + 1], "strictly decreasing"
        for i in range(9):
            assert values[i] <= Fraction(1, 2**i)
        return "consecutive distances strictly decrease, each <= 2^-i"

    criterion(9, "the doubling family is Cauchy at desk scale", 5.0, body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        for name, argv, want_code in CASES:
            case_dir = tmp_path / name
            case_dir.mkdir()
            code, out, err, written = run_case(argv, case_dir)
            assert code == want_code, f"{name}: exit {code} != {want_code}"
            assert out == expected_text(name, "out"), name
            # A skipped stderr is passed over here, so the other cases still run.
            if name not in SKIPPED:
                assert err == expected_text(name, "err"), name
            for file_name, content in written.items():
                assert content == expected_text(name, file_name), f"{name}: {file_name}"
        return f"{len(CASES)} commands byte-identical to golden files"

    criterion(10, "CLI corpus is byte-deterministic with the exit-code contract", 5.0, body)
