"""The growth bench runs at tiny sizes and writes, and has committed, files of
its schema.  No timing is checked: runners are shared."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from ultrametric import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "growth.py"
sys.path.insert(0, str(SCRIPT.parent))

import growth  # noqa: E402


def test_a_tiny_run_writes_the_schema(tmp_path, monkeypatch, capsys):
    # Two jobs, each run once per column run, keep the CLI rows of four column
    # runs cheap; the one-column run below times every job.
    monkeypatch.setattr(growth, "JOBS", {job: growth.JOBS[job] for job in ("validate", "ugh")})
    monkeypatch.setattr(growth, "CLI_RUNS", 1)
    out = tmp_path / "bench.json"
    argv = ["--sizes", "8,20", "--repeat", "1", "--rounds", "2", "-o", str(out)]
    argv += ["--src", f"a={ROOT / 'src'}", "--src", f"b={ROOT / 'src'}"]
    assert growth.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    growth.check_schema(doc)
    assert list(doc["columns"]) == ["a", "b"] and doc["sizes"] == [8, 20]
    assert doc["columns"]["a"]["digest"] == doc["columns"]["b"]["digest"]
    # One source tree: the same modules, nodes and job sums in both columns.
    a, b = (doc["columns"][name]["startup"] for name in "ab")
    assert {job: (e["modules"], e["nodes"]) for job, e in a["jobs"].items()} == {
        job: (e["modules"], e["nodes"]) for job, e in b["jobs"].items()
    }
    assert list(doc["ratios"]) == ["b"] and set(doc["ratios"]["b"]) == set(growth.LAYERS)
    err = capsys.readouterr().err
    assert "  python -S -c pass: a " in err
    # The same tree twice: each job's nodes differ by nothing.
    startup = err.split("start-up, ")[1].split("CLI, ")[0].splitlines()[1:]
    assert [line.split(":")[0].strip() for line in startup] == ["validate", "ugh"]
    assert all(line.endswith(" (+0)") and ", b " in line for line in startup), startup
    assert "program share per job" in err and "  ugh: a " in err.split("program share")[1]
    # Each ratio is printed beside the first column's spread over its median.
    ratio = err.split("a -> b, ")[1].splitlines()[1]
    assert ratio.startswith("  glue: n=8 ") and ratio.count(" [") == 2, ratio


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_have_the_schema(path):
    growth.check_schema(json.loads(path.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def one_column():
    """A one-column run at n = 6, each CLI row run once, as JSON text: each
    test reads its own copy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(growth, "CLI_RUNS", 1)
        return json.dumps(growth.bench({"only": ROOT / "src"}, [6], 1, 1))


def test_each_cli_row_is_the_median_of_three_passes(monkeypatch):
    # Each pass charges every command a fake CPU time: 9 ms, then 2 ms, then
    # 1 ms, and a job 1, then 3, then 8 ms more, its share of that pass.  So
    # each median differs from the first, last, best and mean.
    monkeypatch.setattr(growth, "JOBS", {"validate": growth.JOBS["validate"]})
    job = ["-m", "ultrametric", *growth.JOBS["validate"]]
    paired = growth.BARE["python -c pass"]
    per_pass = 2 + len(growth.BARE)
    started, spent = [], [0.0]

    def run(argv, **_):
        started.append(argv[1:])
        k = (len(started) - 1) // per_pass
        spent[0] += (0.009, 0.002, 0.001)[k] + (argv[1:] == job) * (0.001, 0.003, 0.008)[k]

    monkeypatch.setattr(growth.subprocess, "run", run)
    monkeypatch.setattr(growth, "children_cpu", lambda: spent[0])
    times, shares = growth.run_cli(ROOT / "src")
    # The job and its paired bare run alternate which goes first, pass by pass.
    bare = list(growth.BARE.values())
    assert growth.CLI_RUNS == 3
    assert started == [job, paired, *bare, paired, job, *bare, job, paired, *bare]
    assert times == pytest.approx({"validate": 9.0, **dict.fromkeys(growth.BARE, 2.0)})
    assert shares == pytest.approx({"validate": 3.0})


def test_a_job_row_keeps_the_median_share_and_its_spread():
    assert growth.spread([4.0]) == {"share_ms": 4.0, "share_iqr_ms": 0.0}
    assert growth.spread([1.0, 2.0, 4.0, 9.0, 30.0]) == {"share_ms": 4.0, "share_iqr_ms": 7.0}


def test_a_row_keeps_the_spread_of_its_rounds():
    # Scaled times are half the raw ones, and the best round is the fastest.
    assert growth.summary([(6.0, 3.0)]) == {
        "ms": 6.0, "scaled": 3.0, "median_ms": 6.0, "median_scaled": 3.0, "iqr_ms": 0.0, "iqr_scaled": 0.0,
    }
    timed = [(ms, ms / 2) for ms in (9.0, 30.0, 1.0, 4.0, 2.0)]
    assert growth.summary(timed) == {
        "ms": 1.0, "scaled": 0.5, "median_ms": 4.0, "median_scaled": 2.0, "iqr_ms": 7.0, "iqr_scaled": 3.5,
    }
    assert growth.relative_iqr(growth.summary(timed)) == "1.750/1.750"
    unmeasured = {"median_ms": 0.0, "iqr_ms": 0.0, "median_scaled": 1.0, "iqr_scaled": 0.5}
    assert growth.relative_iqr(unmeasured) == "-/0.500"


def test_check_schema_refuses_a_missing_layer(one_column):
    doc = json.loads(one_column)
    growth.check_schema(doc)
    del doc["columns"]["only"]["times"]["chain_glue"]
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def without_spreads(doc: dict) -> dict:
    """``doc`` as schema 6 wrote it: no row keeps the IQR of its times."""
    column = doc["columns"]["only"]
    rows = [entry for by_n in column["times"].values() for entry in by_n.values()]
    for entry in [*rows, *column["cli"]["jobs"].values(), *column["cli"]["bare"].values()]:
        for field in growth.IQR_FIELDS:
            del entry[field]
    doc["schema"] = "ultrametric-growth/6"
    return doc


def test_schema_7_adds_the_spread_of_every_row(one_column):
    doc = json.loads(one_column)
    assert doc["schema"] == "ultrametric-growth/7"
    column = doc["columns"]["only"]
    # One round: every spread is 0.
    assert column["times"]["glue"]["6"]["iqr_ms"] == column["cli"]["jobs"]["ugh"]["iqr_scaled"] == 0
    # A schema-6 file has no spreads, and a schema-7 file has them on every row.
    doc = without_spreads(doc)
    growth.check_schema(doc)
    doc["schema"] = "ultrametric-growth/7"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def test_schema_6_adds_the_read_validate_and_write_rows(one_column):
    doc = without_spreads(json.loads(one_column))
    times = doc["columns"]["only"]["times"]
    assert all(times[layer]["6"]["median_ms"] > 0 for layer in ("read", "validate", "write"))
    # A schema-5 file has none of them, and a schema-6 file has all three.
    doc["schema"] = "ultrametric-growth/5"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)
    for layer in ("read", "validate", "write"):
        del times[layer], doc["columns"]["only"]["slopes"][layer]
    growth.check_schema(doc)
    doc["schema"] = "ultrametric-growth/6"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def test_jobs_hold_a_clean_job_of_every_verb_and_family():
    leaves = {
        (verb, family)
        for verb, (_, _, spec) in cli.VERBS.items()
        for family in (spec if isinstance(spec, dict) else [None])
    }
    assert len(leaves) == 14
    jobs = {(argv[0], argv[1] if argv[0] == "gen" else None) for argv in growth.JOBS.values()}
    assert jobs == leaves


def test_cli_rows_time_every_job_and_the_bare_interpreter(one_column):
    doc = json.loads(one_column)
    rows = doc["columns"]["only"]["cli"]
    assert set(rows["jobs"]) == set(growth.JOBS)
    assert set(rows["bare"]) == {"python -c pass", "python -S -c pass"}
    assert all(entry["median_ms"] > 0 for entry in (*rows["jobs"].values(), *rows["bare"].values()))
    fields = growth.FIELDS | growth.IQR_FIELDS | growth.SHARE_FIELDS
    assert all(set(entry) == fields for entry in rows["jobs"].values())
    for kind in ("jobs", "bare"):
        bad = json.loads(one_column)
        bad["columns"]["only"]["cli"][kind].popitem()
        with pytest.raises(AssertionError):
            growth.check_schema(bad)


def test_startup_row_sums_the_modules_each_job_loads(one_column):
    doc = json.loads(one_column)
    startup = doc["columns"]["only"]["startup"]
    nodes = growth.ast_nodes(ROOT / "src")
    assert set(startup["modules"]) == set(nodes)
    ugh, validate = startup["jobs"]["ugh"], startup["jobs"]["validate"]
    assert "ultrametric.gromov" in ugh["modules"] and "ultrametric.gromov" not in validate["modules"]
    assert ugh["nodes"] == sum(nodes[m] for m in ugh["modules"])
    for broken in ("nodes", "job"):
        bad = json.loads(one_column)
        jobs = bad["columns"]["only"]["startup"]["jobs"]
        if broken == "nodes":
            jobs["ugh"]["nodes"] += 1
        else:
            del jobs["quotient"]
        with pytest.raises(AssertionError):
            growth.check_schema(bad)
