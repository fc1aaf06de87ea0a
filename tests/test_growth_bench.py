"""The growth bench runs at tiny sizes and writes, and has committed, files of
its schema.  No timing bound is checked: runners are shared."""

from __future__ import annotations

import json
import shutil
import sys
from importlib import import_module
from pathlib import Path

import pytest

from ultrametric import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "growth.py"
sys.path.insert(0, str(SCRIPT.parent))

import growth  # noqa: E402


def test_a_tiny_run_writes_the_schema(tmp_path, monkeypatch, capsys):
    # Two jobs, each run once per column and round, keep the CLI rows of two
    # columns cheap; the one-column run below times every job.
    monkeypatch.setattr(growth, "JOBS", {job: growth.JOBS[job] for job in ("validate", "ugh")})
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
    assert list(doc["compile_ratios"]) == ["b"] and set(doc["compile_ratios"]["b"]) == {"validate", "ugh"}
    err = capsys.readouterr().err
    assert "  python -S -c pass: a " in err
    # The same tree twice: each job's nodes differ by nothing, and the paired
    # compile ratio stands beside the difference.
    startup = err.split("start-up, ")[1].split("CLI, ")[0].splitlines()[1:]
    assert [line.split(":")[0].strip() for line in startup] == ["validate", "ugh"]
    assert all(", b " in line and " (+0, " in line and line.endswith(")") for line in startup), startup
    # Each CLI row's paired ratio stands beside its medians.
    cli_rows = err.split("CLI, ")[1].splitlines()[1:]
    assert [line.split(":")[0].strip() for line in cli_rows] == ["validate", "ugh", *growth.BARE]
    assert all(line.startswith(f"  {row}: a ") for row, line in zip(["validate", "ugh", *growth.BARE], cli_rows))
    assert all(", b " in line and line.endswith(")") and line.count("x (") == 1 for line in cli_rows), cli_rows
    assert list(doc["cli_ratios"]) == ["b"] and set(doc["cli_ratios"]["b"]) == {"validate", "ugh", *growth.BARE}
    del doc["cli_ratios"]["b"]["ugh"]
    with pytest.raises(AssertionError):
        growth.check_schema(doc)
    # Each size's paired median is printed with its IQR.
    ratio = err.split("a -> b, ")[1].splitlines()[1]
    assert ratio.startswith("  glue: n=8 ") and ratio.count("x (") == 2, ratio


def test_each_round_pairs_the_columns_and_rotates_the_first(monkeypatch):
    # Scripted best-of times per column, round by round, for every layer: the
    # second column's same-round ratios are 1.5, 0.5, 1 and 2.
    script = {"growth_column_0": [2.0, 4.0, 8.0, 1.0], "growth_column_1": [3.0, 2.0, 8.0, 2.0]}
    calls = []

    def best(call, inputs, repeat):
        if not isinstance(call, tuple):  # a module's compile() or a CLI row
            return 1.0
        calls.append(call)
        return script[call[0]][calls.count(call) - 1]

    def cases(package, n):  # each call is a tag naming its column's package
        return {layer: ((package, layer), tuple) for layer in ("glue", "restrict")}

    monkeypatch.setattr(growth, "best", best)
    monkeypatch.setattr(growth, "cases", cases)
    monkeypatch.setattr(growth, "JOBS", {"validate": growth.JOBS["validate"]})
    doc = growth.bench({"a": ROOT / "src", "b": ROOT / "src"}, [8], 1, 4)
    # A layer is timed for both columns back to back, before the next layer,
    # and the column timed first alternates round by round.
    first, second = "growth_column_0", "growth_column_1"
    assert [column for column, layer in calls if layer == "glue"] == [first, second, second, first] * 2
    assert [layer for _, layer in calls[:4]] == ["glue", "glue", "restrict", "restrict"]
    # The ratios are the median and IQR of the same-round quotients, not the
    # quotient of the columns' medians, 2.5 / 3.
    assert doc["ratios"]["b"]["glue"] == {8: {"median": 1.25, "iqr": 0.75}}
    assert doc["columns"]["a"]["times"]["glue"] == {8: {"ms": 1.0, "median_ms": 3.0, "iqr_ms": 3.25}}
    assert doc["columns"]["b"]["times"]["glue"] == {8: {"ms": 2.0, "median_ms": 2.5, "iqr_ms": 2.25}}
    assert doc["compile_ratios"] == {"b": {"validate": {"median": 1.0, "iqr": 0.0}}}


def test_each_cli_row_runs_for_both_columns_back_to_back(tmp_path, monkeypatch):
    # Fake processes, each charging the children's CPU a scripted time per
    # column and round: the second column's same-round ratios are 1.5, 0.5,
    # 1 and 2, as for the layers above.
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    column = {str(ROOT / "src"): "a", str(copy): "b"}
    script = {"a": [2.0, 4.0, 8.0, 1.0], "b": [3.0, 2.0, 8.0, 2.0]}
    started, spent = [], [0.0]

    def run(argv, *, env, **_):
        started.append((column[env["PYTHONPATH"]], argv[1:]))
        spent[0] += script[started[-1][0]][started.count(started[-1]) - 1]

    monkeypatch.setattr(growth.subprocess, "run", run)
    monkeypatch.setattr(growth, "children_cpu", lambda: spent[0])
    monkeypatch.setattr(growth, "cases", lambda package, n: {})
    monkeypatch.setattr(growth, "JOBS", {"validate": growth.JOBS["validate"]})
    monkeypatch.setattr(growth, "job_modules", lambda src: {"validate": ["ultrametric", "ultrametric.cli"]})
    doc = growth.bench({"a": ROOT / "src", "b": copy}, [8], 1, 4)
    # A row runs for both columns back to back, before the next row, and the
    # column that runs first alternates round by round.
    rows = [["-m", "ultrametric", *growth.JOBS["validate"]], *growth.BARE.values()]
    assert started == [(name, argv) for pair in ("ab", "ba") * 2 for argv in rows for name in pair]
    # The CLI ratios are the median and IQR of the same-round quotients, not
    # the quotient of the columns' medians, 2.5 / 3.
    assert doc["cli_ratios"] == {"b": dict.fromkeys(["validate", *growth.BARE], {"median": 1.25, "iqr": 0.75})}
    # The bench's own CPU adds a few microseconds to each scripted time.
    want = {"ms": 1000.0, "median_ms": 3000.0, "iqr_ms": 3250.0}
    assert doc["columns"]["a"]["cli"]["jobs"]["validate"] == pytest.approx(want, abs=1)


@pytest.fixture
def unload():
    """Drops the packages a test loads under ``growth_test_column``."""
    yield "growth_test_column"
    for key in [key for key in sys.modules if key.split(".")[0] == "growth_test_column"]:
        del sys.modules[key]


def test_a_column_loads_as_its_own_package(tmp_path, unload):
    name = unload
    lib = growth.load(name, ROOT / "src")
    assert lib.closed_quotient is import_module(f"{name}.builders").closed_quotient
    # The names the frozen replay takes from their old homes resolve inside
    # the same tree.
    for module, attr, home in (
        ("spaces", "closed_quotient", "builders"),
        ("gromov", "certificate", "certificates"),
        ("generators", "single_linkage", "linkage"),
    ):
        assert getattr(import_module(f"{name}.{module}"), attr) is getattr(import_module(f"{name}.{home}"), attr)
    first = {key: module for key, module in sys.modules.items() if key.split(".")[0] == name}
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    growth.load(name, copy)
    second = {key: import_module(key) for key in first}
    assert not {id(module) for module in first.values()} & {id(module) for module in second.values()}
    assert all(Path(module.__file__).is_relative_to(copy) for module in second.values())


def test_a_loop_planted_in_one_layer_shows_in_its_paired_ratio(tmp_path, monkeypatch):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    hyperspace = copy / "ultrametric" / "hyperspace.py"
    # A CPU loop, not a sleep: the layers are timed in CPU time.
    planted = "\n\n_restrict = restrict\n\n\ndef restrict(space, subset):\n"
    planted += "    sum(range(100_000))\n    return _restrict(space, subset)\n"
    hyperspace.write_text(hyperspace.read_text(encoding="utf-8") + planted, encoding="utf-8")
    monkeypatch.setattr(growth, "JOBS", {"validate": growth.JOBS["validate"]})
    doc = growth.bench({"clean": ROOT / "src", "planted": copy}, [20], 1, 3)
    assert doc["ratios"]["planted"]["restrict"][20]["median"] > 2, doc["ratios"]["planted"]["restrict"]


def test_a_loop_planted_in_one_job_shows_in_its_paired_cli_ratio(tmp_path, monkeypatch):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    jsonio = copy / "ultrametric" / "jsonio.py"
    # About 55 ms of CPU on a job of about 45 ms; the ugh job does not run it.
    planted = "\n\n_cli_validate = cli_validate\n\n\ndef cli_validate(args):\n"
    planted += "    sum(range(3_000_000))\n    return _cli_validate(args)\n"
    jsonio.write_text(jsonio.read_text(encoding="utf-8") + planted, encoding="utf-8")
    monkeypatch.setattr(growth, "JOBS", {job: growth.JOBS[job] for job in ("validate", "ugh")})
    ratios = growth.bench({"clean": ROOT / "src", "planted": copy}, [6], 1, 3)["cli_ratios"]["planted"]
    assert ratios["validate"]["median"] > 1.5 and ratios["ugh"]["median"] < 1.5, ratios


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_have_the_schema(path):
    growth.check_schema(json.loads(path.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def one_column():
    """A one-column run at n = 6, each CLI row run once, as JSON text: each
    test reads its own copy."""
    return json.dumps(growth.bench({"only": ROOT / "src"}, [6], 1, 1))


def test_a_row_keeps_the_spread_of_its_rounds():
    # The best round is the fastest; one round has no spread.
    assert growth.summary([6.0]) == {"ms": 6.0, "median_ms": 6.0, "iqr_ms": 0.0}
    assert growth.summary([9.0, 30.0, 1.0, 4.0, 2.0]) == {"ms": 1.0, "median_ms": 4.0, "iqr_ms": 7.0}
    assert growth.paired([2.0], [3.0]) == {"median": 1.5, "iqr": 0.0}


def test_check_schema_refuses_a_missing_layer(one_column):
    doc = json.loads(one_column)
    growth.check_schema(doc)
    del doc["columns"]["only"]["times"]["chain_glue"]
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def test_schema_9_pairs_the_cli_rows(one_column):
    doc = json.loads(one_column)
    assert doc["schema"] == "ultrametric-growth/9" and doc["cli_ratios"] == {}
    assert "scaled" not in one_column and "reference_cpu_s" not in doc and "share" not in one_column
    column = doc["columns"]["only"]
    rows = ("read", "validate", "write", "single_linkage_collinear")
    assert all(column["times"][layer]["6"]["median_ms"] > 0 for layer in rows)
    # One round: every spread is 0.
    assert column["times"]["glue"]["6"]["iqr_ms"] == column["cli"]["jobs"]["ugh"]["iqr_ms"] == 0
    # Neither a scaled time nor a program share is a schema-9 field.
    jobs = column["cli"]["jobs"]
    for row, field in (
        (column["times"]["glue"]["6"], "scaled"),
        (jobs["ugh"], "scaled"),
        (column["cli"]["bare"]["python -c pass"], "scaled"),
        (jobs["ugh"], "share_ms"),
    ):
        row[field] = row["ms"]
        with pytest.raises(AssertionError):
            growth.check_schema(doc)
        del row[field]
    growth.check_schema(doc)
    # As schema 8 wrote it: a program share on each job, no collinear row and
    # no CLI ratios.
    for entry in jobs.values():
        entry.update(share_ms=1.0, share_iqr_ms=0.0)
    del column["times"]["single_linkage_collinear"], column["slopes"]["single_linkage_collinear"], doc["cli_ratios"]
    doc["schema"] = "ultrametric-growth/8"
    growth.check_schema(doc)
    doc["schema"] = "ultrametric-growth/9"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def committed_schema_7() -> dict:
    doc = json.loads((ROOT / "BENCH_43.json").read_text(encoding="utf-8"))
    assert doc["schema"] == "ultrametric-growth/7"
    return doc


def without_spreads(doc: dict) -> dict:
    """``doc`` as schema 6 wrote it: no row keeps the IQR of its times."""
    for column in doc["columns"].values():
        rows = [entry for by_n in column["times"].values() for entry in by_n.values()]
        for entry in [*rows, *column["cli"]["jobs"].values(), *column["cli"]["bare"].values()]:
            del entry["iqr_ms"], entry["iqr_scaled"]
    doc["schema"] = "ultrametric-growth/6"
    return doc


def test_schema_7_adds_the_spread_of_every_row():
    # A schema-6 file has no spreads, and a schema-7 file has them on every row.
    doc = without_spreads(committed_schema_7())
    growth.check_schema(doc)
    doc["schema"] = "ultrametric-growth/7"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)


def test_schema_6_adds_the_read_validate_and_write_rows():
    doc = without_spreads(committed_schema_7())
    # A schema-5 file has none of them, and a schema-6 file has all three.
    doc["schema"] = "ultrametric-growth/5"
    with pytest.raises(AssertionError):
        growth.check_schema(doc)
    for column in doc["columns"].values():
        for layer in ("read", "validate", "write"):
            del column["times"][layer], column["slopes"][layer]
    for ratio in doc["ratios"].values():
        for layer in ("read", "validate", "write"):
            del ratio[layer]
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
    assert all(set(entry) == growth.FIELDS for entry in (*rows["jobs"].values(), *rows["bare"].values()))
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
