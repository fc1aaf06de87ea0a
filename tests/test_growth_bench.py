"""The growth bench runs at tiny sizes and writes, and has committed, files of
its schema; the committed files of older schemas keep their bytes.  No timing
bound is checked: runners are shared."""

from __future__ import annotations

import contextlib
import hashlib
import io
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

# The committed files of the earlier schemas, which check_schema no longer
# reads, by the SHA-256 digest of their bytes.
PINNED = {
    "BENCH_22.json": "548c3ae045dc18327c26ba982c3610affff72d9311898322958a31e191a37d10",
    "BENCH_23.json": "0c4eddba4bce83394f422d4bb712795b5e5aa4adf16e4a73e097e928dc508f5f",
    "BENCH_24.json": "4bd1f958f2a6a0477af32abed1232705d8a7ca093d987e7d71638150dd3edb9e",
    "BENCH_25.json": "5e1a1e7873029aa92b1feed3f63d8c950f4e5c509fcc23d000338519656e880d",
    "BENCH_26.json": "2756618ddb8e90e598cdbf8a22f359148220ff2d618cad8f76dbdc6280b1a0ef",
    "BENCH_28.json": "def6057ecfeded617229f65e40d46000d11181770c98766bc26962a7c4599097",
    "BENCH_39.json": "46a9131e6ccd9a3a2c4307a80e42832bc23354ebbec537148fc49d639f3044b8",
    "BENCH_43.json": "15a6d98fd79d2a60b337f5d97fa0c6c1d4e16417258f2564e58973ed7fee2eb7",
    "BENCH_50.json": "6bb58debabd5301fabc519f73668b75e7b53471e6e772d051b9f4cbbaf993e9f",
}
# The jobs of the paired run below, each run once per column and round to
# keep its CLI rows cheap; the one-column run further down times every job.
TWO_JOBS = ("validate", "ugh")


def plant(path: Path, name: str, params: str, steps: int) -> None:
    """Wrap the function ``name`` of ``path`` so that each call first runs a
    CPU loop of ``steps`` steps, not a sleep: every row is timed in CPU time."""
    code = f"\n\n_{name} = {name}\n\n\ndef {name}({params}):\n    sum(range({steps}))\n    return _{name}({params})\n"
    path.write_text(path.read_text(encoding="utf-8") + code, encoding="utf-8")


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """One paired run of :data:`TWO_JOBS` at n = 6 and 20, three rounds, best
    of one: the clean tree against a copy with a loop planted in the
    ``restrict`` layer and one in the ``validate`` job's handler.  Gives the
    JSON text, so that each test reads its own copy, and the report written
    to stderr."""
    copy = tmp_path_factory.mktemp("planted") / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    plant(copy / "ultrametric" / "hyperspace.py", "restrict", "space, subset", 100_000)
    # About 55 ms of CPU on a job of about 45 ms; the ugh job does not run it.
    plant(copy / "ultrametric" / "jsonio.py", "cli_validate", "args", 3_000_000)
    out = copy.parent / "bench.json"
    argv = ["--sizes", "6,20", "--repeat", "1", "--rounds", "3", "-o", str(out)]
    argv += ["--src", f"clean={ROOT / 'src'}", "--src", f"planted={copy}"]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(growth, "JOBS", {job: growth.JOBS[job] for job in TWO_JOBS})
        assert growth.main(argv) == 0
    return out.read_text(encoding="utf-8"), err.getvalue()


def test_a_tiny_run_writes_the_schema(planted, monkeypatch):
    text, err = planted
    monkeypatch.setattr(growth, "JOBS", {job: growth.JOBS[job] for job in TWO_JOBS})
    doc = json.loads(text)
    growth.check_schema(doc)
    assert list(doc["columns"]) == ["clean", "planted"] and doc["sizes"] == [6, 20]
    clean, other = doc["columns"]["clean"], doc["columns"]["planted"]
    assert clean["digest"] == growth.digest(ROOT / "src") != other["digest"]
    assert list(doc["ratios"]) == ["planted"] and set(doc["ratios"]["planted"]) == set(growth.LAYERS)
    # Each CLI row prints each column's median and IQR, and the paired ratio.
    cli_rows = err.split("CLI, ")[1].splitlines()[1:]
    rows = [*TWO_JOBS, *growth.BARE]
    assert [line.split(":")[0].strip() for line in cli_rows] == rows
    for row, line in zip(rows, cli_rows):
        kind = "jobs" if row in TWO_JOBS else "bare"
        entries = {name: c["cli"][kind][row] for name, c in doc["columns"].items()}
        cell = {name: f"{e['median_ms']:.1f} ms (IQR {e['iqr_ms']:.1f})" for name, e in entries.items()}
        ratio = growth.ratio_text(doc["cli_ratios"]["planted"][row])
        assert line == f"  {row}: clean {cell['clean']}, planted {cell['planted']} paired {ratio}"
    assert list(doc["cli_ratios"]) == ["planted"] and set(doc["cli_ratios"]["planted"]) == set(rows)
    del doc["cli_ratios"]["planted"]["ugh"]
    with pytest.raises(AssertionError):
        growth.check_schema(doc)
    # Each size's paired median is printed with its IQR.
    ratio = err.split("clean -> planted, ")[1].splitlines()[1]
    assert ratio.startswith("  glue: n=6 ") and ratio.count("x (") == 2, ratio


def test_each_round_pairs_the_columns_and_rotates_the_first(monkeypatch):
    # Scripted best-of times per column, round by round, for every layer: the
    # second column's same-round ratios are 1.5, 0.5, 1 and 2.
    script = {"growth_column_0": [2.0, 4.0, 8.0, 1.0], "growth_column_1": [3.0, 2.0, 8.0, 2.0]}
    calls = []

    def best(call, inputs, repeat):
        if not isinstance(call, tuple):  # a CLI row
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


def test_a_loop_planted_in_one_layer_shows_in_its_paired_ratio(planted):
    ratios = json.loads(planted[0])["ratios"]["planted"]["restrict"]
    assert ratios["20"]["median"] > 2, ratios


def test_a_loop_planted_in_one_job_shows_in_its_paired_cli_ratio(planted):
    ratios = json.loads(planted[0])["cli_ratios"]["planted"]
    assert ratios["validate"]["median"] > 1.5 and ratios["ugh"]["median"] < 1.5, ratios


@pytest.mark.parametrize("name", sorted({path.name for path in ROOT.glob("BENCH_*.json")} | set(PINNED)))
def test_committed_bench_files_have_the_schema(name):
    data = (ROOT / name).read_bytes()
    if name in PINNED:
        assert hashlib.sha256(data).hexdigest() == PINNED[name], name
    else:
        growth.check_schema(json.loads(data))


@pytest.mark.parametrize(
    "argv",
    [
        ["--src", "src"],
        ["--src", f"a={ROOT / 'src'}", "--src", f"a={ROOT / 'src'}"],
        ["--src", f"a={ROOT / 'tests'}"],
        ["--sizes", "0"],
        ["--repeat", "0"],
        ["--rounds", "0"],
        ["--sizes", "6,6"],
        ["--sizes", "8,6"],
    ],
    ids=[
        "src-without-name",
        "column-named-twice",
        "dir-without-package",
        "size-0",
        "repeat-0",
        "rounds-0",
        "size-repeated",
        "size-falling",
    ],
)
def test_bad_arguments_end_in_a_usage_error_before_any_tree_loads(argv, monkeypatch, capsys):
    monkeypatch.setattr(growth, "bench", lambda *_: pytest.fail("the bench started"))
    with pytest.raises(SystemExit) as raised:
        growth.main(argv)
    assert raised.value.code == 2 and "error: " in capsys.readouterr().err


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


def test_schema_10_drops_the_start_up_row(one_column):
    doc = json.loads(one_column)
    assert doc["schema"] == "ultrametric-growth/10" and doc["cli_ratios"] == {}
    assert "scaled" not in one_column and "share" not in one_column and "compile" not in one_column
    column = doc["columns"]["only"]
    rows = ("read", "validate", "write", "single_linkage_collinear")
    assert all(column["times"][layer]["6"]["median_ms"] > 0 for layer in rows)
    # One round: every spread is 0.
    assert column["times"]["glue"]["6"]["iqr_ms"] == column["cli"]["jobs"]["ugh"]["iqr_ms"] == 0
    # No scaled time, program share, start-up row or compile ratio is a
    # schema-10 field.
    jobs = column["cli"]["jobs"]
    for row, field in (
        (column["times"]["glue"]["6"], "scaled"),
        (jobs["ugh"], "scaled"),
        (column["cli"]["bare"]["python -c pass"], "scaled"),
        (jobs["ugh"], "share_ms"),
        (column, "startup"),
        (doc, "compile_ratios"),
    ):
        row[field] = {}
        with pytest.raises(AssertionError):
            growth.check_schema(doc)
        del row[field]
    growth.check_schema(doc)
    # Only this schema is read.
    for old in ("ultrametric-growth/9", "ultrametric-growth/8"):
        doc["schema"] = old
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

