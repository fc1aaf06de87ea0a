import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultrametric import certificates, jsonio, spaces, verify_certificate
from ultrametric.cli import main
from ultrametric.rationals import digit_bound

from cli_corpus import CASES, GOLDEN, expected_text, run_case
from conftest import BUILD_SPACE, BUILDER_MODULES, CHECK_AXIOMS, PRIM_MODULES, shallow_recursion

CORPUS = [pytest.param(*case, id=case[0]) for case in CASES]


@pytest.mark.parametrize("name,argv,want_code", CORPUS)
def test_corpus_matches_golden_bytes(name, argv, want_code, tmp_path):
    frozen = gc.get_freeze_count()  # not 0 at start on Python 3.12
    code, out, err, written = run_case(argv, tmp_path)
    assert code == want_code
    assert out == expected_text(name, "out")
    assert err == expected_text(name, "err")
    for file_name, content in written.items():
        assert content == expected_text(name, file_name)
    # main() leaves the caller's collector alone.
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("name,argv,want_code", CORPUS)
def test_corpus_is_deterministic_across_runs(name, argv, want_code, tmp_path):
    (tmp_path / "first").mkdir()
    (tmp_path / "second").mkdir()
    first = run_case(argv, tmp_path / "first")
    second = run_case(argv, tmp_path / "second")
    assert first == second


def test_every_emitted_space_revalidates(tmp_path):
    emits_space = [
        "validate_ok", "validate_merge", "glue", "amalgam", "gen_two_point",
        "gen_crowd", "gen_cauchy", "gen_random", "cluster", "cluster_merge",
        "quotient",
    ]
    by_name = {name: argv for name, argv, _ in CASES}
    for name in emits_space:
        _, out, _, _ = run_case(by_name[name], tmp_path)
        obj = json.loads(out)
        jsonio.space_from_obj(obj)


def test_output_file_flag(tmp_path):
    # Every verb and family takes -o, and writes there what it prints otherwise.
    cases = [(name, argv) for name, argv, code in CASES if code == 0]
    assert len(cases) == 20
    for name, argv in cases:
        (tmp_path / name).mkdir()
        target = tmp_path / name / "result.json"
        code, out, err, _ = run_case([*argv, "-o", str(target)], tmp_path / name)
        assert (code, out, err) == (0, "", ""), name
        assert target.read_text(encoding="utf-8") == expected_text(name, "out"), name


def test_reads_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", type("S", (), {"read": staticmethod(lambda: (GOLDEN / "isosceles.json").read_text())})()
    )
    assert main(["spectrum", "-"]) == 0
    assert capsys.readouterr().out == '["0", "1", "2"]\n'


def test_subset_from_file(tmp_path):
    subset = tmp_path / "a.json"
    subset.write_text('["a", "c"]', encoding="utf-8")
    code, out, _, _ = run_case(
        ["hausdorff", "isosceles.json", "--a", f"@{subset}", "--b", '["b"]'], tmp_path
    )
    assert code == 0
    assert out == '{"value": "2"}\n'


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_diagnostics_plain_when_no_color(monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
    code = main(["validate", str(GOLDEN / "bad_triangle.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith('{"error": "TriangleViolation"')
    assert "\x1b[" not in err


def test_diagnostics_colored_on_tty_without_no_color(monkeypatch, capsys):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
    code = main(["validate", str(GOLDEN / "bad_triangle.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("\x1b[31merror:\x1b[0m ")


def run_in_golden(args, text=True, buffered=False, path=(), stdout=subprocess.PIPE):
    # The child runs from tests/golden, so a relative PYTHONPATH would miss src.
    # ``buffered`` unsets PYTHONUNBUFFERED, so a piped stdout is block-buffered
    # as it is by default; ``path`` goes on PYTHONPATH before src; stdout is
    # captured unless ``stdout`` names another file descriptor.
    paths = [*map(str, path), str(Path(__file__).resolve().parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(args, cwd=GOLDEN, stdout=stdout, stderr=subprocess.PIPE, text=text, env=env)


def test_module_entrypoint_subprocess():
    result = run_in_golden([sys.executable, "-m", "ultrametric", "validate", "isosceles.json"])
    assert result.returncode == 0
    assert result.stdout == expected_text("validate_ok", "out")
    assert result.stderr == ""


def test_piped_job_writes_the_bytes_main_writes(tmp_path):
    # Over half a megabyte, many times a pipe's buffer, through a real exit
    # of the process, which flushes stdout and leaves through os._exit.
    argv = ["gen", "random", "--n", "300", "--k", "0,1/4,1/2,1", "--seed", "5"]
    result = run_in_golden([sys.executable, "-m", "ultrametric", *argv], text=False)
    code, out, _, _ = run_case(argv, tmp_path)
    assert result.returncode == code == 0
    assert result.stderr == b""
    assert len(result.stdout) > 2**19
    assert result.stdout == out.encode("utf-8")


def test_an_exit_handlers_line_arrives_through_a_pipe(tmp_path):
    # The job runs the atexit handlers before it flushes and leaves through
    # os._exit, so a line a handler prints into the buffer is written too.
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit\natexit.register(print, 'handler ran')\n", encoding="utf-8"
    )
    argv = [sys.executable, "-m", "ultrametric", "validate", "isosceles.json"]
    result = run_in_golden(argv, buffered=True, path=[tmp_path])
    assert result.returncode == 0
    assert result.stdout == expected_text("validate_ok", "out") + "handler ran\n"
    assert result.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "isosceles.json", "-o", "{tmp}/out.json"],
        ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json"],
    ],
    ids=["output", "certificate"],
)
def test_a_jobs_files_are_the_files_main_writes(argv, tmp_path):
    (tmp_path / "job").mkdir()
    (tmp_path / "main").mkdir()
    job = [arg.replace("{tmp}", str(tmp_path / "job")) for arg in argv]
    result = run_in_golden([sys.executable, "-m", "ultrametric", *job], buffered=True)
    code, out, err, written = run_case(argv, tmp_path / "main")
    assert result.returncode == code == 0
    assert (result.stdout, result.stderr) == (out, err)
    assert written and written == {
        path.name: path.read_text(encoding="utf-8") for path in (tmp_path / "job").iterdir()
    }


def test_exit_code_three_on_forced_oracle_mismatch(monkeypatch, capsys):
    # No real input can trigger exit 3 (that is the point of the gate), so
    # fault-inject an oracle that lies.
    from fractions import Fraction
    import ultrametric.oracle as oracle_module

    monkeypatch.setattr(oracle_module, "ugh_oracle", lambda a, b: Fraction(99))
    code = main(
        [
            "ugh",
            str(GOLDEN / "x_half.json"),
            str(GOLDEN / "x_three_quarters.json"),
            "--oracle",
        ]
    )
    assert code == 3
    assert '"error": "OracleMismatch"' in capsys.readouterr().err


def test_certificate_file_revalidates(tmp_path):
    code, _, _, written = run_case(
        ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json"],
        tmp_path,
    )
    assert code == 0
    cert = certificates.certificate_from_obj(json.loads(written["cert.json"]))
    x, y = (
        jsonio.space_from_obj(json.loads((GOLDEN / name).read_text(encoding="utf-8")))
        for name in ("x_half.json", "x_three_quarters.json")
    )
    verify_certificate(cert, x, y)


# One axiom scan per space read from a file; constructions, and the
# certificate built from ugh_distance's own result, add none.
AXIOM_SCANS = [
    ("ugh_cert", 2),
    ("amalgam", 2),
    ("glue", 2),
    ("quotient", 1),
    ("gen_crowd", 1),
    ("gen_two_point", 0),
    ("gen_cauchy", 0),
    ("gen_random", 0),
    ("cluster", 0),
]


@pytest.mark.parametrize("name,want", AXIOM_SCANS)
def test_axioms_are_scanned_where_data_enters(name, want, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return CHECK_AXIOMS(*args)

    for module in (spaces, certificates):
        monkeypatch.setattr(module, "_check_axioms", counted)
    argv = {case: argv for case, argv, _ in CASES}[name]
    assert run_case(argv, tmp_path)[0] == 0
    assert len(calls) == want


# One Prim pass per space read from a file: validation computes the space's
# chain, and closed balls, quotients, nets and merge trees read it.  Merging
# duplicates runs one more pass, on the "neither entry is 0" matrix.
PRIM_PASSES = [
    ("validate_ok", 1),
    ("quotient", 1),
    ("net", 1),
    ("ugh", 2),
    ("ugh_cert", 2),
    ("validate_merge", 2),
]


@pytest.mark.parametrize("name,want", PRIM_PASSES)
def test_prim_runs_once_per_input(name, want, tmp_path, monkeypatch):
    calls, chain_order = [], spaces.chain_order

    def counted(ranks):
        calls.append(len(ranks))
        return chain_order(ranks)

    # The autouse recheck scans every constructed space; count the CLI's passes only.
    for module in BUILDER_MODULES:
        monkeypatch.setattr(module, "space_from_chain", BUILD_SPACE)
    for module in PRIM_MODULES:
        monkeypatch.setattr(module, "chain_order", counted)
    argv = {case: argv for case, argv, _ in CASES}[name]
    assert run_case(argv, tmp_path)[0] == 0
    assert len(calls) == want


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    depth = 100_000
    deep = tmp_path / "deep.json"
    deep.write_text('{"points": ["a"], "dist": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["validate", str(deep)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormat"


def test_json_integer_beyond_the_digit_bound_is_too_large(tmp_path, capsys, digit_limits):
    big = tmp_path / "bigint.json"
    for bound in digit_limits:
        digits = "1" * (bound + 1)
        big.write_text('{"points": ["a", "b"], "dist": [[0, ' + digits + "], [" + digits + ", 0]]}")
        assert main(["validate", str(big)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "InstanceTooLarge",
            "message": f"a JSON integer exceeds the {bound}-digit integer limit",
            "limit": bound,
        }


@pytest.mark.parametrize("limit", [0, 640, 4300, 5000])
@pytest.mark.parametrize(
    "entry",
    ["1" * 400_000, '"1/' + "1" * 400_000 + '"', '"1e' + "9" * 5000 + '"'],
    ids=["integer", "fraction", "exponent"],
)
def test_a_number_past_the_digit_bound_is_one_diagnostic_at_every_limit(
    entry, limit, tmp_path, monkeypatch
):
    # In a fresh interpreter, which reads its integer string limit at start-up.
    huge = tmp_path / "huge.json"
    huge.write_text('{"points": ["a", "b"], "dist": [["0", ' + entry + "], [" + entry + ', "0"]]}')
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", str(limit))
    result = run_in_golden([sys.executable, "-m", "ultrametric", "validate", str(huge)])
    assert (result.returncode, result.stdout, result.stderr.count("\n")) == (1, "", 1)
    err = json.loads(result.stderr)
    assert (err["error"], err["limit"]) == ("InstanceTooLarge", min(limit or 4300, 4300))


@pytest.mark.parametrize(
    "entry, error, message",
    [
        ("1/" + "1" * 400_000, "InstanceTooLarge", "rational {0!r} exceeds the {1}-digit integer limit"),
        ("x" * 100_000, "InputFormat", "not a rational: {0!r}"),
    ],
    ids=["fraction", "letters"],
)
def test_a_long_refused_spelling_is_quoted_by_its_first_characters(entry, error, message, tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", entry], [entry, "0"]]}))
    assert main(["validate", str(long)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    payload = json.loads(err)
    shown = entry[:32] + "…"
    assert payload["value"] == shown and payload["message"] == message.format(shown, digit_bound())
    assert payload["error"] == error


@pytest.mark.parametrize(
    "k, message",
    [
        ("0,-1,1", "allowed values must be nonnegative"),
        ("1/2,1", "the allowed value set must contain 0"),
    ],
)
def test_bad_allowed_values_are_named(k, message, tmp_path):
    code, out, err, _ = run_case(["in-uk", "isosceles.json", f"--k={k}"], tmp_path)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "InvalidParameter", "message": message}


@pytest.mark.parametrize("n", ["1", "0"])
def test_a_bad_crowd_scale_is_named_before_the_base_point_and_n(n, tmp_path):
    # The handler hands the text of --c to crowd_family, which reads it first.
    argv = ["gen", "crowd", "--space", "pair.json", "--base", "zz", "--c", "abc", "--n", n]
    code, out, err, _ = run_case(argv, tmp_path)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "InputFormat", "message": "not a rational: 'abc'", "value": "abc"}


@pytest.mark.parametrize(
    "argv, files, error, message",
    [
        (["glue", "{tmp}/spec.json"], {"spec.json": "[]"}, "InputFormat",
         "glue spec must be a JSON object"),
        (["hausdorff", "isosceles.json", "--a", "[1]", "--b", '["a"]'], {}, "InputFormat",
         "subset must be a JSON array of point labels"),
        (["cluster", "--input", "{tmp}/empty.json"], {"empty.json": '{"points": [], "dist": []}'},
         "EmptySpace", "a space needs at least one point"),
    ],
    ids=["glue_spec_not_an_object", "subset_not_labels", "cluster_no_points"],
)
def test_malformed_inputs_are_named(argv, files, error, message, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, err, _ = run_case(argv, tmp_path)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize(
    "space, error",
    [
        ('{"points": ["a", "a", "c"], "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}',
         {"error": "DuplicateLabel", "message": "label 'a' appears more than once", "label": "a"}),
        ('{"points": [], "dist": []}', {"error": "EmptySpace", "message": "a space needs at least one point"}),
        ('{"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"], ["1", "1"]]}',
         {"error": "InputFormat", "message": "matrix has 3 rows for 2 labels"}),
    ],
    ids=["repeated_label", "no_points", "extra_row"],
)
def test_cluster_reads_a_matrix_as_validate_does(space, error, tmp_path):
    (tmp_path / "space.json").write_text(space, encoding="utf-8")
    path = "{tmp}/space.json"
    errs = set()
    for argv in (["validate", path], ["cluster", "--input", path], ["cluster", "--input", path, "--merge-duplicates"]):
        code, out, err, _ = run_case(argv, tmp_path)
        assert (code, out, err.count("\n")) == (1, "", 1), argv
        errs.add(err)
    assert len(errs) == 1 and json.loads(errs.pop()) == error


@pytest.mark.parametrize("verb", [["validate"], ["cluster", "--input"]], ids=["validate", "cluster"])
@pytest.mark.parametrize(
    "row, message",
    [("5", "matrix row 1 is not a list"), ('["1"]', "matrix row 1 has 1 entries, expected 2")],
    ids=["not_a_list", "short"],
)
def test_a_bad_row_gets_the_readers_message_from_every_verb(verb, row, message, tmp_path):
    space = '{"points": ["a", "b"], "dist": [["0", "1"], ' + row + "]}"
    (tmp_path / "rows.json").write_text(space, encoding="utf-8")
    code, out, err, _ = run_case([*verb, "{tmp}/rows.json"], tmp_path)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": "InputFormat", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "isosceles.json", "-o", "{tmp}/missing/out.json"],
        ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/missing/cert.json"],
    ],
    ids=["output", "certificate"],
)
def test_unwritable_output_is_a_diagnostic(argv, tmp_path):
    code, out, err, written = run_case(argv, tmp_path)
    assert (code, out, written) == (1, "", {})
    payload = json.loads(err)
    assert payload["error"] == "InvalidParameter"
    assert payload["path"] == argv[-1].replace("{tmp}", str(tmp_path))


CLOSED_STDOUT = {
    "error": "InvalidParameter",
    "message": "cannot write the result: standard output is closed",
}


def test_closed_stdout_is_a_diagnostic(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate", str(GOLDEN / "isosceles.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == CLOSED_STDOUT


def test_closed_stdout_is_a_diagnostic_in_a_job():
    script = 'exec "$0" -m ultrametric validate isosceles.json >&-'
    result = run_in_golden(["sh", "-c", script, sys.executable])
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr) == CLOSED_STDOUT


def test_a_closed_pipe_is_a_diagnostic_in_a_job():
    # The job writes its result into a pipe that nothing reads any more.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        args = [sys.executable, "-m", "ultrametric", "validate", "isosceles.json"]
        result = run_in_golden(args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert json.loads(result.stderr) == {
        "error": "InvalidParameter",
        "message": "cannot write the result: Broken pipe",
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the system has no /dev/full")
def test_full_stdout_is_a_diagnostic_in_a_job():
    script = 'exec "$0" -m ultrametric validate isosceles.json > /dev/full'
    result = run_in_golden(["sh", "-c", script, sys.executable])
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    assert json.loads(result.stderr) == {
        "error": "InvalidParameter",
        "message": "cannot write the result: No space left on device",
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="the system has no /dev/full")
def test_help_into_a_full_disk_is_a_diagnostic_in_a_job():
    # Block-buffered, the help is still in stdout's buffer when main() returns,
    # so the job's exit flush is the write that fails.
    script = 'exec "$0" -m ultrametric --help > /dev/full'
    result = run_in_golden(["sh", "-c", script, sys.executable], buffered=True)
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr) == {
        "error": "InvalidParameter",
        "message": "cannot write the result: No space left on device",
    }


# Full, closed (stderr is None) and open for reading only (writes fail).
@pytest.mark.parametrize(
    "stderr", ["2>/dev/full", "2>&-", "2</dev/null"], ids=["full", "closed", "read_only"]
)
@pytest.mark.parametrize(
    "argv, code", [("validate bad_triangle.json", 1), ("frobnicate", 2)], ids=["domain", "usage"]
)
def test_an_unwritable_stderr_keeps_the_exit_code(argv, code, stderr):
    # With stderr unwritable the diagnostic has nowhere to go; the job
    # still exits as it would have, not with the interpreter's 120, and
    # writes nothing to stdout in its place.
    if stderr == "2>/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("the system has no /dev/full")
    script = f'exec "$0" -m ultrametric {argv} {stderr}'
    result = run_in_golden(["sh", "-c", script, sys.executable], buffered=True)
    assert result.returncode == code
    assert result.stdout == ""


def test_a_missing_stderr_keeps_the_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stderr", None)
    for argv, code in [(["validate", str(GOLDEN / "bad_triangle.json")], 1), (["frobnicate"], 2)]:
        assert main(argv) == code
        assert capsys.readouterr().out == ""


CLOSED_STDIN = {
    "error": "InputFormat",
    "message": "cannot read -: standard input is closed",
    "path": "-",
}


def test_closed_stdin_is_a_diagnostic(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["validate", "-"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == CLOSED_STDIN


def test_closed_stdin_is_a_diagnostic_in_a_job():
    script = 'exec "$0" -m ultrametric validate - <&-'
    result = run_in_golden(["sh", "-c", script, sys.executable])
    assert result.returncode == 1
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr) == CLOSED_STDIN


@pytest.mark.parametrize(
    "argv, code",
    [
        ("validate isosceles.json", 1),
        ("validate isosceles.json -o {out}", 0),
        ("validate bad_triangle.json", 1),
        ("validate -", 1),
        ("nosuchverb", 2),
    ],
    ids=["stdout", "output_file", "domain", "stdin", "usage"],
)
def test_all_three_streams_closed_keep_the_exit_code(argv, code, tmp_path, monkeypatch):
    # With no standard stream open, the file -o names opens on fd 0 and still
    # gets the result; a job that fails writes no file.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    out = tmp_path / "out.json"
    golden = sorted(os.listdir(GOLDEN))
    script = f'exec "$0" -m ultrametric {argv.format(out=out)} <&- >&- 2>&-'
    result = run_in_golden(["sh", "-c", script, sys.executable])
    assert result.returncode == code
    assert sorted(os.listdir(GOLDEN)) == golden
    if code == 0:
        assert out.read_text(encoding="utf-8") == expected_text("validate_ok", "out")
    else:
        assert os.listdir(tmp_path) == []


def test_cauchy_depth_beyond_the_cell_budget_is_a_diagnostic(tmp_path):
    code, out, err, written = run_case(["gen", "cauchy", "--depth", "1000000000"], tmp_path)
    assert (code, out, written) == (1, "", {})
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InstanceTooLarge"
    assert json.loads(err)["max_depth"] == 1447


def test_ugh_on_a_caterpillar_deeper_than_the_recursion_limit(tmp_path):
    code, _, _, _ = run_case(["gen", "cauchy", "--depth", "200", "-o", "{tmp}/c.json"], tmp_path)
    assert code == 0
    with shallow_recursion():
        code, out, err, _ = run_case(["ugh", "{tmp}/c.json", "{tmp}/c.json"], tmp_path)
    assert (code, out, err) == (0, '{"value": "0", "scale_witness": "0"}\n', "")
