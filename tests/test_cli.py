import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultrametric import certificates, dendrogram, jsonio, spaces, verify_certificate
from ultrametric.cli import main
from ultrametric.rationals import int_max_str_digits

from cli_corpus import CASES, GOLDEN, SKIPPED, expected_text, run_case
from conftest import BUILD_SPACE, BUILDER_MODULES, CHECK_AXIOMS, shallow_recursion

CORPUS = [
    pytest.param(
        *case,
        id=case[0],
        marks=pytest.mark.skipif(
            case[0] in SKIPPED, reason="the expected bytes need the 4300-digit integer string limit"
        ),
    )
    for case in CASES
]


@pytest.mark.parametrize("name,argv,want_code", CORPUS)
def test_corpus_matches_golden_bytes(name, argv, want_code, tmp_path):
    frozen = gc.get_freeze_count()  # not 0 at start on Python 3.12
    code, out, err, written = run_case(argv, tmp_path)
    assert code == want_code
    assert out == expected_text(name, "out")
    assert err == expected_text(name, "err")
    for file_name, content in written.items():
        assert content == expected_text(name, file_name)
    # Only the process entry point freezes; main() leaves the caller's collector alone.
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
    target = tmp_path / "result.json"
    code, out, err, _ = run_case(
        ["spectrum", "isosceles.json", "-o", str(target)], tmp_path
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == '["0", "1", "2"]\n'


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


def run_in_golden(args, text=True):
    # The child runs from tests/golden, so a relative PYTHONPATH would miss src.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)
    return subprocess.run(args, cwd=GOLDEN, capture_output=True, text=text, env=env)


def test_module_entrypoint_subprocess():
    result = run_in_golden([sys.executable, "-m", "ultrametric", "validate", "isosceles.json"])
    assert result.returncode == 0
    assert result.stdout == expected_text("validate_ok", "out")
    assert result.stderr == ""


def test_piped_job_writes_the_bytes_main_writes(tmp_path):
    # Over half a megabyte, many times a pipe's buffer, through a real exit
    # of the process, which freezes the heap first.
    argv = ["gen", "random", "--n", "300", "--k", "0,1/4,1/2,1", "--seed", "5"]
    result = run_in_golden([sys.executable, "-m", "ultrametric", *argv], text=False)
    code, out, _, _ = run_case(argv, tmp_path)
    assert result.returncode == code == 0
    assert result.stderr == b""
    assert len(result.stdout) > 2**19
    assert result.stdout == out.encode("utf-8")


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
    cert = jsonio.certificate_from_obj(json.loads(written["cert.json"]))
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
    for module in (spaces, dendrogram):
        if hasattr(module, "chain_order"):
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


@pytest.mark.skipif(not int_max_str_digits(), reason="the interpreter has no integer string limit")
def test_json_integer_beyond_the_int_string_limit_is_an_input_error(tmp_path, capsys):
    big = tmp_path / "bigint.json"
    digits = "1" * (int_max_str_digits() + 1)
    big.write_text('{"points": ["a", "b"], "dist": [[0, ' + digits + "], [" + digits + ", 0]]}")
    assert main(["validate", str(big)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InputFormat"


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


def test_cauchy_depth_beyond_the_int_string_limit_is_a_diagnostic(tmp_path):
    code, out, err, written = run_case(["gen", "cauchy", "--depth", "1000000000"], tmp_path)
    assert (code, out, written) == (1, "", {})
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InstanceTooLarge"


def test_ugh_on_a_caterpillar_deeper_than_the_recursion_limit(tmp_path):
    code, _, _, _ = run_case(["gen", "cauchy", "--depth", "200", "-o", "{tmp}/c.json"], tmp_path)
    assert code == 0
    with shallow_recursion():
        code, out, err, _ = run_case(["ugh", "{tmp}/c.json", "{tmp}/c.json"], tmp_path)
    assert (code, out, err) == (0, '{"value": "0", "scale_witness": "0"}\n', "")
