"""The verb-scoped parser answers exactly as the full parser does.

``main`` builds only the named verb's parser when it can; these tests run the
same argument lists through ``main`` twice, once as shipped and once with
parsing forced through ``build_parser()``, and compare exit code, stdout,
stderr and written files.
"""

import pytest

from ultrametric import cli

from cli_corpus import run_case

CASES = {
    "help": ["--help"],
    "validate_help": ["validate", "--help"],
    "gen_help": ["gen", "--help"],
    "gen_random_help": ["gen", "random", "--help"],
    "ugh_help_short": ["ugh", "-h"],
    "no_arguments": [],
    "unknown_verb": ["frobnicate"],
    "unknown_family": ["gen", "fractal"],
    "missing_family": ["gen"],
    "missing_t": ["quotient", "isosceles.json"],
    "missing_space": ["validate"],
    "n_not_int": ["gen", "random", "--n", "x", "--k", "0,1", "--seed", "1"],
    "extra_positional": ["validate", "a", "b"],
    "extra_after_family": ["gen", "two-point", "--c", "1", "zzz"],
    "unknown_flag": ["validate", "isosceles.json", "--bogus"],
    "abbreviated_certificate": [
        "ugh", "x_half.json", "x_three_quarters.json", "--cert", "{tmp}/cert.json",
    ],
    "abbreviated_merge": ["validate", "dirty_space.json", "--merge"],
    "t_equals": ["quotient", "isosceles.json", "--t=1"],
    "t_negative": ["quotient", "isosceles.json", "--t", "-1"],
    "double_dash": ["validate", "--", "isosceles.json"],
    "repeated_flag": ["gen", "cauchy", "--depth", "2", "--depth", "1"],
    "flag_missing_value": ["ugh", "-o"],
    "ok_spectrum": ["spectrum", "isosceles.json"],
    "ok_cluster_merge": ["cluster", "--input", "dirty_metric.json", "--merge-duplicates"],
}


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_verb_parser_matches_full_parser(argv, tmp_path, monkeypatch):
    (tmp_path / "scoped").mkdir()
    (tmp_path / "full").mkdir()
    scoped = run_case(argv, tmp_path / "scoped")
    monkeypatch.setattr(cli, "_parse", full_parse)
    assert run_case(argv, tmp_path / "full") == scoped


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "isosceles.json"],
        ["quotient", "isosceles.json", "--t=1"],
        ["gen", "random", "--n", "5", "--k", "0,1/2,1", "--seed", "3"],
        ["ugh", "x_half.json", "x_three_quarters.json", "--cert", "{tmp}/cert.json"],
    ],
    ids=["validate", "quotient", "gen_random", "ugh_certificate"],
)
def test_a_clean_job_builds_only_its_verb_parser(argv, tmp_path, monkeypatch):
    def unreachable():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", unreachable)
    code, _, err, _ = run_case(argv, tmp_path)
    assert (code, err) == (0, "")

