"""The argv reader answers exactly as the full argparse parser does.

``main`` reads a clean job's arguments with ``cli._scan`` and hands anything
else to ``cli.build_parser()``.  The first tests run the same argument lists
through ``main`` twice, once as shipped and once with parsing forced through
``build_parser()``, and compare exit code, stdout, stderr and written files;
the last compares the two namespaces on seeded, mutated argument lists.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

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
        ["quotient", "isosceles.json", "--t", "1"],
        ["gen", "random", "--n", "5", "--k", "0,1/2,1", "--seed", "3"],
        ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json"],
    ],
    ids=["validate", "quotient", "gen_random", "ugh_certificate"],
)
def test_a_clean_job_builds_only_its_verb_parser(argv, tmp_path, monkeypatch):
    def unreachable():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", unreachable)
    code, _, err, _ = run_case(argv, tmp_path)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "isosceles.json", "--t=1"],
        ["validate", "dirty_space.json", "--merge"],
        ["validate", "dirty_space.json", "--merge-duplicates=1"],
        ["ugh", "x_half.json", "x_three_quarters.json", "--cert", "cert.json"],
        ["gen", "random", "--n", "5", "--k=0,1", "--seed", "3"],
    ],
    ids=["t_equals", "merge_prefix", "switch_equals", "certificate_prefix", "k_equals"],
)
def test_the_scan_leaves_other_spellings_to_argparse(argv):
    assert cli._scan(argv) is None


# Arguments the mutations below draw from: hostile options, and values that
# argparse reads as options, as negative numbers or as ints of another spelling.
STRAY = ["-", "--", "-h", "--help", "--he", "-ox", "-o=x", "-1", "--bogus", "---o", "--=x", "-O"]
VALUES = ["1/2", "x", "", "a=b", "x y", "-1", "-", "--", "-h", "٣"]
INTS = ["3", " 7", "+7", "7_0", "٣", "x", "-1", "1.0"]


def job(rng, verb, family, arguments):
    """A random argv for one verb: its positionals, and its flags in any
    order and value, some optional ones left out, most spelled exactly and
    some abbreviated or as ``--flag=value``."""
    units = []
    for names, options in arguments:
        if not names[0].startswith("-"):
            units.append([f"{names[0]}.json"])
            continue
        if not options.get("required") and rng.random() < 0.5:
            continue
        flag = rng.choice(names)
        if flag.startswith("--") and rng.random() < 0.05:
            flag = flag[: rng.randint(3, len(flag))]  # unique, ambiguous or --help's
        if options.get("action") == "store_true":
            units.append([flag])
            continue
        value = rng.choice(INTS if options.get("type") else VALUES)
        units.append([f"{flag}={value}"] if rng.random() < 0.05 else [flag, value])
    rng.shuffle(units)
    return [verb, *([family] if family else []), *(arg for unit in units for arg in unit)]


def mutated(rng, argv):
    """``argv`` with up to two random edits."""
    argv = list(argv)
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(len(argv))
        edit = rng.randrange(5)
        if edit == 0:
            argv.insert(k, rng.choice(STRAY))
        elif edit == 1:
            argv += argv[k : k + 2]  # a repeated flag, or an extra positional
        elif edit == 2:
            del argv[k]  # a missing positional, flag, value, verb or family
        elif edit == 3:
            argv.insert(k, rng.choice(["extra.json", "validate", "random"]))
        elif argv[k].startswith("-"):
            argv[k] += "=" + rng.choice(VALUES)  # also on a switch
    return argv


def leaf(argv):
    """The verb of a drawn argv, and its family if the verb is ``gen``."""
    return argv[0], argv[1] if argv[0] == "gen" else None


def test_scan_reads_every_argv_it_accepts_as_argparse_does():
    parser = cli.build_parser()
    rng = random.Random(16)
    # Each verb's and family's arguments, with the -o both readers add to them.
    verbs = [
        (verb, family, (*arguments, cli._OUTPUT))
        for verb, (_, _, spec) in cli.VERBS.items()
        for family, (_, arguments) in (
            spec.items() if isinstance(spec, dict) else [(None, (None, spec))]
        )
    ]
    accepted, declined = [], []
    for _ in range(12000):
        argv = mutated(rng, job(rng, *rng.choice(verbs)))
        args = cli._scan(argv)
        if args is None:
            declined.append(argv)
            continue
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            want = parser.parse_args(argv)
        assert vars(args) == vars(want), argv
        accepted.append(argv)
    assert len(accepted) > 2000 and len(declined) > 5000
    leaves = {(verb, family) for verb, family, _ in verbs}
    assert {leaf(argv) for argv in accepted} == leaves
    # The shared tail is drawn too: every leaf accepts -o in one of its spellings.
    assert {leaf(argv) for argv in accepted if {"-o", "--output"} & set(argv)} == leaves
    assert {" 7", "+7", "7_0", "٣"} <= {arg for argv in accepted for arg in argv}
    # Every option an accepted argv holds is one of its verb's flags, spelled
    # exactly; the declined hold abbreviated flags and ``--flag=value`` tokens.
    flags = {
        (verb, family): {flag for names, _ in arguments for flag in names}
        for verb, family, arguments in verbs
    }
    for argv in accepted:
        own = flags[leaf(argv)]
        assert all(arg in own for arg in argv if arg.startswith("-")), argv
    every = set().union(*flags.values())
    others = {arg for argv in declined for arg in argv if arg.startswith("--")} - every
    assert any("=" in arg for arg in others)
    assert any(flag.startswith(arg) for arg in others for flag in every)
