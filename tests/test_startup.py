"""Start-up cost: a CLI job imports only the modules its verb reaches.

Each check runs a fresh interpreter, since this test process has long since
imported every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrametric
from ultrametric import amalgam, builders, certificates, jsonio, oracle, spaces

from cli_corpus import GOLDEN

MINIMAL = {
    "ultrametric",
    "ultrametric.cli",
    "ultrametric.errors",
    "ultrametric.jsonio",
    "ultrametric.rationals",
    "ultrametric.spaces",
}

# Runs the CLI as ``python -m ultrametric`` does, then prints its exit code,
# the modules it left loaded, those of the package that define
# ``verify_certificate`` and how many objects it froze, as the last line of
# stdout.  (Python 3.12 starts with some objects frozen.)
RUN_AND_LIST = """
import gc, json, runpy, sys
sys.argv = ["ultrametric", *sys.argv[1:]]
frozen = gc.get_freeze_count()
try:
    runpy.run_module("ultrametric", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
certifying = [
    name for name, module in sys.modules.items()
    if name.startswith("ultrametric") and "verify_certificate" in vars(module)
]
print(json.dumps([code, sorted(sys.modules), sorted(certifying), gc.get_freeze_count() - frozen]))
"""

# Stdlib modules no clean job needs: ``dataclasses`` alone imports ``inspect``,
# ``ast``, ``dis`` and ``tokenize``, and ``argparse`` imports ``gettext``, which
# imports ``locale`` at its first message lookup.
HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def run_python(args):
    # The child runs from tests/golden, so a relative PYTHONPATH would miss src.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)
    result = subprocess.run(
        [sys.executable, *args], cwd=GOLDEN, capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_listed(argv):
    return json.loads(run_python(["-c", RUN_AND_LIST, *argv]).splitlines()[-1])


def run_job(argv):
    code, modules, certifying, _ = run_listed(argv)
    assert code == 0
    return set(modules), certifying


def all_modules_loaded_by(argv):
    return run_job(argv)[0]


def modules_loaded_by(argv):
    return {m for m in all_modules_loaded_by(argv) if m.startswith("ultrametric")}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", "isosceles.json"], set()),
        (["spectrum", "isosceles.json"], set()),
        # A quotient is built, from the source's chain.
        (["quotient", "isosceles.json", "--t", "1"], {"ultrametric.builders"}),
    ],
    ids=["validate", "spectrum", "quotient"],
)
def test_space_verbs_load_the_minimal_set(argv, extra):
    assert modules_loaded_by(argv) == MINIMAL | extra


def test_ugh_without_oracle_skips_oracle_amalgam_and_generators():
    loaded = modules_loaded_by(["ugh", "x_half.json", "x_three_quarters.json"])
    assert "ultrametric.gromov" in loaded
    assert not loaded & {"ultrametric.oracle", "ultrametric.amalgam", "ultrametric.generators"}


def test_ugh_without_certificate_or_oracle_skips_hyperspace():
    loaded = modules_loaded_by(["ugh", "x_half.json", "x_three_quarters.json"])
    assert "ultrametric.hyperspace" not in loaded


@pytest.mark.parametrize(
    "argv, want",
    [
        (["ugh", "x_half.json", "x_three_quarters.json"], []),
        (
            ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json"],
            ["ultrametric.certificates"],
        ),
    ],
    ids=["ugh", "ugh_certificate"],
)
def test_only_ugh_certificate_loads_the_certificate_code(argv, want, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert run_job(argv)[1] == want


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--input", "metric.json"],
        ["in-uk", "isosceles.json", "--k", "0,1,2"],
        ["gen", "crowd", "--space", "pair.json", "--base", "a", "--c", "1/2", "--n", "2"],
        ["gen", "random", "--n", "5", "--k", "0,1/2,1", "--seed", "3"],
    ],
    ids=["cluster", "in_uk", "gen_crowd", "gen_random"],
)
def test_generators_skip_dendrogram(argv):
    loaded = modules_loaded_by(argv)
    assert "ultrametric.generators" in loaded
    assert "ultrametric.dendrogram" not in loaded


def test_glue_skips_gromov_and_generators():
    loaded = modules_loaded_by(["glue", "gluespec.json"])
    assert "ultrametric.amalgam" in loaded
    assert not loaded & {"ultrametric.gromov", "ultrametric.generators"}


@pytest.mark.parametrize(
    "argv, want_code",
    [(["validate", "isosceles.json"], 0), (["validate", "bad_triangle.json"], 1), (["frobnicate"], 2)],
    ids=["exit_0", "exit_1", "exit_2"],
)
def test_a_job_freezes_its_objects_before_exit(argv, want_code):
    # Frozen objects are skipped by the collections the interpreter runs at
    # shutdown, which would otherwise walk everything the job loaded.
    code, _, _, frozen = run_listed(argv)
    assert code == want_code
    assert frozen > 0


@pytest.fixture(scope="module")
def bare_modules():
    """Modules a bare interpreter loads, which are not charged to a job."""
    return set(run_python(["-c", "import sys; print(*sys.modules)"]).split())


# A clean job of every verb and family.
CLEAN_JOBS = {
    "validate": ["validate", "isosceles.json"],
    "ugh": ["ugh", "x_half.json", "x_three_quarters.json"],
    "ugh_certificate": [
        "ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json",
    ],
    "glue": ["glue", "gluespec.json"],
    "gen_two_point": ["gen", "two-point", "--c", "1/2"],
    "cluster": ["cluster", "--input", "metric.json"],
    "in_uk": ["in-uk", "isosceles.json", "--k", "0,1,2"],
    "validate_merge": ["validate", "dirty_space.json", "--merge-duplicates"],
    "spectrum": ["spectrum", "isosceles.json", "-o", "{tmp}/out.json"],
    "quotient": ["quotient", "isosceles.json", "--t=1"],
    "hausdorff": ["hausdorff", "isosceles.json", "--a", '["a"]', "--b", '["b"]'],
    "net": ["net", "isosceles.json", "--eps", "1"],
    "amalgam": ["amalgam", "pair.json", "single.json", "--s", "1"],
    "ugh_oracle": ["ugh", "x_half.json", "x_three_quarters.json", "--oracle"],
    "gen_crowd": ["gen", "crowd", "--space", "pair.json", "--base", "a", "--c", "1/2", "--n", "1"],
    "gen_cauchy": ["gen", "cauchy", "--depth", "2"],
    "gen_random": ["gen", "random", "--n", "3", "--k", "0,1", "--seed", "1"],
}


@pytest.mark.parametrize("argv", list(CLEAN_JOBS.values()), ids=list(CLEAN_JOBS))
def test_verbs_import_no_heavy_stdlib_module(argv, tmp_path, bare_modules):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert not (all_modules_loaded_by(argv) - bare_modules) & HEAVY


# The jobs that build a space (``in-uk``, ``cluster`` and ``gen`` through
# ``generators``); the rest only read, check and measure, and skip the builders.
BUILDING_JOBS = {
    "quotient",
    "validate_merge",
    "cluster",
    "in_uk",
    "glue",
    "amalgam",
    "gen_two_point",
    "gen_crowd",
    "gen_cauchy",
    "gen_random",
    "ugh_certificate",
}


@pytest.mark.parametrize("name", list(CLEAN_JOBS))
def test_only_building_jobs_load_the_builders(name, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in CLEAN_JOBS[name]]
    assert ("ultrametric.builders" in modules_loaded_by(argv)) == (name in BUILDING_JOBS)


# Definitions that left ``spaces`` and ``jsonio`` for the modules that only
# their verbs load, and the four names the frozen benchmark replay still
# imports from the old homes.
MOVED = {
    spaces: {
        builders: [
            "space_from_chain", "merged_spectrum", "join_spaces", "subspace", "QuotientSpace",
            "closed_quotient", "merge_duplicate_points",
        ],
        oracle: ["block_matrix"],
    },
    jsonio: {
        amalgam: ["gluespec_from_obj"],
        certificates: ["certificate_to_obj", "certificate_from_obj"],
    },
}
FORWARDED = {
    spaces: {"closed_quotient", "merge_duplicate_points"},
    jsonio: {"gluespec_from_obj", "certificate_to_obj"},
}


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_old_homes_define_no_moved_name_and_forward_only_four(module):
    for home, names in MOVED[module].items():
        for name in names:
            assert name in vars(home) and name not in vars(module), name
    # Every name of the new homes that the old one lacks: only the four resolve.
    for home in MOVED[module]:
        for name in vars(home):
            if name not in vars(module) and not name.startswith("__"):
                forwarded = name in FORWARDED[module]
                assert hasattr(module, name) == forwarded, name
                if forwarded:
                    assert getattr(module, name) is vars(home)[name]
    assert FORWARDED[module] <= {n for names in MOVED[module].values() for n in names}


def test_star_import_binds_every_public_name_to_its_home_object():
    # A name missing from the star import fails the lookup in ``ns``; a name
    # bound to another object than the modules hold is listed.
    script = """
import importlib, json, pkgutil
import ultrametric
from ultrametric import *
ns = dict(globals())
modules = [
    importlib.import_module("ultrametric." + info.name)
    for info in pkgutil.iter_modules(ultrametric.__path__)
    if info.name != "__main__"
]
print(json.dumps([
    [name, m.__name__]
    for name in ultrametric.__all__
    for m in modules
    if getattr(m, name, ns[name]) is not ns[name]
]))
"""
    assert json.loads(run_python(["-c", script])) == []


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ultrametric.no_such_name


def test_dir_lists_every_public_name():
    script = "import json, ultrametric; print(json.dumps(dir(ultrametric)))"
    assert set(ultrametric.__all__) <= set(json.loads(run_python(["-c", script])))
