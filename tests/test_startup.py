"""Start-up cost: a CLI job imports only the modules its verb reaches.

One table, :data:`MODULES`, gives the package modules each clean job of
``bench/growth.py``'s ``JOBS`` loads, and the rules below read it.  One test
checks the table by running each job in a fresh interpreter, since this test
process has long since imported every module of the package.
"""

import ast
import json
import pkgutil
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ultrametric
from ultrametric import (
    amalgam,
    builders,
    certificates,
    cli,
    dendrogram,
    faults,
    generators,
    gromov,
    hyperspace,
    jsonio,
    linkage,
    oracle,
    spaces,
)

import growth
from cli_corpus import GOLDEN, expected_text
from conftest import run_child
from test_bench_imports import SCRIPTS, used_names

SRC = Path(ultrametric.__file__).resolve().parent

MINIMAL = {
    "ultrametric",
    "ultrametric.cli",
    "ultrametric.errors",
    "ultrametric.jsonio",
    "ultrametric.rationals",
    "ultrametric.spaces",
}

# Runs the CLI as ``python -m ultrametric`` does, with ``os._exit`` recording
# its code and raising SystemExit so the child goes on, then prints its exit
# code, the modules it left loaded, those of the package that define
# ``verify_certificate``, how often an ``atexit`` handler registered before
# the job ran, the handlers left registered and the codes given to
# ``os._exit``, as the last line of stdout.
RUN_AND_LIST = """
import atexit, json, os, runpy, sys
sys.argv = ["ultrametric", *sys.argv[1:]]
ran, exits = [], []
atexit.register(ran.append, True)
def hard_exit(code):
    exits.append(code)
    sys.exit(code)
os._exit = hard_exit
try:
    runpy.run_module("ultrametric", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
certifying = [
    name for name, module in sys.modules.items()
    if name.startswith("ultrametric") and "verify_certificate" in vars(module)
]
print(json.dumps([code, sorted(sys.modules), sorted(certifying), len(ran), atexit._ncallbacks(), exits]))
"""

# Stdlib modules no clean job needs: ``dataclasses`` alone imports ``inspect``,
# ``ast``, ``dis`` and ``tokenize``, and ``argparse`` imports ``gettext``, which
# imports ``locale`` at its first message lookup.  ``__future__`` is needed by
# no module: the package's Python 3.10 floor evaluates every annotation as
# written, so none postpones them.
HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "locale", "__future__"}


def run_python(args, cwd=GOLDEN):
    """Stdout and stderr of a fresh interpreter that exits 0."""
    result = run_child([sys.executable, *args], cwd=cwd, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout, result.stderr


def run_listed(argv, cwd=GOLDEN):
    """The job's exit code, modules, certifying modules, handler runs, handlers
    left and ``os._exit`` codes, and what it wrote to stdout and stderr."""
    out, err = run_python(["-c", RUN_AND_LIST, *argv], cwd)
    *printed, listed = out.splitlines(keepends=True)
    return json.loads(listed), "".join(printed), err


def package(modules) -> set[str]:
    return {m for m in modules if m.startswith("ultrametric")}


def run_job(argv):
    (code, modules, certifying, *_), _, _ = run_listed(argv)
    assert code == 0
    return set(modules), certifying



def loads(*names: str) -> set[str]:
    return MINIMAL | {f"ultrametric.{name}" for name in names}


# The package modules each clean job of ``growth.JOBS`` loads: MINIMAL, its
# verb's handler module (named first in its ``cli.VERBS`` entry) and what that
# handler runs.
MODULES = {
    "validate": loads(),
    "spectrum": loads(),
    "validate_merge": loads(),
    "quotient": loads("builders"),
    "hausdorff": loads("hyperspace"),
    "net": loads("hyperspace"),
    "glue": loads("amalgam", "builders"),
    "amalgam": loads("amalgam", "builders"),
    "ugh": loads("dendrogram", "gromov"),
    "ugh_oracle": loads("dendrogram", "gromov", "hyperspace", "oracle"),
    "ugh_certificate": loads("builders", "certificates", "dendrogram", "gromov"),
    "gen_two_point": loads("builders", "generators"),
    "gen_crowd": loads("builders", "generators"),
    "gen_cauchy": loads("builders", "generators"),
    "gen_random": loads("builders", "generators"),
    "cluster": loads("builders", "linkage"),
    "cluster_merge": loads("builders", "linkage"),
    "in_uk": loads("generators"),
}


@pytest.fixture(scope="module")
def loaded():
    """Every module each clean job leaves loaded, one fresh run per job, each
    ending in exit 0."""
    return {name: run_job(argv)[0] for name, argv in growth.JOBS.items()}


def handler_module(name: str) -> str:
    """The module of the clean job's verb handler, as ``cli.VERBS`` names it."""
    return cli.VERBS[growth.JOBS[name][0]][0]


def test_the_table_covers_every_clean_job_and_verb():
    assert set(MODULES) == set(growth.JOBS)
    leaves = {
        (verb, family)
        for verb, (_, _, spec) in cli.VERBS.items()
        for family in (spec if isinstance(spec, dict) else [None])
    }
    assert len(leaves) == 14
    assert {(argv[0], argv[1] if argv[0] == "gen" else None) for argv in growth.JOBS.values()} == leaves
    # The handlers left cli.py, no copy of them stayed, and one table names them.
    assert not hasattr(cli, "_run") and not hasattr(cli, "HANDLERS")


@pytest.mark.parametrize("name", list(growth.JOBS))
def test_each_clean_job_loads_exactly_its_modules(name, loaded):
    assert package(loaded[name]) == MODULES[name]


@pytest.mark.parametrize("name", list(growth.JOBS))
def test_each_job_loads_its_verbs_handler_module(name):
    module = handler_module(name)
    assert f"ultrametric.{module}" in MODULES[name]
    handler = "cli_" + growth.JOBS[name][0].replace("-", "_")
    assert callable(vars(import_module(f"ultrametric.{module}"))[handler])


@pytest.mark.parametrize(
    "name, extra",
    [
        ("validate", set()),
        ("spectrum", set()),
        # A quotient is built, from the source's chain.
        ("quotient", {"ultrametric.builders"}),
    ],
    ids=["validate", "spectrum", "quotient"],
)
def test_space_verbs_load_the_minimal_set(name, extra):
    assert MODULES[name] == MINIMAL | extra


def test_ugh_without_oracle_skips_oracle_amalgam_and_generators():
    assert "ultrametric.gromov" in MODULES["ugh"]
    skipped = {"ultrametric.oracle", "ultrametric.amalgam", "ultrametric.generators"}
    assert not MODULES["ugh"] & skipped


def test_ugh_without_certificate_or_oracle_skips_hyperspace():
    assert "ultrametric.hyperspace" not in MODULES["ugh"]


@pytest.mark.parametrize(
    "name, want", [("ugh", []), ("ugh_certificate", ["ultrametric.certificates"])], ids=["ugh", "ugh_certificate"]
)
def test_only_ugh_certificate_loads_the_certificate_code(name, want):
    assert run_job(growth.JOBS[name])[1] == want


@pytest.mark.parametrize("name", ["cluster", "in_uk", "gen_crowd", "gen_random"])
def test_generators_skip_dendrogram(name):
    assert f"ultrametric.{handler_module(name)}" in MODULES[name]
    assert "ultrametric.dendrogram" not in MODULES[name]


def test_cluster_loads_single_linkage_but_not_the_family_generators():
    assert "ultrametric.linkage" in MODULES["cluster"]
    assert "ultrametric.generators" not in MODULES["cluster"]
    linking = {name for name, modules in MODULES.items() if "ultrametric.linkage" in modules}
    assert linking == {"cluster", "cluster_merge"}


def test_glue_skips_gromov_and_generators():
    assert "ultrametric.amalgam" in MODULES["glue"]
    assert not MODULES["glue"] & {"ultrametric.gromov", "ultrametric.generators"}


@pytest.mark.parametrize("name", list(growth.JOBS))
def test_verbs_import_no_heavy_stdlib_module(name, loaded, bare_modules):
    assert not (loaded[name] - bare_modules) & HEAVY


@pytest.fixture(scope="module")
def bare_modules():
    """Modules a bare interpreter loads, which are not charged to a job."""
    return set(run_python(["-c", "import sys; print(*sys.modules)"])[0].split())


@pytest.mark.parametrize(
    "argv, want_code",
    [(["validate", "isosceles.json"], 0), (["validate", "bad_triangle.json"], 1), (["frobnicate"], 2)],
    ids=["exit_0", "exit_1", "exit_2"],
)
def test_a_job_runs_its_exit_handlers_once_then_ends_in_os_exit(argv, want_code):
    # The handler ran once and the registry is empty, so the interpreter's
    # own shutdown, which os._exit skips, would not run it again.
    (code, _, _, ran, left, exits), _, _ = run_listed(argv)
    assert code == want_code
    assert (ran, left, exits) == (1, 0, [want_code])


# The jobs that build a space (``quotient``, ``glue``, ``amalgam``, ``gen``,
# ``cluster`` and ``ugh --certificate``); the rest only read, check and
# measure, and skip the builders.  ``in-uk`` and a merge of duplicates
# build nothing.
BUILDING_JOBS = {
    "quotient",
    "cluster",
    "cluster_merge",
    "glue",
    "amalgam",
    "gen_two_point",
    "gen_crowd",
    "gen_cauchy",
    "gen_random",
    "ugh_certificate",
}


@pytest.mark.parametrize("name", list(growth.JOBS))
def test_only_building_jobs_load_the_builders(name):
    assert ("ultrametric.builders" in MODULES[name]) == (name in BUILDING_JOBS)


def test_in_uk_loads_no_builders():
    assert MODULES["in_uk"] == loads("generators")


def test_no_clean_job_loads_the_fault_module():
    assert not any("ultrametric.faults" in modules for modules in MODULES.values())


ISOSCELES_INTS = {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}
BAD_TRIANGLE_INTS = {"points": ["a", "b", "c"], "dist": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}


@pytest.mark.parametrize(
    "argv, files, code, expected",
    [
        (["validate", "bad_triangle.json"], {}, 1, "validate_triangle"),
        (["validate", "ints.json"], {"ints.json": ISOSCELES_INTS}, 0, "validate_ok"),
        (["validate", "ints.json"], {"ints.json": BAD_TRIANGLE_INTS}, 1, "validate_triangle"),
        (["validate", "huge_exponent.json"], {}, 1, "validate_huge_exponent"),
    ],
    ids=["rejected", "json_integers", "json_integers_rejected", "unparsed_entry"],
)
def test_rejected_and_integer_matrices_load_the_fault_module(argv, files, code, expected, tmp_path):
    # A golden input is read from its directory; a written one from tmp_path.
    cwd = tmp_path if files else GOLDEN
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    (got_code, modules, *_), out, err = run_listed(argv, cwd)
    assert got_code == code
    assert "ultrametric.faults" in modules
    assert "ultrametric.builders" not in modules
    # The same bytes as the corpus case on the same matrix.
    assert out == expected_text(expected, "out")
    assert err == expected_text(expected, "err")


# Definitions that left a module, by old home and new, and the names the
# frozen benchmark replay still imports from the old homes, which they
# forward.  ``cli._run`` is gone: each verb's handler lives in the module its
# ``cli.VERBS`` entry names.  The writers and the subset reader went back to
# ``jsonio``, which holds every record format but two readers.
MOVED = {
    spaces: {
        builders: [
            "space_from_chain", "merged_spectrum", "join_spaces", "subspace", "QuotientSpace",
            "closed_quotient",
        ],
        faults: ["_canonical_spellings", "_STR_SPELLS"],
        oracle: ["block_matrix"],
    },
    jsonio: {
        amalgam: ["gluespec_from_obj"],
        certificates: ["certificate_from_obj"],
    },
    builders: {
        spaces: ["merge_duplicate_points"],
        dendrogram: ["from_dendrogram", "_tree_chain"],
        jsonio: ["quotient_to_obj"],
    },
    gromov: {
        jsonio: ["ugh_result_to_obj"],
    },
    hyperspace: {
        jsonio: ["subset_from_obj", "load_subset"],
    },
    certificates: {
        jsonio: ["certificate_to_obj"],
    },
    generators: {
        linkage: ["single_linkage", "_check_triangles", "SCALE_BITS"],
    },
    cli: {
        jsonio: ["read_text", "load_space", "load_subset", "emit"],
    },
}
FORWARDED = {
    spaces: {"closed_quotient"},
    jsonio: set(),
    builders: set(),
    gromov: set(),
    hyperspace: set(),
    certificates: set(),
    generators: {"single_linkage"},
    cli: set(),
}


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_old_homes_define_no_moved_name_and_forward_only_four(module):
    for home, names in MOVED[module].items():
        for name in names:
            assert name in vars(home) and name not in vars(module), name
    # Every name of the new homes that the old one lacks: only the forwarded resolve.
    for home in MOVED[module]:
        for name in vars(home):
            if name not in vars(module) and not name.startswith("__"):
                forwarded = name in FORWARDED[module]
                assert hasattr(module, name) == forwarded, name
                if forwarded:
                    assert getattr(module, name) is vars(home)[name]
    assert FORWARDED[module] <= {n for names in MOVED[module].values() for n in names}


def imported_modules(path: Path) -> set[str]:
    """The package modules that the relative imports of the module at
    ``path`` name, at top level or inside a function; ``from . import x``
    names ``x`` when it is a module and the package's ``__init__`` if not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module)
            else:
                names |= {
                    alias.name if (SRC / f"{alias.name}.py").exists() else "__init__"
                    for alias in node.names
                }
    return names


def test_every_top_level_name_has_one_home():
    # A def, class or assigned name left in two modules by a move would let
    # the copies drift apart; only the forwards' __getattr__ repeats.
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_bytes()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            for name in names:
                homes.setdefault(name, set()).add(path.stem)
    repeated = {name: homes[name] for name in homes if len(homes[name]) > 1}
    assert set(repeated) == {"__getattr__"}, repeated


def test_no_two_modules_import_each_other():
    # The ugh verb's handler, in gromov, writes a certificate when asked, and
    # takes nothing back: a certificate is built from the result it is given.
    imports = {path.stem: imported_modules(path) for path in SRC.glob("*.py")}
    mutual = {
        tuple(sorted((a, b))) for a, names in imports.items() for b in names if a in imports[b]
    }
    assert mutual == set()


def test_one_helper_writes_every_forward():
    # Each module's PEP 562 __getattr__ is a table given to ultrametric._forward.
    defining = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    assert [name for name, _ in defining] == ["__init__.py"], defining


def test_modules_forward_exactly_the_names_the_benchmark_scripts_read():
    # A name a script takes from a module that no longer defines it must be
    # forwarded, and nothing else is.
    modules = [
        import_module(f"ultrametric.{info.name}")
        for info in pkgutil.iter_modules(ultrametric.__path__)
        if info.name != "__main__"
    ]
    names = {name for module in modules for name in vars(module) if not name.startswith("__")}
    read = {used for path in SCRIPTS for used in used_names(path)}
    forwarding = [module for module in modules if "__getattr__" in vars(module)]
    assert {module.__name__ for module in forwarding} == {
        f"ultrametric.{name}" for name in ("generators", "gromov", "spaces")
    }
    for module in forwarding:
        own = set(vars(module))
        forwarded = {name for name in names - own if hasattr(module, name)}
        wanted = {name for home, name in read if home == module.__name__} - own
        assert forwarded == wanted, module.__name__


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
    assert json.loads(run_python(["-c", script])[0]) == []


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ultrametric.no_such_name


def test_dir_lists_every_public_name():
    script = "import json, ultrametric; print(json.dumps(dir(ultrametric)))"
    assert set(ultrametric.__all__) <= set(json.loads(run_python(["-c", script])[0]))
