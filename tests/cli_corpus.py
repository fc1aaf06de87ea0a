"""Fixed CLI corpus: every verb, plus exit-1 and exit-2 paths.

Each case runs from tests/golden/ and is compared byte-for-byte against
expected/<name>.out and expected/<name>.err (on Python 3.13, one case's
stderr is compared against another file; see :func:`expected_file`).
Regenerate the expected files after an intentional output change with::

    python tests/cli_corpus.py --write

and review the diff before committing.  ``{tmp}`` in an argument is replaced
with a scratch directory; files written there are compared against
expected/<name>.<filename>.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ultrametric.cli import main
from ultrametric.rationals import digit_bound

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

CASES = [
    ("validate_ok", ["validate", "isosceles.json"], 0),
    ("validate_triangle", ["validate", "bad_triangle.json"], 1),
    ("validate_missing", ["validate", "missing.json"], 1),
    ("validate_not_utf8", ["validate", "not_utf8.json"], 1),
    ("validate_merge", ["validate", "dirty_space.json", "--merge-duplicates"], 0),
    ("spectrum", ["spectrum", "isosceles.json"], 0),
    ("quotient", ["quotient", "isosceles.json", "--t", "1"], 0),
    ("quotient_bad_scale", ["quotient", "isosceles.json", "--t", "-1"], 1),
    ("hausdorff", ["hausdorff", "isosceles.json", "--a", '["a", "c"]', "--b", '["b"]'], 0),
    ("net", ["net", "isosceles.json", "--eps", "1"], 0),
    ("glue", ["glue", "gluespec.json"], 0),
    ("amalgam", ["amalgam", "pair.json", "single.json", "--s", "1"], 0),
    ("amalgam_small_scale", ["amalgam", "pair.json", "single.json", "--s", "1/2"], 1),
    ("ugh", ["ugh", "x_half.json", "x_three_quarters.json"], 0),
    ("ugh_same", ["ugh", "isosceles.json", "isosceles.json"], 0),
    ("ugh_oracle", ["ugh", "x_half.json", "x_three_quarters.json", "--oracle"], 0),
    ("ugh_oracle_too_large", ["ugh", "cauchy4.json", "pair.json", "--oracle"], 1),
    (
        "ugh_cert",
        ["ugh", "x_half.json", "x_three_quarters.json", "--certificate", "{tmp}/cert.json"],
        0,
    ),
    ("gen_two_point", ["gen", "two-point", "--c", "1/2"], 0),
    ("gen_crowd", ["gen", "crowd", "--space", "pair.json", "--base", "a", "--c", "1/2", "--n", "1"], 0),
    ("gen_cauchy", ["gen", "cauchy", "--depth", "2"], 0),
    ("gen_random", ["gen", "random", "--n", "5", "--k", "0,1/4,1/2,1", "--seed", "42"], 0),
    ("cluster", ["cluster", "--input", "metric.json"], 0),
    ("cluster_merge", ["cluster", "--input", "dirty_metric.json", "--merge-duplicates"], 0),
    ("cluster_dirty_rejected", ["cluster", "--input", "dirty_metric.json"], 1),
    ("cluster_repeated_label", ["cluster", "--input", "repeated_label.json"], 1),
    ("in_uk_true", ["in-uk", "isosceles.json", "--k", "0,1,2"], 0),
    ("in_uk_false", ["in-uk", "x_half.json", "--k", "0,1/4"], 0),
    ("validate_huge_exponent", ["validate", "huge_exponent.json"], 1),
    ("gen_cauchy_too_deep", ["gen", "cauchy", "--depth", "14285"], 1),
    ("gen_cauchy_too_large", ["gen", "cauchy", "--depth", "1448"], 1),
    ("gen_random_too_large", ["gen", "random", "--n", "1449", "--k", "0,1", "--seed", "1"], 1),
    (
        "gen_crowd_too_large",
        ["gen", "crowd", "--space", "pair.json", "--base", "a", "--c", "1/2", "--n", "1447"],
        1,
    ),
    ("gen_unwritable_output", ["gen", "two-point", "--c", "1/2", "-o", "no-such-dir/out.json"], 1),
    ("usage_unknown_verb", ["frobnicate"], 2),
    ("usage_missing_flag", ["quotient", "isosceles.json"], 2),
]

# The stderr of these cases names the digit bound, which is 4300 unless the
# interpreter's integer string limit is lower, so under such a limit it is
# not compared.
SKIPPED = {"validate_huge_exponent"} if digit_bound() != 4300 else set()


# From Python 3.13 on, argparse wraps the usage line of these cases otherwise;
# their stderr there is compared against expected/<name>.py313.err.
USAGE_WRAPPED_313 = {"usage_unknown_verb"}


def expected_file(name: str, suffix: str) -> Path:
    """The file a case's stdout (``"out"``), stderr (``"err"``) or written
    file (its name) is compared against on this interpreter."""
    if suffix == "err" and name in USAGE_WRAPPED_313 and sys.version_info >= (3, 13):
        suffix = "py313.err"
    return EXPECTED / f"{name}.{suffix}"


def expected_text(name: str, suffix: str) -> str:
    """The bytes a case's output must match; the stderr of a case in
    :data:`SKIPPED` skips the test that asks for it."""
    if suffix == "err" and name in SKIPPED:
        import pytest

        pytest.skip(f"{name}: the expected stderr needs the 4300-digit bound")
    return expected_file(name, suffix).read_text(encoding="utf-8")


def run_case(argv: list[str], tmp_dir: Path) -> tuple[int, str, str, dict[str, str]]:
    """Run one corpus command in-process from the golden directory.

    Returns (exit code, stdout, stderr, {written file name: content}).
    COLUMNS is pinned so argparse usage text wraps identically everywhere.
    """
    argv = [arg.replace("{tmp}", str(tmp_dir)) for arg in argv]
    before = set(os.listdir(tmp_dir))
    cwd = os.getcwd()
    saved_columns = os.environ.get("COLUMNS")
    out, err = io.StringIO(), io.StringIO()
    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        if saved_columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved_columns
    written = {}
    for name in sorted(set(os.listdir(tmp_dir)) - before):
        written[name] = (tmp_dir / name).read_text(encoding="utf-8")
    return code, out.getvalue(), err.getvalue(), written


def write_expected() -> None:
    import tempfile

    EXPECTED.mkdir(exist_ok=True)
    for name, argv, want_code in CASES:
        if name in SKIPPED:
            print(f"skipped {name}: the integer string limit sets a digit bound below 4300")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, written = run_case(argv, Path(tmp))
        if code != want_code:
            raise SystemExit(f"{name}: expected exit {want_code}, got {code}")
        expected_file(name, "out").write_text(out, encoding="utf-8")
        expected_file(name, "err").write_text(err, encoding="utf-8")
        for file_name, content in written.items():
            expected_file(name, file_name).write_text(content, encoding="utf-8")
        print(f"wrote {name} (exit {code})")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_expected()
    else:
        print(__doc__)
