"""The CLI contract, checked on seeded edits of the golden inputs.

Each case copies the golden inputs to a scratch directory, makes one to three
JSON-level edits to one input of a command of the golden corpus
(``cli_corpus.CASES``) and runs the command in process through
:func:`ultrametric.cli.main`.  An edit deletes, duplicates or truncates an
entry, or replaces it with ``"1/0"``, ``"2/4"``, ``1.5``, ``null``, a lone
surrogate or a 5,000-digit number.  Whatever the edit, no exception escapes,
the exit code is 0, 1, 2 or 3, an exit 0 writes nothing to stderr and an
exit 1 nothing to stdout and one JSON line to stderr naming an error class of
:mod:`ultrametric.errors`, and a space that ``validate`` writes validates
back to the same bytes.  Edits that keep an input valid (every distance
respelled with its numerator and denominator doubled, the points relabelled,
the points permuted and, under ``--merge-duplicates``, a copy of a point
appended under a fresh label) must give the bytes the golden corpus predicts.
Seeded damage to the corpus argument lists (a token dropped, a flag
duplicated, two neighbours swapped, ``--`` or ``-h`` inserted, a flag given a
value starting with ``-``) keeps the same contract, and an exit 2 writes
nothing to stdout, and so does seeded damage to the bytes of every golden
input (a byte dropped, duplicated or with one bit flipped; ``\x00``, ``\xff``
or a UTF-8 byte order mark inserted; a multi-byte character cut short,
inside the text or at its end).  A finding here becomes a named case of the
golden corpus.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from fractions import Fraction

from ultrametric import errors
from ultrametric.cli import main

from cli_corpus import CASES, GOLDEN, expected_text

BYTES = {path.name: path.read_bytes() for path in sorted(GOLDEN.glob("*.json"))}
INPUTS = {}
for name, data in BYTES.items():
    try:
        INPUTS[name] = json.loads(data)
    except ValueError:  # not_utf8.json is no JSON text
        pass


def reading(files) -> list:
    """Corpus commands that read one of ``files``, with those they read.  The
    crowd past the cell budget is left out: an edit that shrinks its base
    space can bring it under the budget, and building 1448 points is not a
    contract check."""
    return [
        (name, argv, [arg for arg in dict.fromkeys(argv) if arg in files])
        for name, argv, _ in CASES
        if name != "gen_crowd_too_large" and any(arg in files for arg in argv)
    ]


EDITED = reading(INPUTS)

ERRORS = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.UltrametricError)
}

DIGITS = "\x00digits"  # stands for a 5,000-digit number, which json.dumps refuses to write
REPLACEMENTS = ["1/0", "2/4", 1.5, None, "\ud800", DIGITS]


def to_text(obj) -> str:
    return json.dumps(obj).replace(json.dumps(DIGITS), "7" * 5000)


def entries(obj, path=()):
    """The paths to every entry of every list and object below ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from entries(value, (*path, key))


def truncated(value):
    if isinstance(value, (str, list)):
        return value[: len(value) // 2]
    if isinstance(value, dict):
        return dict(list(value.items())[: len(value) // 2])
    return None


def edit(rng: random.Random, obj) -> str:
    """Make one seeded edit in place; returns what it did."""
    paths = list(entries(obj))
    if not paths:
        return "nothing to edit"
    *path, key = rng.choice(paths)
    parent = obj
    for step in path:
        parent = parent[step]
    kind = rng.choice(["delete", "duplicate", "truncate", "replace"])
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, deepcopy(parent[key]))
    elif kind == "duplicate":  # an object's value copied over another key's
        parent[rng.choice(list(parent))] = deepcopy(parent[key])
    elif kind == "truncate":
        parent[key] = truncated(parent[key])
    else:
        parent[key] = rng.choice(REPLACEMENTS)
    return f"{kind} {[*path, key]}"


def run(argv: list[str], directory) -> tuple[int, str, str]:
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([arg.replace("{tmp}", str(directory)) for arg in argv])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str], directory, why: str) -> tuple[int, str, str]:
    code, out, err = run(argv, directory)
    assert code in (0, 1, 2, 3), why
    if code == 0:
        assert err == "", why
    if code == 1:
        assert out == "", why
        lines = err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), why
        assert json.loads(lines[0])["error"] in ERRORS, why
    if code == 0 and argv[0] == "validate" and not out.startswith("usage: "):  # not -h's help
        (directory / "revalidate.json").write_text(out, encoding="utf-8")
        assert run(["validate", "revalidate.json"], directory) == (0, out, ""), why
    return code, out, err


def scratch_copy(tmp_path):
    for path in GOLDEN.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    return tmp_path


def test_edited_inputs_keep_the_cli_contract(tmp_path):
    directory = scratch_copy(tmp_path)
    rng = random.Random(37)
    codes = dict.fromkeys(range(4), 0)
    for round_ in range(2000 // len(EDITED) + 1):
        for name, argv, inputs in EDITED:
            target = rng.choice(inputs)
            obj = deepcopy(INPUTS[target])
            done = [edit(rng, obj) for _ in range(rng.randint(1, 3))]
            text = to_text(obj)
            (directory / target).write_text(text, encoding="utf-8")
            why = f"{name} round {round_}: {target} after {done}: {text[:300]}"
            codes[check_contract(argv, directory, why)[0]] += 1
            (directory / target).write_bytes((GOLDEN / target).read_bytes())
    assert sum(codes.values()) >= 2000
    # The edits reach both the accepting and the refusing paths; the one
    # corpus command missing a flag exits 2 whatever its input.
    assert codes[0] > 20 and codes[1] > 1500, codes


def respelled(obj):
    """Every distance ``p/q`` written as ``2p/2q``, labels left alone."""
    if isinstance(obj, dict):
        return {k: respelled(v) if k != "dist" else double(v) for k, v in obj.items()}
    return obj


def double(matrix):
    def spell(entry):
        value = Fraction(entry)
        return f"{2 * value.numerator}/{2 * value.denominator}"

    return [list(map(spell, row)) for row in matrix]


def relabelled(space, names):
    return {**space, "points": [names[p] for p in space["points"]]}


def permuted(space, order):
    dist = space["dist"]
    return {
        **space,
        "points": [space["points"][i] for i in order],
        "dist": [[dist[i][j] for j in order] for i in order],
    }


def duplicated(space, p, label):
    """``space`` with a copy of its point ``p`` appended under ``label``: the
    copy's row and column are the point's, with ``"0"`` between the two."""
    dist = space["dist"]
    return {
        **space,
        "points": [*space["points"], label],
        "dist": [*([*row, row[p]] for row in dist), [*dist[p], "0"]],
    }


# Verbs whose output does not name or order the points of their inputs.
POINT_FREE = {"spectrum", "ugh"}

# A merge of duplicates on an input that has none, compared against the
# bytes of the corpus case without the flag.
MERGED_CLEAN = ("validate_ok", ["validate", "isosceles.json", "--merge-duplicates"], ["isosceles.json"])


def test_valid_edits_give_the_predicted_bytes(tmp_path):
    directory = scratch_copy(tmp_path)
    rng = random.Random(3701)
    checked = 0
    for name, argv, inputs in [*EDITED, MERGED_CLEAN]:
        want = expected_text(name, "out")
        if not want:
            continue  # refused by the golden corpus
        for target in inputs:
            obj = INPUTS[target]
            variants = [(respelled(obj), None)]
            if argv[0] in POINT_FREE or argv == ["validate", target]:
                points = obj["points"]
                for _ in range(3):
                    names = dict(zip(points, (f"{rng.randrange(10**6)}:{p}" for p in points)))
                    order = rng.sample(range(len(points)), len(points))
                    variants.append((relabelled(obj, names), lambda s, n=names: relabelled(s, n)))
                    variants.append((permuted(obj, order), lambda s, o=order: permuted(s, o)))
            if "--merge-duplicates" in argv:
                # The merge keeps the first label of each point, so the copy goes.
                points = obj["points"]
                for _ in range(3):
                    label = f"{rng.randrange(10**6)}:copy"
                    variants.append((duplicated(obj, rng.randrange(len(points)), label), None))
            for variant, transform in variants:
                (directory / target).write_text(to_text(variant), encoding="utf-8")
                got = check_contract(argv, directory, f"{name}: {variant}")
                predicted = want
                if argv[0] == "validate" and transform:
                    # validate writes the points in input order, under their labels.
                    predicted = json.dumps(transform(json.loads(want))) + "\n"
                assert got == (0, predicted, ""), f"{name}: {variant}"
                checked += 1
            (directory / target).write_bytes((GOLDEN / target).read_bytes())
    assert checked > 50, checked


FLAG_VALUES = ["-1", "-1/2", "-", "-x", "--"]


def damaged(rng: random.Random, argv: list[str]) -> list[str]:
    """``argv`` after one seeded edit of its tokens."""
    argv = list(argv)
    flags = [i for i, token in enumerate(argv) if token.startswith("-")]
    valued = [i for i in flags if i + 1 < len(argv) and not argv[i + 1].startswith("-")]
    kinds = ["drop"] * bool(argv) + ["insert"] + ["swap"] * (len(argv) > 1)
    kinds += ["duplicate"] * bool(flags) + ["value"] * bool(valued)
    kind = rng.choice(kinds)
    if kind == "drop":
        del argv[rng.randrange(len(argv))]
    elif kind == "insert":
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--", "-h"]))
    elif kind == "swap":
        i = rng.randrange(len(argv) - 1)
        argv[i], argv[i + 1] = argv[i + 1], argv[i]
    elif kind == "duplicate":  # the flag, with the token after it, again at the end
        i = rng.choice(flags)
        argv += argv[i : i + 2]
    else:
        argv[rng.choice(valued) + 1] = rng.choice(FLAG_VALUES)
    return argv


def test_damaged_arguments_keep_the_cli_contract(tmp_path, monkeypatch):
    directory = scratch_copy(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO())  # read by a file named -
    rng = random.Random(4021)
    codes = dict.fromkeys(range(4), 0)
    for round_ in range(8):
        for name, argv, _ in CASES:
            edited = argv
            for _ in range(rng.randint(1, 2)):
                edited = damaged(rng, edited)
            why = f"{name} round {round_}: {edited}"
            code, out, _ = check_contract(edited, directory, why)
            if code == 2:
                assert out == "", why
            if code == 0:  # an output may have been written over an input
                scratch_copy(directory)
            codes[code] += 1
    assert sum(codes.values()) >= 250
    # The damage reaches the parser's refusals, the handlers' and clean runs.
    assert min(codes[0], codes[1], codes[2]) > 20, codes


BOM = "\ufeff".encode()
WIDE = [char.encode() for char in ("\u00e9", "\u20ac", "\U0001d11e")]  # 2, 3 and 4 bytes


def damaged_bytes(rng: random.Random, data: bytes) -> tuple[bytes, str]:
    """``data`` after one seeded byte edit, and what the edit did."""
    i = rng.randrange(len(data))
    kind = rng.choice(["drop", "duplicate", "flip", "insert", "cut"])
    if kind == "drop":
        return data[:i] + data[i + 1 :], f"drop byte {i}"
    if kind == "duplicate":
        return data[: i + 1] + data[i:], f"duplicate byte {i}"
    if kind == "flip":
        bit = 1 << rng.randrange(8)
        return data[:i] + bytes([data[i] ^ bit]) + data[i + 1 :], f"flip bit {bit:#x} of byte {i}"
    if kind == "insert":
        extra, i = rng.choice([b"\x00", b"\xff", BOM]), rng.choice([0, i])
        return data[:i] + extra + data[i:], f"insert {extra!r} at {i}"
    # The first bytes of a multi-byte character, then the rest of the text or its end.
    char = rng.choice(WIDE)
    head, rest = char[: rng.randrange(1, len(char))], rng.choice([data[i:], b""])
    return data[:i] + head + rest, f"cut {char!r} to {head!r} at {i}, {len(rest)} bytes after"


def test_damaged_bytes_keep_the_cli_contract(tmp_path):
    directory = scratch_copy(tmp_path)
    rng = random.Random(3901)
    commands = reading(BYTES)
    codes = dict.fromkeys(range(4), 0)
    for round_ in range(80):
        for name, argv, inputs in commands:
            target = rng.choice(inputs)
            data, done = damaged_bytes(rng, BYTES[target])
            (directory / target).write_bytes(data)
            why = f"{name} round {round_}: {target} after {done}: {data[:300]!r}"
            codes[check_contract(argv, directory, why)[0]] += 1
            (directory / target).write_bytes(BYTES[target])
    assert sum(codes.values()) >= 2000
    # Most damage is refused; a flipped or repeated digit can keep an input
    # valid, and the one corpus command missing a flag exits 2 whatever its input.
    assert codes[0] > 50 and codes[1] > 1500, codes
