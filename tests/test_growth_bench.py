"""The growth bench runs at tiny sizes and writes, and has committed, files of
its schema.  No timing is checked: runners are shared."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "growth.py"
sys.path.insert(0, str(SCRIPT.parent))

import growth  # noqa: E402


def test_a_tiny_run_writes_the_schema(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--sizes", "8,20", "--repeat", "1", "--rounds", "2", "-o", str(out)]
    argv += ["--src", f"a={ROOT / 'src'}", "--src", f"b={ROOT / 'src'}"]
    subprocess.run([sys.executable, str(SCRIPT), *argv], check=True, capture_output=True)
    doc = json.loads(out.read_text(encoding="utf-8"))
    growth.check_schema(doc)
    assert list(doc["columns"]) == ["a", "b"] and doc["sizes"] == [8, 20]
    assert doc["columns"]["a"]["digest"] == doc["columns"]["b"]["digest"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_have_the_schema(path):
    growth.check_schema(json.loads(path.read_text(encoding="utf-8")))


def test_check_schema_refuses_a_missing_layer():
    doc = growth.bench({"only": ROOT / "src"}, [6], 1, 1)
    growth.check_schema(doc)
    del doc["columns"]["only"]["times"]["chain_glue"]
    with pytest.raises(AssertionError):
        growth.check_schema(doc)
