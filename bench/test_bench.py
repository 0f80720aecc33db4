"""Self-tests of the benchmark harness, at small sizes.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "screen_rows": 24,
    "embed_side": 3,
    "embed_per_count": 1,
    "complex_cells": (3, 3, 3),
    "candidate_records": 40,
    "probe_rows": 16,
    "probe_map_rows": 12,
    "probe_records": 30,
    "probe_per_count": 2,
}


@pytest.fixture()
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", {**workloads.SIZES, **SMALL})
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _digests(name, seed, where):
    os.makedirs(where)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        w = workloads.build(name, seed)
    finally:
        os.chdir(cwd)
    return {path: d["sha256"] for path, d in w.inputs.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(small, name):
    a = _digests(name, 5, "a")
    assert a == _digests(name, 5, "b")
    c = _digests(name, 6, "c")
    assert a.keys() == c.keys()
    assert a != c


def _pass(workload, tracer=None):
    import spescreen.cli as cli
    return run.run_pass(cli, workload, tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(small, name):
    workload = workloads.build(name, 3)
    plain = _pass(workload)
    assert all(rec["error"] is None for rec in plain), plain
    tracer = Tracer()
    with tracer:
        traced = _pass(workload, tracer)
    assert all(rec["error"] is None for rec in traced), traced
    assert [r["digests"] for r in traced] == [r["digests"] for r in plain]

    # layer self times plus the cli stage self times cover the stage spans
    m = run.layer_metrics(tracer)
    covered = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert covered == pytest.approx(m["trace.workload_s"], rel=1e-9)
    assert m["chem.parses_per_row"] == pytest.approx(2.0, abs=0.1)
    import spescreen.cli as cli
    assert not hasattr(cli.parse_smiles, "__wrapped__")


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _corrupt_csv_cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return lines


def test_checker_rejects_corrupted_artifacts(small):
    workload = workloads.build("candidates", 2)
    records = _pass(workload)
    assert all(rec["error"] is None for rec in records), records
    calls = {call.out: call for call in workload.calls}

    def rejects(out):
        with pytest.raises(checks.CheckError):
            calls[out].check(out)

    _edit_lines("out/probe_map/map.csv",
                lambda ls: _corrupt_csv_cell(ls, 1, 0, "nan"))
    rejects("out/probe_map")

    path = "out/complex_modes/modes.json"
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["modes"][3] = [1.001 * x for x in data["modes"][3]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    rejects("out/complex_modes")

    _edit_lines("out/probe_similarity/ranking.csv",
                lambda ls: ls[:1] + ls[:0:-1])
    rejects("out/probe_similarity")

    _edit_lines("out/classify/labels.csv",
                lambda ls: _corrupt_csv_cell(ls, 1, 2, "1.000000"))
    rejects("out/classify")

    os.remove("out/report/fig4_grid.csv")
    rejects("out/report")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
