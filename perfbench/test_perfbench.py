"""Self-tests of the benchmark: names, metric sets, seeds, repeatable counts.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
The workload tests drive ``run.py`` at ``--scale tiny`` in subprocesses.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import measure
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT):
    """Run ``run.py`` at the tiny scale; returns the process and the parsed
    result line (``None`` when the last line is not JSON)."""
    process = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--scale", "tiny", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return process, result


def notes(process) -> list:
    return [line[2:] for line in process.stdout.splitlines() if line.startswith("# ")]


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_the_pattern_and_the_declaration():
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tail_reports_rank_with_ten_beyond():
    assert measure.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)
    for count in (11, 15, 40):
        values = [float(i) for i in range(1, count + 1)]
        value, percentile, seen = measure.tail(values)
        assert (value, percentile, seen) == (count - 10, 100.0 * (count - 10) / count, count)
        assert sum(1 for v in values if v > value) == 10


def test_self_time_subtracts_children_and_covered_time():
    root = layers.Span(1, None, "t", "request", None, 0.0)
    root.end = 10.0
    child = layers.Span(2, 1, "t", "engine.execute", "engine.execute", 1.0)
    child.end = 5.0
    child.covered = 1.5
    totals = layers.layer_self_seconds([root, child])
    assert totals == {None: 6.0, "engine.execute": 2.5}


def test_program_spans_keep_their_tree_and_randomness_time():
    def record(name, start, seconds, children=(), **attributes):
        return SimpleNamespace(
            name=name,
            attributes=attributes,
            started_at=start,
            wall_seconds=seconds,
            children=list(children),
        )

    construct = record("engine.construct", 1.0, 4.0)
    request = record("session.request", 0.0, 10.0, [construct], experiment_id="E3")
    spans = layers.from_telemetry([request], "w", {id(construct): 1.5})
    assert [(span.name, span.parent, span.trace) for span in spans] == [
        ("session.request", None, "w/1-E3"),
        ("engine.construct", 1, "w/1-E3"),
    ]
    assert layers.layer_self_seconds(spans) == {None: 6.0, "engine.construct": 2.5}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_each_workload_emits_every_declared_metric(workload):
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        process, result = bench(
            "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)
        )
        assert process.returncode == 0, process.stderr
        assert result["correct"] is True, notes(process)
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [name for name, _ in table]
        for name, unit in table:
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_changes_inputs_not_metric_set(workload):
    seen = []
    for seed in ("4", "5"):
        process, result = bench("--workload", workload, "--seed", seed, "--seconds", "1")
        assert process.returncode == 0, process.stderr
        inputs = [note for note in notes(process) if note.startswith("inputs: ")]
        seen.append((inputs, sorted(result["metrics"])))
    assert seen[0][0] != seen[1][0]
    assert seen[0][1] == seen[1][1]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_and_results_repeat_across_traced_runs(workload):
    counts, digests = [], []
    for _ in range(2):
        process, result = bench(
            "--workload", workload, "--seed", "6", "--seconds", "1", "--trace", "1"
        )
        assert process.returncode == 0, process.stderr
        counts.append({name: result["metrics"][name]["value"] for name in run.COUNTS})
        digests.append([note for note in notes(process) if note.startswith("result digest: ")])
    assert counts[0] == counts[1]
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process, result = bench(
        "--workload", "reproduce", "--seed", "0", "--seconds", "1", cwd=tmp_path
    )
    assert process.returncode != 0
    assert result is None
