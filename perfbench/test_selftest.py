"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run each workload traced twice and the ring workload untraced once,
so they take a few minutes; the repository's own suite does not collect
them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gkmcalc  # noqa: E402
from workloads import (  # noqa: E402
    GeneratorError,
    Generator,
    Op,
    probe_is_dead,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTED = {"localize": "polyalg", "ring": "linalg"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0, proc.stderr
    return doc


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in ("localize", "ring", "chambers"):
        runs[workload] = [
            last_json(bench("--workload", workload, "--seed", "3", "--trace", "1"))
            for _ in range(2)
        ]
    return runs


def test_traced_metrics_match_the_declared_per_layer_list(traced_runs):
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    for first, _ in traced_runs.values():
        assert [(k, v["unit"]) for k, v in first["metrics"].items()] == declared


def test_counts_repeat_exactly_between_traced_runs(traced_runs):
    for workload, (first, second) in traced_runs.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count" or name.endswith(("rank_ratio", "yield")):
                assert metric["value"] == second["metrics"][name]["value"], (workload, name)


def test_spans_below_main_cover_the_traced_wall_time(traced_runs):
    for workload, runs in traced_runs.items():
        for doc in runs:
            assert doc["metrics"]["trace.coverage"]["value"] >= 0.9, workload


def test_predicted_layer_has_the_largest_self_time(traced_runs):
    for workload, runs in traced_runs.items():
        for doc in runs:
            selfs = {k[: -len(".self_s")]: v["value"] for k, v in doc["metrics"].items()
                     if k.endswith(".self_s")}
            if workload == "chambers":
                assert max(selfs, key=selfs.get) == "morse_betti.feasible"
                continue
            layers = defaultdict(float)
            for span, seconds in selfs.items():
                layers[span.split(".")[0]] += seconds
            assert max(layers, key=layers.get) == PREDICTED[workload], dict(layers)


def test_untraced_run_prints_the_end_to_end_metrics():
    doc = last_json(bench("--workload", "ring", "--seed", "0", "--seconds", "1"))
    assert doc["attempted"] >= 100
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == declared
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ring", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def generator(tmp_path):
    return Generator(gkmcalc, tmp_path, seed=1)


def test_chamber_guard_rejects_more_than_twelve_wall_classes(generator):
    k6n3 = generator.complete(6, 3)
    k5n3 = generator.complete(5, 3)
    for argv in (["betti", k6n3.path], ["jk", k6n3.path, "--sweep"],
                 ["morse", k6n3.path, "--xi=1,2,3", "--l=2"]):
        with pytest.raises(GeneratorError):
            generator.add(Op("guarded", argv, "betti", k6n3))
    generator.add(Op("fine", ["jk", k6n3.path, "--xi=1,2,3", "--sweep"], "sweep", k6n3))
    generator.add(Op("fine", ["betti", k5n3.path], "betti", k5n3))
    assert len(generator.ops) == 2


def test_dead_probe_guard_rejects_the_top_chern_class(generator):
    g = generator.complete(5, 2)
    pair = generator._pairs[g.name]
    xi = generator.xi(g)
    top = gkmcalc.chern_class(pair, g.valence)
    assert probe_is_dead(gkmcalc, pair, top, xi)
    assert probe_is_dead(gkmcalc, pair, top * gkmcalc.chern_class(pair, 1), xi)
    assert not probe_is_dead(gkmcalc, pair, gkmcalc.chern_class(pair, 1) ** g.valence, xi)
    for degree in range(g.valence, g.valence + 3):
        _, cls = generator.probe(g, degree, xi, f"p{degree}")
        assert not probe_is_dead(gkmcalc, pair, cls, xi)
