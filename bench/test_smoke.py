"""Smoke test of the benchmark at tiny sizes.

Every metric BENCHMARK.json declares is emitted with its unit, no operation
fails, tracing leaves dualcut as it found it, and without the dualcut
sources the benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

assert run._load_dualcut() is None
# These need the path set up by _load_dualcut.
import harness  # noqa: E402
from dualcut.advisor import Advisor  # noqa: E402
from dualcut.graphs import Digraph, VertexPartition  # noqa: E402
from dualcut.perfect import LiveInstance  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _dualcut_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("dualcut")
        for attr, value in vars(mod).items()
    } | {
        (cls.__name__, attr): value
        for cls in (Advisor, Digraph, VertexPartition, LiveInstance)
        for attr, value in vars(cls).items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_and_nothing_fails(workload, trace):
    before = _dualcut_bindings()
    result, info, digests = harness.run(workload, seed=7, seconds=0, trace=bool(trace), scale="tiny")
    assert _dualcut_bindings() == before

    # Raises unless the computed metrics are exactly the declared ones.
    metrics = run._with_units(result["metrics"], SPEC["per_layer" if trace else "end_to_end"])
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert result["correct"] is True
    assert result["failed"] == 0 and info["ops_failed"] == 0
    assert result["attempted"] >= 2 * info["cases"]
    assert len(digests) == info["cases"]
    if workload == "small-batch":
        assert info["tampered_reports_checked"] > 0
    if trace:
        assert info["untraced_targets"] == []


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
