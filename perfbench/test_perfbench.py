"""Tests of the benchmark itself (about two minutes; core-desk dominates).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The spans each workload must reach: the layer list of the benchmark's
# definition, by the workload it names for them.
EXPECTED_SPANS = {
    "core-desk": [
        "kernels.and_popcount_pairs_segmented", "kernels.masked_degrees", "kernels.and_popcount_pairs",
        "kernels.popcount_rows", "balanced.sample_balanced", "balanced.verify_balanced.forced",
        "balanced.verify_balanced.ii", "balanced.verify_balanced.iii", "core.build_core_sequence",
        "core._expand_quotient", "core.save_core_sequence", "core.load_core_sequence", "core.member_graph",
        "core.neighbor_family", "core.verify_structure", "core.verify_core_properties", "core.refute_partition",
        "core.reverify_certificate", "core.certificate_codec", "graphs.bipartite_to_binary",
        "graphs.bipartite_from_binary", "partitions.VertexPartition.from_text", "partitions.refines_beta",
        "cli.main", "cli._write_manifest",
    ],
    "hypergraph-k3": [
        "graphs.kgraph_to_text", "graphs.kgraph_from_text", "graphs.lift_graph_to_kgraph", "graphs.aux_graph",
        "hypergraphs.build_pasted_instance", "hypergraphs.build_inductive_family", "hypergraphs.verify_family",
        "cli.main", "cli._write_manifest",
    ],
    "exact-pairs": [
        "kernels.triangle_count", "kernels.subset_min_edges", "graphs.blowup", "regularity.is_delta_regular_pair",
        "regularity.is_eps_regular_graph", "regularity.partition_edit_interval", "counterexample.build_triangle_free",
        "counterexample.verify_counterexample", "counterexample._strengthened_pair_check", "cli.main",
        "cli._write_manifest",
    ],
}
EXPECTED_COUNTS = {
    "core-desk": [
        "kernels.and_popcount_pairs_segmented.words", "kernels.masked_degrees.words",
        "kernels.and_popcount_pairs.words", "kernels.popcount_rows.words", "kernels.bytes", "balanced.draws",
        "core.certificate.lines", "core.certificate.bytes", "graphs.codec.bytes", "cli.hashed_bytes",
    ],
    "hypergraph-k3": ["graphs.codec.bytes", "cli.hashed_bytes"],
    "exact-pairs": ["regularity.subsets_bound", "regularity.irregular", "counterexample.deletions", "graphs.codec.bytes"],
}

_cache = {}


def traced(name: str):
    """One traced pass of a workload at its README seed (cached)."""
    if name not in _cache:
        wl = WORKLOADS[name]
        work = run.OUT / "test" / name
        shutil.rmtree(work, ignore_errors=True)
        (work / "inputs").mkdir(parents=True)
        run._fresh_import()
        inp = wl.setup(wl.default_seed, str(work / "inputs"))
        ref = wl.reference(inp)
        t = tracer.Tracer()
        result = run.run_pass(wl, inp, ref, work / "pass", tracer=t)
        _cache[name] = (t, result, inp, ref)
    return _cache[name]


def test_every_hook_target_exists():
    run._fresh_import()
    t = tracer.Tracer()
    patches, missing = tracer.install(t, tracer.HOOKS)
    tracer.restore(patches)
    assert missing == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_named_layers_record_calls_and_nothing_stays_wrapped(name):
    t, result, _, _ = traced(name)
    assert [c for c, ok in result.checks if not ok] == []
    _, calls = t.self_times()
    assert [s for s in EXPECTED_SPANS[name] if calls[s] == 0] == []
    assert [c for c in EXPECTED_COUNTS[name] if t.counts[c] == 0] == []
    assert tracer.leftover_wrappers() == []


def test_patches_bindings_imported_by_name():
    """core imports sample_balanced and hypergraphs imports
    build_core_sequence by name; both bindings must be wrapped."""
    run._fresh_import()
    from deltareg import balanced, core, hypergraphs

    t = tracer.Tracer()
    patches, _ = tracer.install(t, tracer.HOOKS)
    try:
        assert core.sample_balanced is balanced.sample_balanced
        assert hasattr(core.sample_balanced, tracer.MARK)
        assert hasattr(hypergraphs.build_core_sequence, tracer.MARK)
        assert hasattr(hypergraphs.lift_graph_to_kgraph, tracer.MARK)
        assert hasattr(hypergraphs.aux_graph, tracer.MARK)
    finally:
        tracer.restore(patches)
    assert not hasattr(core.sample_balanced, tracer.MARK)
    assert tracer.leftover_wrappers() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_hidden_untimed_gap(name):
    """Time outside every top-level span stays a small share of a pass."""
    t, result, _, _ = traced(name)
    assert (result.total - t.top_level_s()) / result.total <= run.UNTRACED_SHARE_BOUND


def test_self_times_bear_out_workload_choices():
    t, result, _, _ = traced("core-desk")
    self_s, _ = t.self_times()
    build = ["balanced.verify_balanced.iii", "kernels.and_popcount_pairs_segmented", "balanced.sample_balanced",
             "balanced.verify_balanced.forced", "core._expand_quotient", "core.save_core_sequence", "cli._write_manifest"]
    assert max(build, key=self_s.__getitem__) in build[:2]

    t, result, _, _ = traced("hypergraph-k3")
    self_s, _ = t.self_times()
    assert max(self_s, key=self_s.__getitem__).startswith("graphs.kgraph_")
    assert sum(v for k, v in self_s.items() if k.startswith("balanced.")) < 0.05 * result.total

    t, result, _, _ = traced("exact-pairs")
    self_s, calls = t.self_times()
    assert max(self_s, key=self_s.__getitem__) in ("kernels.subset_min_edges", "regularity.is_eps_regular_graph")
    assert [k for k in calls if k.startswith(("balanced.", "graphs.kgraph_"))] == []


@pytest.mark.parametrize("name", ["hypergraph-k3", "exact-pairs"])
def test_counts_repeat_for_one_seed(name):
    t, first, inp, ref = traced(name)
    again = tracer.Tracer()
    second = run.run_pass(WORKLOADS[name], inp, ref, run.OUT / "test" / name / "again", tracer=again)
    assert {k: t.counts[k] for k in tracer.DETERMINISTIC} == {k: again.counts[k] for k in tracer.DETERMINISTIC}
    assert first.fingerprint == second.fingerprint


def test_reference_clock_ticks_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    refclock.start()
    try:
        w0, r0 = perf_counter(), refclock.now()
        while perf_counter() - w0 < 10 * refclock.INTERVAL:
            sum(range(1000))
        wall, ref = perf_counter() - w0, refclock.now() - r0
        assert refclock._state[0] > 0  # the handler advanced the clock
    finally:
        refclock.stop()
    assert 0.2 < ref / wall < 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert abs(refclock.now() - perf_counter()) < 0.01


def test_run_prints_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact-pairs", "--seed", "3", "--seconds", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run exits
    non-zero and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact-pairs", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
