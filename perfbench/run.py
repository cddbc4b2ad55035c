"""deltareg benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload core-desk --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run imports deltareg from ``src/``,
writes its inputs and artifacts under ``.perfbench_out/``, checks every
output, and prints the metrics named in ``BENCHMARK.json``: its last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs timed passes of the workload while the next one should
still end within ``--seconds`` of wall time (at least one pass), and
reports the end-to-end metrics as medians over the passes, in the
reference seconds of ``refclock.py``: wall time corrected for how fast the
shared host ran at the time.  ``--trace 1`` runs one untraced pass and then
one pass with every hooked deltareg function wrapped (see ``tracer.py``),
and reports the per-layer metrics of the traced pass in wall seconds.
Everything runs in this process, on one thread, except that each set-up
times the numpy import in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

import refclock
from refclock import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 5  # set-ups per run; setup_s is their median
UNTRACED_SHARE_BOUND = 0.05  # share of a traced pass allowed outside every top-level span
NUMPY_IMPORT = (
    "import sys, time; t0 = time.perf_counter(); import numpy; wall = time.perf_counter() - t0; "
    "sys.path.insert(0, sys.argv[1]); import refclock; print(wall * refclock.rate_now())"
)


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 prefix over the program's and the benchmark's Python files."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _fresh_import():
    """Import deltareg and its CLI as a new process would."""
    for name in [n for n in sys.modules if n == "deltareg" or n.startswith("deltareg.")]:
        del sys.modules[name]
    importlib.import_module("deltareg.cli")


@dataclass
class PassResult:
    total: float
    times: dict
    checks: list
    fingerprint: dict


def run_pass(wl, inp, ref, out: Path, tracer=None) -> PassResult:
    """One timed pass; with a tracer, the hooks are installed for the
    steps only, and removed before the checks run."""
    import tracer as tr
    from workloads import Pass

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    p = Pass(str(out))
    inp = wl.fresh(inp)
    patches, missing = tr.install(tracer, tr.HOOKS) if tracer else ([], [])
    for target in missing:
        print(f"hook target deltareg.{target} not found; its metrics read 0")
    t0 = now()
    try:
        wl.run(p, inp)
    finally:
        total = now() - t0
        tr.restore(patches)
    return PassResult(total, p.times, wl.check(p, inp, ref), wl.fingerprint(p))


def _layer_value(name: str, self_s, calls, counts):
    if name.endswith(".s"):
        return self_s[name[:-2]]
    if name.endswith(".calls"):
        return calls[name[: -len(".calls")]]
    return counts[name]


def _numpy_import_s() -> float:
    """Reference seconds to import numpy, timed in a fresh interpreter,
    since numpy cannot be imported twice in one process."""
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_IMPORT, str(HERE)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


def main(argv=None) -> int:
    refclock.start()
    try:
        return _main(argv)
    finally:
        refclock.stop()


def _main(argv) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's README seed")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        _fresh_import()
    except ImportError as e:
        print(f"error: cannot import deltareg from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2

    work = OUT / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    setups = []
    for _ in range(SETUPS):
        numpy_s = _numpy_import_s()
        t0 = now()
        _fresh_import()
        inp = wl.setup(seed, str(work / "inputs"))
        setups.append(numpy_s + now() - t0)
    ref = wl.reference(inp)
    if args.trace:
        refclock.stop()  # the per-layer metrics are in wall seconds

    from deltareg import _kernels

    print(f"commit {_commit()}; python {platform.python_version()}; numpy {numpy.__version__}; cpus {os.cpu_count()}")
    backend = "numba" if _kernels.HAVE_NUMBA else "numpy (numba absent: numba numbers not measured here)"
    print(f"kernels {backend}")
    print(f"workload {wl.name}: {wl.sizes(inp)}")

    checks = []
    if args.trace == 0:
        # passes until the next one would end after --seconds of wall time
        passes, walls = [], []
        start = perf_counter()
        while not passes or perf_counter() - start + max(walls) <= args.seconds:
            t0 = perf_counter()
            passes.append(run_pass(wl, inp, ref, work / "pass"))
            walls.append(perf_counter() - t0)
    else:
        passes = [run_pass(wl, inp, ref, work / "pass")]
        traced, layer = _traced_pass(wl, inp, ref, work, seed, spec, checks)
        passes.append(traced)
        layer["trace_overhead_s"] = traced.total - passes[0].total
        layer["certify_s"] = passes[0].times["certify_s"]
    for i, p in enumerate(passes):
        wall = f" (wall {walls[i]:.3f} s)" if args.trace == 0 else ""
        print(f"pass {i}: total {p.total:.3f} s{wall}, " + ", ".join(f"{k} {v:.3f} s" for k, v in p.times.items()))
        checks.extend(p.checks)
        checks.append(("artifacts and verdicts identical across passes of one seed", p.fingerprint == passes[0].fingerprint))

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED CHECK: {name}", file=sys.stderr)
    fail_frac = len(failed) / len(checks)
    untraced = passes[:1] if args.trace else passes
    e2e = {
        "total_s": statistics.median(p.total for p in untraced),
        "build_s": statistics.median(p.times["build_s"] for p in untraced),
        "verify_s": statistics.median(p.times["verify_s"] for p in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace == 0:
        print(f"passes {len(passes)} in {sum(walls):.3f} wall s; times above in reference seconds (see refclock.py)")
    print(f"checks {len(checks) - len(failed)}/{len(checks)} passed; fail_frac {fail_frac:.4f} ratio")
    print(f"certify_s {statistics.median(p.times['certify_s'] for p in untraced):.3f} s (certify + verify certificate)")
    if args.trace == 0:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        wanted = spec["per_layer"]
        values = layer
        values["fail_frac"] = fail_frac
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


def _traced_pass(wl, inp, ref, work: Path, seed: int, spec: dict, checks: list):
    """One pass with every hook installed; returns it and the per-layer
    values of everything but the untraced-pass metrics."""
    import tracer as tr

    t = tr.Tracer()
    traced = run_pass(wl, inp, ref, work / "pass", tracer=t)
    t.write(work / "spans.jsonl")
    left = tr.leftover_wrappers()
    checks.append((f"no deltareg attribute left wrapped {left}", not left))

    self_s, calls = t.self_times()
    c = t.counts
    layer = {m["name"]: _layer_value(m["name"], self_s, calls, c) for m in spec["per_layer"]}
    layer["balanced.accept_ratio"] = c["balanced.accepted"] / c["balanced.draws"] if c["balanced.draws"] else 0.0
    layer["regularity.irregular_share"] = (
        c["regularity.irregular"] / c["regularity.exact_decisions"] if c["regularity.exact_decisions"] else 0.0
    )
    layer["untraced_s"] = traced.total - t.top_level_s()
    share = layer["untraced_s"] / traced.total
    checks.append((f"untraced share {share:.4f} within {UNTRACED_SHARE_BOUND}", share <= UNTRACED_SHARE_BOUND))

    # counts that must repeat exactly: compare with the last traced run of
    # this workload and seed on the same source files
    counts = {k: c[k] for k in tr.DETERMINISTIC}
    state = OUT / "counts" / f"{wl.name}-{seed}-{_source_digest()}.json"
    if state.exists():
        before = json.loads(state.read_text())
        for k in tr.DETERMINISTIC:
            if k in before and before[k] != counts[k]:
                print(f"NONDETERMINISM: {k} was {before[k]}, now {counts[k]}", file=sys.stderr)
            checks.append((f"{k} repeats across traced runs of seed {seed}", before.get(k, counts[k]) == counts[k]))
    state.parent.mkdir(parents=True, exist_ok=True)
    tmp = state.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts))
    tmp.replace(state)

    top = sorted(((v, k) for k, v in self_s.items()), reverse=True)[:12]
    print("largest self times (traced pass): " + ", ".join(f"{k} {v:.3f}" for v, k in top))
    return traced, layer


if __name__ == "__main__":
    sys.exit(main())
