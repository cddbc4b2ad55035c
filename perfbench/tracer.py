"""Span tracer that wraps deltareg functions from outside the package.

Every hooked function is replaced, for the length of a traced pass, by a
wrapper that records one span (name, start, end, parent span) and updates
the counters the hook names.  Nothing under ``src/`` is changed: the
wrappers are installed with ``setattr`` and removed again afterwards.

A function imported by name into another module (``from .balanced import
sample_balanced`` in ``core``) is a second binding of the same object, so
``install`` replaces the object in every ``deltareg.*`` module that holds
it, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

MARK = "_perfbench_original"


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, args, kwargs):
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: summed self time (duration minus the time covered
        by child spans) and number of calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")


@dataclass
class Hook:
    """One function to wrap.  ``target`` is ``module.function`` or
    ``module.Class.method`` relative to ``deltareg``; ``name`` is the span
    name, or a function of the bound arguments that returns it; ``count``
    updates the tracer's counters from (bound arguments, result)."""

    target: str
    name: str | Callable | None = None
    count: Callable | None = None
    bind: bool = False  # pass inspect-bound arguments instead of the raw args

    @property
    def span(self) -> str:
        # metric names start with a letter, so _kernels spans are kernels.*
        return self.name if isinstance(self.name, str) else self.target.lstrip("_")


def _wrapper(tracer: Tracer, hook: Hook, fn):
    sig = inspect.signature(fn) if hook.bind else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            info = bound.arguments
        else:
            info = args
        name = hook.name(info) if callable(hook.name) else hook.span
        result = tracer.call(name, fn, args, kwargs)
        if hook.count is not None:
            hook.count(tracer.counts, info, result)
        return result

    setattr(wrapper, MARK, fn)
    return wrapper


def _deltareg_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if (n == "deltareg" or n.startswith("deltareg.")) and m is not None]


def install(tracer: Tracer, hooks) -> tuple[list, list]:
    """Wrap every hook's function in every deltareg module that binds it.

    Returns (patches, missing): the (owner, attribute, original) triples to
    restore, and the hook targets that do not exist in this version."""
    modules = {m.__name__: m for m in _deltareg_modules()}
    patches, missing = [], []
    for hook in hooks:
        path = hook.target.split(".")
        owner = modules.get("deltareg." + path[0])
        for part in path[1:-1]:
            owner = getattr(owner, part, None)
        attr = path[-1]
        if owner is None or attr not in vars(owner):
            missing.append(hook.target)
            continue
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # methods: the class object is shared by every importer
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrapper(tracer, hook, raw.__func__))
            else:
                wrapped = _wrapper(tracer, hook, raw)
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, raw))
            continue
        wrapped = _wrapper(tracer, hook, raw)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, wrapped)
                    patches.append((mod, name, raw))
    return patches, missing


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def leftover_wrappers() -> list:
    """Names of deltareg attributes (module globals or class attributes)
    that still hold a tracer wrapper."""
    left = []
    for mod in _deltareg_modules():
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                left.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        left.append(f"{mod.__name__}.{name}.{attr}")
    return left


# -- counters -------------------------------------------------------------


def _pair_kernel(label):
    def count(c, args, result):
        rows, pairs = args[0], args[1]
        words = len(pairs) * rows.shape[1]
        c[f"kernels.{label}.words"] += words
        c["kernels.bytes"] += 2 * words * 8  # two rows read per pair
    return count


def _masked_degrees(c, args, result):
    rows, mask = args[0], args[1]
    c["kernels.masked_degrees.words"] += rows.size
    c["kernels.bytes"] += (rows.size + mask.size) * 8


def _popcount_rows(c, args, result):
    c["kernels.popcount_rows.words"] += args[0].size
    c["kernels.bytes"] += args[0].size * 8


def _verify_balanced_name(a):
    conds = set(a["conditions"])
    if conds <= {"i", "iv"}:
        return "balanced.verify_balanced.forced"
    if len(conds) == 1:
        return f"balanced.verify_balanced.{conds.pop()}"
    return "balanced.verify_balanced.all"


def _sample_balanced(c, a, result):
    telemetry = result[1]
    c["balanced.draws"] += telemetry["draws"]
    c["balanced.accepted"] += 1
    for cond, n in telemetry["failures"].items():
        c[f"balanced.rejects.{cond}"] += n


def _certificate(c, a, cert):
    c["core.certificate.lines"] += sum(len(e.lines) for e in cert.entries)


def _certificate_text(c, a, text):
    c["core.certificate.bytes"] += len(text)


def _encoded(c, a, result):
    c["graphs.codec.bytes"] += len(result)


def _decoded(c, args, result):
    c["graphs.codec.bytes"] += len(args[0])


def _exact_decision(side):
    """subsets_bound (C(nl, a) at the minimal left size) and the verdict of
    one exact regularity decision; trivial densities return before any
    enumeration and are not counted."""

    def count(c, a, result):
        if a["mode"] != "exact":
            return
        g, frac = a["g"], Fraction(a[side])
        nl, nr, e = g.left.size, g.right.size, g.edge_count()
        if e in (0, nl * nr):
            return
        c["regularity.subsets_bound"] += math.comb(nl, max(1, math.ceil(frac * nl)))
        c["regularity.exact_decisions"] += 1
        status = result.status if hasattr(result, "status") else result["status"]
        c["regularity.irregular"] += status == "irregular"
    return count


def _triangle_free(c, a, result):
    c["counterexample.deletions"] += sum(result[1].deletions.values())


def _manifest(c, a, manifest):
    out_dir = a["out_dir"]
    c["cli.hashed_bytes"] += sum(os.path.getsize(os.path.join(out_dir, rel)) for rel in manifest["artifacts"])


HOOKS = [
    # _kernels: callers look these up as module attributes at call time
    Hook("_kernels.and_popcount_pairs_segmented", count=_pair_kernel("and_popcount_pairs_segmented")),
    Hook("_kernels.and_popcount_pairs", count=_pair_kernel("and_popcount_pairs")),
    Hook("_kernels.masked_degrees", count=_masked_degrees),
    Hook("_kernels.popcount_rows", count=_popcount_rows),
    Hook("_kernels.triangle_count"),
    Hook("_kernels.subset_min_edges"),
    # balanced
    Hook("balanced.sample_balanced", count=_sample_balanced),
    Hook("balanced.verify_balanced", name=_verify_balanced_name, bind=True),
    # core
    Hook("core.build_core_sequence"),
    Hook("core._expand_quotient"),
    Hook("core.save_core_sequence"),
    Hook("core.load_core_sequence"),
    Hook("core.CoreSequence.member_graph", name="core.member_graph"),
    Hook("core.neighbor_family"),
    Hook("core.verify_structure"),
    Hook("core.verify_core_properties"),
    Hook("core.refute_partition", count=_certificate),
    Hook("core.reverify_certificate"),
    Hook("core.IrregularityCertificate.to_text", name="core.certificate_codec", count=_certificate_text),
    Hook("core.IrregularityCertificate.from_text", name="core.certificate_codec"),
    # graphs
    Hook("graphs.kgraph_to_text", count=_encoded),
    Hook("graphs.kgraph_from_text", count=_decoded),
    Hook("graphs.bipartite_to_binary", count=_encoded),
    Hook("graphs.bipartite_from_binary", count=_decoded),
    Hook("graphs.bipartite_to_text", count=_encoded),
    Hook("graphs.lift_graph_to_kgraph"),
    Hook("graphs.aux_graph"),
    Hook("graphs.blowup"),
    # partitions
    Hook("partitions.VertexPartition.from_text"),
    Hook("partitions.refines_beta"),
    # hypergraphs
    Hook("hypergraphs.build_pasted_instance"),
    Hook("hypergraphs.build_inductive_family"),
    Hook("hypergraphs.verify_family"),
    # regularity
    Hook("regularity.is_delta_regular_pair", count=_exact_decision("delta"), bind=True),
    Hook("regularity.is_eps_regular_graph", count=_exact_decision("eps"), bind=True),
    Hook("regularity.partition_edit_interval"),
    # counterexample
    Hook("counterexample.build_triangle_free", count=_triangle_free),
    Hook("counterexample.verify_counterexample"),
    Hook("counterexample._strengthened_pair_check"),
    # cli: the front end itself, and manifest hashing
    Hook("cli.main"),
    Hook("cli._write_manifest", count=_manifest, bind=True),
]

# Counts that depend only on the inputs: two traced passes of one seed
# must reproduce them exactly.
DETERMINISTIC = (
    "balanced.draws",
    "balanced.rejects.ii",
    "balanced.rejects.iii",
    "kernels.and_popcount_pairs_segmented.words",
    "kernels.and_popcount_pairs.words",
    "kernels.masked_degrees.words",
    "kernels.popcount_rows.words",
    "regularity.subsets_bound",
    "core.certificate.lines",
    "counterexample.deletions",
)
