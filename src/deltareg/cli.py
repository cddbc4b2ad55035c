"""Command-line front end: build, verify, certify, with reproducible
manifests.

All randomness flows from one master seed through a documented split
(command, module, level), so replaying a manifest reproduces byte-identical
artifacts.  Exit codes: 0 pass, 1 verification failure, 2 usage or
configuration error, 3 out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from . import core as core_mod
from . import counterexample as cx_mod
from . import hypergraphs as hg_mod
from . import schedules as sched_mod
from .balanced import SAMPLER_STREAM, SamplerExhausted, check_sampler_stream
from .graphs import (
    bipartite_from_binary,
    bipartite_to_binary,
    kgraph_from_binary,
    kgraph_from_text,
    kgraph_to_binary,
    kgraph_to_text,
)
from .partitions import VertexPartition

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_OUT_OF_MEMORY = 3

# what a bad input file or argument raises: a missing file or key, a
# malformed value, or a fraction with a zero denominator
BAD_INPUT = (OSError, ValueError, KeyError, ZeroDivisionError)


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, args: dict, seed, started: float):
    manifest = {
        "command": command,
        "args": {k: str(v) for k, v in args.items() if k not in ("func",)},
        "seed": seed,
        "version": __version__,
        "elapsed_s": round(time.time() - started, 3),
        "artifacts": {},
    }
    for root, _, files in os.walk(out_dir):
        for fn in sorted(files):
            if fn == "run-manifest.json":
                continue
            path = os.path.join(root, fn)
            rel = os.path.relpath(path, out_dir)
            manifest["artifacts"][rel] = _hash_file(path)
    with open(os.path.join(out_dir, "run-manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return manifest


def cmd_build_core(args) -> int:
    started = time.time()
    try:
        with open(args.profile) as f:
            profile = core_mod.GrowthProfile.from_json(json.load(f))
    except BAD_INPUT as e:
        print(f"error: bad profile: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        seq = core_mod.build_core_sequence(profile, args.seed)
    except (SamplerExhausted, ValueError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    os.makedirs(args.out, exist_ok=True)
    core_mod.save_core_sequence(seq, args.out)
    _write_manifest(args.out, "build-core", vars(args), args.seed, started)
    print(f"built chain of depth {profile.s} at {args.out}")
    return EXIT_OK


def cmd_build_hypergraph(args) -> int:
    started = time.time()
    if args.k < 2:
        print("error: uniformity must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.schedule:
            with open(args.schedule) as f:
                sched = sched_mod.DeskSchedule.from_json(json.load(f))
        else:
            sched = sched_mod.desk_schedule_k3(args.s)
    except BAD_INPUT as e:
        print(f"error: bad schedule: {e}", file=sys.stderr)
        return EXIT_USAGE
    core_kwargs = dict(alpha=Fraction(3, 4), beta=Fraction(1, 2))
    try:
        inst = hg_mod.build_pasted_instance(args.k, args.s, sched, args.seed, blowup=args.blowup, core_kwargs=core_kwargs)
    except (KeyError, IndexError, ValueError) as e:
        # a table without an entry the recursion needs, or sizes the chain rejects
        print(f"error: bad schedule for k={args.k}, s={args.s}: {e!r}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "merged.kgraph"), "w") as f:
        f.write(kgraph_to_text(inst.merged))
    for x, h in enumerate(inst.edge_graphs):
        with open(os.path.join(args.out, f"window-{x}.bin"), "wb") as f:
            f.write(kgraph_to_binary(h))
    with open(os.path.join(args.out, "instance.json"), "w") as f:
        json.dump(
            {
                "k": args.k,
                "s": args.s,
                "n_per_class": inst.n_per_class,
                "blowup": args.blowup,
                "seed": args.seed,
                "schedule": sched.to_json(),
                "initial_cells": inst.initial_cells,
                "sampler_stream": SAMPLER_STREAM,
            },
            f,
            indent=1,
            sort_keys=True,
        )
    _write_manifest(args.out, "build-hypergraph", vars(args), args.seed, started)
    print(f"built pasted instance k={args.k} s={args.s} at {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = {
        "core-structural": _suite_core_structural,
        "core-properties": _suite_core_properties,
        "certificate": _suite_certificate,
        "hypergraph": _suite_hypergraph,
        "counterexample": _suite_counterexample,
    }
    if args.suite not in suites:
        print(f"error: unknown suite {args.suite!r}; choose from {sorted(suites)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = suites[args.suite](args.artifact)
    except core_mod.ArtifactMismatch as e:
        # a file that is not the one its manifest hashed is a failed check
        report = {"ok": False, "claims": [{"id": "member-hashes", "ok": False, "detail": str(e)}]}
    except BAD_INPUT as e:
        print(f"error: invalid artifact dir: {e}", file=sys.stderr)
        return EXIT_USAGE
    _print_report(report, args)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAIL


def _print_report(report: dict, args):
    for claim in report["claims"]:
        status = "PASS" if claim["ok"] else "FAIL"
        print(f"[{status}] {claim['id']}: {claim['detail']}")
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as f:
            json.dump(_jsonable(report), f, indent=1)
    print("suite", "PASS" if report["ok"] else "FAIL")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def _suite_core_structural(artifact: str) -> dict:
    seq = core_mod.load_core_sequence(artifact)
    rep = core_mod.verify_structure(seq)
    claims = [
        {"id": "density-dyadic", "ok": rep["density"], "detail": "every member has edge count (|L||R|)/2^level"},
        {"id": "chain-two-child-split", "ok": rep["chain"], "detail": "each member is the disjoint union of its two children"},
        {"id": "block-zero-one", "ok": rep["blocks"], "detail": "every cluster block is complete or empty"},
        {"id": "neighbor-family-size", "ok": rep["families"], "detail": "family cardinality matches count/2^(level-1)"},
    ]
    if rep["failures"]:
        claims.append({"id": "failures", "ok": False, "detail": str(rep["failures"][:8])})
    return {"ok": rep["ok"], "claims": claims}


def _suite_core_properties(artifact: str) -> dict:
    seq = core_mod.load_core_sequence(artifact)
    ok1 = ok2 = True
    fails = []
    for i in range(1, seq.profile.s + 1):
        for m in range(1 << i):
            rep = core_mod.verify_core_properties(seq, i, member=m)
            ok1 &= rep["item1"]
            ok2 &= rep["item2"]
            fails.extend(rep["failures"][:2])
    claims = [
        {"id": "block-biregular-half", "ok": ok1, "detail": "parent-adjacent blocks are biregular of density 1/2"},
        {"id": "family-codegree-bound", "ok": ok2, "detail": "pair codegrees inside parent cells within (1+alpha)/4"},
    ]
    if fails:
        claims.append({"id": "failures", "ok": False, "detail": str(fails[:8])})
    return {"ok": ok1 and ok2, "claims": claims}


def _suite_certificate(artifact: str) -> dict:
    cert = core_mod.IrregularityCertificate.from_text(_read_text(artifact, "certificate.txt"))
    g = bipartite_from_binary(_read_bytes(artifact, "refuted-graph.bin"))
    rep = core_mod.reverify_certificate(cert, g)
    claims = [
        {"id": "ledger-reverify", "ok": rep["ok"], "detail": f"{rep['lines_checked']} lines recomputed from the graph"},
        {"id": "refutation-total", "ok": bool(rep.get("refutes")), "detail": f"total {cert.total} vs budget {cert.budget}"},
    ]
    return {"ok": rep["ok"] and bool(rep.get("refutes")), "claims": claims}


def _read_text(*path: str) -> str:
    """A file's text exactly as stored: no newline translation."""
    with open(os.path.join(*path), newline="") as f:
        return f.read()


def _read_bytes(*path: str) -> bytes:
    with open(os.path.join(*path), "rb") as f:
        return f.read()


def _suite_hypergraph(artifact: str) -> dict:
    with open(os.path.join(artifact, "instance.json")) as f:
        meta = json.load(f)
    check_sampler_stream(meta, "instance.json", "build-hypergraph")
    k, s, seed, blowup = (_json_int(meta, key) for key in ("k", "s", "seed", "blowup"))
    # a k the recorded schedule lacks raises ValueError here, before any
    # window is named or read
    sched = sched_mod.DeskSchedule.from_json(meta["schedule"])
    sched.m(k, s)
    windows = [f"window-{x}.bin" for x in range(2 * k)]
    names = ["merged.kgraph", *windows]
    merged = kgraph_from_text(_read_text(artifact, "merged.kgraph"))
    window_graphs = [kgraph_from_binary(_read_bytes(artifact, name)) for name in windows]
    expected = Fraction(2 * k, 1 << k) * Fraction(1, 1 << s)
    dens_ok = merged.density() == expected
    w_ok = all(h.density() == Fraction(1, 1 << s) for h in window_graphs)
    total_ok = merged.edge_count() == sum(h.edge_count() for h in window_graphs)
    # rebuild from the recorded seed; every graph file must be the bytes its
    # rebuild writes.  Both k-graph readers are strict inverses of their
    # writers, so a file reads as its rebuild, class names included,
    # exactly when it holds the rebuild's bytes: the rebuilt graphs are
    # never written out.
    inst = hg_mod.build_pasted_instance(k, s, sched, seed, blowup=blowup, core_kwargs=dict(alpha=Fraction(3, 4), beta=Fraction(1, 2)))
    rebuilt = [inst.merged, *inst.edge_graphs]
    differ = [name for name, h, r in zip(names, [merged, *window_graphs], rebuilt) if h != r]
    fam_rep = hg_mod.verify_family(inst.families[0])
    claims = [
        {"id": "merged-density", "ok": dens_ok, "detail": f"{merged.density()} = (2k/2^k)2^-s = {expected}"},
        {"id": "window-densities", "ok": w_ok, "detail": "each window graph has density 2^-s"},
        {"id": "edge-disjoint-union", "ok": total_ok, "detail": "window edge counts sum to the union"},
        {
            "id": "replay-identical",
            "ok": not differ,
            "detail": f"rebuild from the manifest seed differs in {', '.join(differ)}" if differ
            else "rebuild from the manifest seed is byte-identical in every graph file",
        },
        {"id": "family-invariants", "ok": fam_rep["ok"], "detail": "dyadic densities, chain splits, lift round-trip"},
    ]
    return {"ok": all(c["ok"] for c in claims), "claims": claims}


def _json_int(meta: dict, key: str) -> int:
    """meta[key], which must be a JSON integer (true and false are not)."""
    value = meta[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def _json_fraction(meta: dict, key: str) -> Fraction:
    """meta[key], which must be a JSON string that Fraction reads, such as
    "1/2", or a JSON integer (true, false and floats are not)."""
    value = meta[key]
    if type(value) is not str and type(value) is not int:
        raise ValueError(f"{key} must be a fraction string or an integer, not {value!r}")
    return Fraction(value)


def _counterexample_params(meta: dict, seed: int) -> cx_mod.CounterexampleParams:
    """Counterexample params from a params file or a stored params.json:
    delta and q as fractions, k and m (1 when absent) as JSON integers.
    Other keys are ignored, such as the ``relaxed`` flag that earlier
    builds stored."""
    return cx_mod.CounterexampleParams(
        delta=_json_fraction(meta, "delta"),
        q=_json_fraction(meta, "q"),
        k=_json_int(meta, "k"),
        m=_json_int({"m": 1, **meta}, "m"),
        seed=seed,
    )


def _suite_counterexample(artifact: str) -> dict:
    with open(os.path.join(artifact, "params.json")) as f:
        meta = json.load(f)
    params = _counterexample_params(meta, _json_int(meta, "seed"))
    pairs = {name: bipartite_from_binary(_read_bytes(artifact, f"{name}.bin")) for name in ("ab", "ac", "bc")}
    # every class has k * m vertices; decided first, since the triangle
    # count indexes one pair's rows by another's columns
    n = params.k * params.m
    wrong = [f"{name} is {p.left.size} x {p.right.size}" for name, p in pairs.items() if (p.left.size, p.right.size) != (n, n)]
    detail = f"{'; '.join(wrong)}; params.json gives k m = {n}" if wrong else f"every pair is k m x k m = {n} x {n}"
    shapes = {"id": "pair-shapes", "ok": not wrong, "detail": detail}
    if wrong:
        return {"ok": False, "claims": [shapes]}
    g = cx_mod.TripartiteGraph(n=n, ab=pairs["ab"], ac=pairs["ac"], bc=pairs["bc"])
    tri = g.triangle_count()
    dens_ok = all(
        Fraction(pairs[name].edge_count(), pairs[name].left.size * pairs[name].right.size) >= params.p
        for name in pairs
    )
    claims = [
        shapes,
        {"id": "triangle-free", "ok": tri == 0, "detail": f"exhaustive count {tri}"},
        {"id": "pair-density-floor", "ok": dens_ok, "detail": f"every pair density at least {params.p}"},
    ]
    return {"ok": all(c["ok"] for c in claims), "claims": claims}


def cmd_certify(args) -> int:
    try:
        seq = core_mod.load_core_sequence(args.artifact)
    except core_mod.ArtifactMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except BAD_INPUT as e:
        print(f"error: invalid artifact dir: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        P = VertexPartition.from_text(seq.n_left, _read_text(args.left_partition))
        Q = VertexPartition.from_text(seq.n_right, _read_text(args.right_partition))
    except (OSError, ValueError) as e:
        print(f"error: bad partition file: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        gamma = Fraction(args.gamma) if args.gamma else None
        cert = core_mod.refute_partition(
            seq, args.level, args.member, P, Q, Fraction(args.delta), args.t, gamma=gamma
        )
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: preconditions: {e}", file=sys.stderr)
        return EXIT_USAGE
    g = seq.member_graph(args.level, args.member)
    os.makedirs(os.path.dirname(os.path.abspath(args.out_cert)) or ".", exist_ok=True)
    with open(args.out_cert, "w") as f:
        f.write(cert.to_text())
    with open(os.path.join(os.path.dirname(os.path.abspath(args.out_cert)), "refuted-graph.bin"), "wb") as f:
        f.write(bipartite_to_binary(g))
    # fresh re-verification from serialized state before reporting success
    reread = core_mod.IrregularityCertificate.from_text(_read_text(args.out_cert))
    rep = core_mod.reverify_certificate(reread, g)
    if not rep["ok"]:
        print("error: certificate failed re-verification", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    if not cert.refutes:
        print(
            f"certificate total {cert.total} within budget {cert.budget}: refutation not established "
            "(small-scale constants); see the per-line ledger",
        )
        return EXIT_VERIFY_FAIL
    print(f"certificate refutes: total {cert.total} > budget {cert.budget}; lines {rep['lines_checked']}")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    started = time.time()
    try:
        with open(args.params) as f:
            meta = json.load(f)
        params = _counterexample_params(meta, args.seed)
        if args.strict:
            params.validate_strict()
    except BAD_INPUT as e:
        print(f"error: bad params: {e}", file=sys.stderr)
        return EXIT_USAGE
    g, audit = cx_mod.build_triangle_free(params)
    os.makedirs(args.out, exist_ok=True)
    for name, pair in (("ab", g.ab), ("ac", g.ac), ("bc", g.bc)):
        with open(os.path.join(args.out, f"{name}.bin"), "wb") as f:
            f.write(bipartite_to_binary(pair))
    with open(os.path.join(args.out, "audit.txt"), "w") as f:
        f.write(audit.to_text())
    with open(os.path.join(args.out, "params.json"), "w") as f:
        json.dump(
            {"delta": str(params.delta), "q": str(params.q), "k": params.k, "m": params.m, "seed": params.seed},
            f,
            indent=1,
            sort_keys=True,
        )
    _write_manifest(args.out, "counterexample", vars(args), args.seed, started)
    tri = g.triangle_count()
    print(f"triangle-free instance written: triangles={tri}, deletions={audit.deletions}")
    return EXIT_OK if tri == 0 else EXIT_VERIFY_FAIL


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="deltareg", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-core", help="build a chain at a desk profile")
    b.add_argument("--profile", required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_core)

    h = sub.add_parser("build-hypergraph", help="build a pasted k-graph instance")
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--s", type=int, required=True)
    h.add_argument("--schedule", default=None)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--blowup", type=int, default=4)
    h.add_argument("--out", required=True)
    h.set_defaults(func=cmd_build_hypergraph)

    v = sub.add_parser("verify", help="run a verification suite on an artifact dir")
    v.add_argument("--artifact", required=True)
    v.add_argument("--suite", required=True)
    v.add_argument(
        "--mode", choices=["exact", "sampled"], default="exact",
        help="selects nothing: no suite reads it, and every claim a suite prints is decided exactly",
    )
    v.add_argument("--json-out", default=None)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("certify", help="emit and re-verify an irregularity certificate")
    c.add_argument("--artifact", required=True)
    c.add_argument("--left-partition", required=True)
    c.add_argument("--right-partition", required=True)
    c.add_argument("--delta", required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--member", type=int, default=0)
    c.add_argument("--gamma", default=None)
    c.add_argument("--out-cert", required=True)
    c.set_defaults(func=cmd_certify)

    x = sub.add_parser("counterexample", help="build a triangle-free regular instance")
    x.add_argument("--params", required=True)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--strict", action="store_true", help="refuse params outside the full-scale window (exit 2); the build is the same")
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_counterexample)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as e:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory{': ' if str(e) else ''}{e}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
