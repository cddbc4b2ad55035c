"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the checks on its outputs.

Every workload runs in this process, through ``deltareg.cli.main`` with the
README arguments, plus (for ``exact-pairs``) direct library calls.  A pass
times its steps only; checks and fingerprints run after the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction
import numpy as np

from refclock import now

# The README desk inputs, written by the benchmark so that the workload does
# not move when a profile file in the repository is edited.
CORE_PROFILE = {
    "s": 3,
    "r_sizes": [8, 32, 128],
    "l_sizes": [16, 256, 65536],
    "blowup_left": 1,
    "blowup_right": 1,
    "alpha": "3/4",
    "beta": "1/2",
    "enforce": ["ii", "iii"],
    "strict_mode": False,
    "max_retries": 50,
}
COUNTEREXAMPLE_PARAMS = {"delta": "1/2", "q": "1/10", "k": 30, "m": 3}

KINDS = ("build_s", "verify_s", "certify_s")


class Pass:
    """Step times and raw outputs of one pass over a workload."""

    def __init__(self, out: str):
        self.out = out
        self.times = dict.fromkeys(KINDS, 0.0)
        self.steps = []  # (label, exit code or None, stdout)
        self.errors = []
        self.results = {}  # library-call results, by kind

    def cli(self, kind: str, argv: list) -> tuple:
        from deltareg import cli

        argv = [str(a) for a in argv]
        buf = io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception as e:  # a crashed step is a failed check, not a crashed benchmark
            rc = None
            self.errors.append(f"{argv[0]}: {e!r}")
        self.times[kind] += now() - t0
        self.steps.append((_label(argv), rc, buf.getvalue()))
        return rc, buf.getvalue()

    def call(self, kind: str, fn, *args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.errors.append(f"{fn.__name__}: {e!r}")
            return None
        finally:
            self.times[kind] += now() - t0


def _label(argv: list) -> str:
    """``verify <suite> [<mode>]`` for verify steps, else the command."""
    words = argv[:1]
    for flag in ("--suite", "--mode"):
        if flag in argv:
            words.append(argv[argv.index(flag) + 1])
    return " ".join(words)


def _step_checks(p: Pass) -> list:
    """Every step exits 0; every verify step prints ``suite PASS``."""
    out = [(f"exception: {e}", False) for e in p.errors]
    for label, rc, text in p.steps:
        out.append((f"{label} exits 0", rc == 0))
        if label.startswith("verify"):
            lines = text.strip().splitlines()
            out.append((f"{label} prints suite PASS", bool(lines) and lines[-1] == "suite PASS"))
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _manifest_hashes(out_dir: str) -> dict:
    """The artifact SHA-256s the CLI recorded in run-manifest.json."""
    path = os.path.join(out_dir, "run-manifest.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["artifacts"]


class Workload:
    """One workload: ``setup`` makes the inputs from a seed, ``fresh`` gives
    a pass its own objects, ``reference`` computes expected verdicts once,
    ``run`` is the timed pass, ``check`` and ``fingerprint`` judge it."""

    name = ""
    default_seed = 0

    def fresh(self, inp: dict) -> dict:
        return inp

    def reference(self, inp: dict):
        return None


class CoreDesk(Workload):
    """The desk chain flow.  The balanced sampler's condition (iii) and the
    segmented popcount dominate the build; it is the only workload that
    writes and reloads the 19 MB artifact and runs the certificate path."""

    name = "core-desk"
    default_seed = 1

    def setup(self, seed: int, inputs: str) -> dict:
        from deltareg import core

        prof = os.path.join(inputs, "core-desk.json")
        with open(prof, "w") as f:
            json.dump(CORE_PROFILE, f, indent=1)
        left, right = core.default_chains(core.GrowthProfile.from_json(CORE_PROFILE))
        paths = {"profile": prof, "P": os.path.join(inputs, "P.part"), "Q": os.path.join(inputs, "Q.part")}
        with open(paths["P"], "w") as f:
            f.write(left[1].to_text())  # 256 level-2 left blocks
        with open(paths["Q"], "w") as f:
            f.write(right[2].to_text())  # 128 level-3 right blocks
        return {"seed": seed, **paths, "n_P": len(left[1]), "n_Q": len(right[2])}

    def sizes(self, inp: dict) -> str:
        return (
            f"seed {inp['seed']}; profile s=3, left 16/256/65536, right 8/32/128, 15 members; "
            f"certify level 3 member 0, P={inp['n_P']} left blocks, Q={inp['n_Q']} right blocks, "
            "delta 1/16384, t 3, gamma 1/4"
        )

    def run(self, p: Pass, inp: dict):
        art = os.path.join(p.out, "core")
        p.cli("build_s", ["build-core", "--profile", inp["profile"], "--seed", inp["seed"], "--out", art])
        p.cli("verify_s", ["verify", "--artifact", art, "--suite", "core-structural"])
        p.cli("verify_s", ["verify", "--artifact", art, "--suite", "core-properties"])
        p.cli("certify_s", [
            "certify", "--artifact", art, "--left-partition", inp["P"], "--right-partition", inp["Q"],
            "--delta", "1/16384", "--t", "3", "--level", "3", "--member", "0", "--gamma", "1/4",
            "--out-cert", os.path.join(art, "certificate.txt"),
        ])
        p.cli("certify_s", ["verify", "--artifact", art, "--suite", "certificate"])

    def check(self, p: Pass, inp: dict, ref) -> list:
        certify = [text for label, _, text in p.steps if label == "certify"]
        refutes = bool(certify) and "certificate refutes" in certify[0]
        return _step_checks(p) + [("certificate refutes", refutes)]

    def fingerprint(self, p: Pass) -> dict:
        art = os.path.join(p.out, "core")
        fp = {"manifest": _manifest_hashes(art)}
        for name in ("certificate.txt", "refuted-graph.bin"):
            path = os.path.join(art, name)
            fp[name] = _sha256(path) if os.path.exists(path) else None
        return fp


class HypergraphK3(Workload):
    """The pasted 3-graph build and its replay check.  The k-graph text
    codec and the lifts dominate; the sampler and popcount stay idle, so it
    is the bypass for changes to them."""

    name = "hypergraph-k3"
    default_seed = 9

    def setup(self, seed: int, inputs: str) -> dict:
        return {"seed": seed}

    def sizes(self, inp: dict) -> str:
        return f"seed {inp['seed']}; k 3, s 2, blowup 4: 6 cycle classes of 64 vertices, 393216 edges merged on 3 classes of 128"

    def run(self, p: Pass, inp: dict):
        art = os.path.join(p.out, "hg")
        p.cli("build_s", ["build-hypergraph", "--k", "3", "--s", "2", "--blowup", "4", "--seed", inp["seed"], "--out", art])
        p.cli("verify_s", ["verify", "--artifact", art, "--suite", "hypergraph"])

    def check(self, p: Pass, inp: dict, ref) -> list:
        path = os.path.join(p.out, "hg", "merged.kgraph")
        header = []
        if os.path.exists(path):
            with open(path) as f:
                header = [f.readline().strip() for _ in range(6)]
        return _step_checks(p) + [("merged graph has 393216 edges", "edges 393216" in header)]

    def fingerprint(self, p: Pass) -> dict:
        return {"manifest": _manifest_hashes(os.path.join(p.out, "hg"))}


# -- exact-pairs ------------------------------------------------------------

# (left size, right size, delta): constructed-regular pairs force a full
# scan of the C(nl, ceil(delta nl)) left subsets; the same shapes with an
# empty minimal block planted give irregular pairs that exit early.
DELTA_PAIRS = [(20, 20, Fraction(1, 4)), (18, 18, Fraction(1, 3)), (22, 20, Fraction(1, 4)), (20, 24, Fraction(1, 4))]
EPS_PAIRS = [(20, 20, Fraction(1, 4)), (18, 18, Fraction(1, 3))]
# partition_edit_interval graphs: 2 x 2 cells of BLOCK x BLOCK; one
# off-diagonal block is irregular, so the repair path runs too.
INTERVALS, BLOCK, INTERVAL_DELTA = 2, 18, Fraction(1, 4)
# random pairs small enough for naive_all_sizes_oracle
SMALL_PAIRS, SMALL_MAX = 40, 10
# exact strengthened-pair check on triangle-free bases: C(14, 7) left subsets
BASES, BASE_PARAMS = 2, {"delta": Fraction(1, 2), "q": Fraction(1, 2), "k": 14, "m": 1}
CX_SEEDS = 6


def _graph(bits: np.ndarray):
    from deltareg.graphs import BipartiteGraph, VertexClass

    nl, nr = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf = np.zeros((nl, (nr + 63) // 64 * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return BipartiteGraph(VertexClass("A", nl), VertexClass("B", nr), buf.view(np.uint64))


def _dense(rng, nl: int, nr: int, r: int, plant: tuple | None = None) -> np.ndarray:
    """Every row misses exactly r columns.  With r <= b/2 (b the minimal
    right size) every qualifying pair keeps density >= 1 - r/b >= 1/2 >=
    d/2, so the pair is delta-regular by construction.

    With ``plant = (a, b)`` the last a rows miss the same b random columns
    instead: that subset pair has density 0, so the pair is irregular by
    construction.  Fixed rows put the first violating left subset, in the
    lexicographic order the exact checkers scan, at the same place for
    every seed.  Either way the edge count depends on the shape, r and
    plant alone, so the edit-interval repair, which tries candidate blocks
    of the same edge count, does the same work for every seed."""
    bits = np.ones((nl, nr), dtype=bool)
    rest = nl
    if plant:
        a, b = plant
        rest = nl - a
        bits[rest:, rng.choice(nr, b, replace=False)] = False
    for u in range(rest):
        bits[u, rng.choice(nr, r, replace=False)] = False
    return bits


def _min_sizes(nl, nr, frac):
    return max(1, math.ceil(frac * nl)), max(1, math.ceil(frac * nr))


def _eps_regular_by_construction(nl, nr, r, eps) -> bool:
    """Rows missing r columns: every minimal pair has density in
    [1 - r/b, 1]; both must lie within eps*p of p = 1 - r/nr."""
    _, b = _min_sizes(nl, nr, eps)
    p = 1 - Fraction(r, nr)
    return 1 <= (1 + eps) * p and 1 - Fraction(r, b) >= (1 - eps) * p


class ExactPairs(Workload):
    """The counterexample flow plus exact pair decisions.  The subset-extremum
    loops and the triangle kernel dominate; neither other workload reaches
    them, so those are the bypass for changes to them."""

    name = "exact-pairs"
    default_seed = 5

    def setup(self, seed: int, inputs: str) -> dict:
        rng = np.random.default_rng(seed)
        params = os.path.join(inputs, "counterexample-desk.json")
        with open(params, "w") as f:
            json.dump(COUNTEREXAMPLE_PARAMS, f, indent=1)
        delta_pairs = []  # (bits, delta, expected status or None for the oracle)
        for nl, nr, delta in DELTA_PAIRS:
            a, b = _min_sizes(nl, nr, delta)
            delta_pairs.append((_dense(rng, nl, nr, b // 2), delta, "regular"))
            delta_pairs.append((_dense(rng, nl, nr, b // 2, plant=(a, b)), delta, "irregular"))
        small = []
        for _ in range(SMALL_PAIRS):
            nl, nr = (int(x) for x in rng.integers(4, SMALL_MAX + 1, size=2))
            bits = rng.random((nl, nr)) < rng.uniform(0.1, 0.95)
            small.append((bits, Fraction(1, int(rng.integers(2, 5))), None))
        eps_pairs = []
        for nl, nr, eps in EPS_PAIRS:
            if not _eps_regular_by_construction(nl, nr, 1, eps):
                raise ValueError(f"eps pair {nl}x{nr} at {eps} is not regular by construction")
            a, b = _min_sizes(nl, nr, eps)
            eps_pairs.append((_dense(rng, nl, nr, 1), eps, "regular"))
            eps_pairs.append((_dense(rng, nl, nr, 1, plant=(a, b)), eps, "irregular"))
        intervals = []
        a, b = _min_sizes(BLOCK, BLOCK, INTERVAL_DELTA)
        for _ in range(INTERVALS):
            bits = np.zeros((2 * BLOCK, 2 * BLOCK), dtype=bool)
            bad = [(0, 1), (1, 0)][int(rng.integers(2))]  # the irregular off-diagonal block
            expected = {}
            for pi in range(2):
                for qi in range(2):
                    block = _dense(rng, BLOCK, BLOCK, b // 2, plant=(a, b) if (pi, qi) == bad else None)
                    bits[pi * BLOCK:(pi + 1) * BLOCK, qi * BLOCK:(qi + 1) * BLOCK] = block
                    expected[(pi, qi)] = "irregular" if (pi, qi) == bad else "regular"
            intervals.append((bits, expected))
        return {
            "seed": seed,
            "params": params,
            "cx_seeds": [seed + j for j in range(CX_SEEDS)],
            "base_seeds": [int(x) for x in rng.integers(0, 2**31, size=BASES)],
            "delta_pairs": delta_pairs + small,
            "eps_pairs": eps_pairs,
            "intervals": intervals,
        }

    def sizes(self, inp: dict) -> str:
        reg = sum(1 for *_, e in inp["delta_pairs"] if e == "regular")
        irr = sum(1 for *_, e in inp["delta_pairs"] if e == "irregular")
        shapes = ", ".join(f"{nl}x{nr}@{d}" for nl, nr, d in DELTA_PAIRS)
        eshapes = ", ".join(f"{nl}x{nr}@{e}" for nl, nr, e in EPS_PAIRS)
        return (
            f"seed {inp['seed']}; counterexample seeds {inp['cx_seeds']} (k 30, m 3, exact + sampled verify); "
            f"delta pairs {shapes}: {reg} regular + {irr} irregular by construction, "
            f"{SMALL_PAIRS} random pairs up to {SMALL_MAX}x{SMALL_MAX} judged by the oracle; "
            f"eps pairs {eshapes}: 1 regular + 1 irregular each; "
            f"{INTERVALS} edit intervals on 2x2 cells of {BLOCK}x{BLOCK} (1 irregular cell pair each); "
            f"{BASES} triangle-free bases k {BASE_PARAMS['k']}, exact strengthened check"
        )

    def fresh(self, inp: dict) -> dict:
        """New graph objects for a pass: BipartiteGraph caches its transpose,
        so reusing objects would let later passes skip work."""
        return {
            **inp,
            "graphs": {
                key: [_graph(item[0]) for item in inp[key]] for key in ("delta_pairs", "eps_pairs", "intervals")
            },
        }

    def reference(self, inp: dict):
        """naive_all_sizes_oracle on every pair small enough; computed once,
        outside the timed passes."""
        from deltareg import regularity

        return [
            regularity.naive_all_sizes_oracle(_graph(bits), d).status if expected is None else expected
            for bits, d, expected in inp["delta_pairs"]
        ]

    def run(self, p: Pass, inp: dict):
        from deltareg import counterexample as cx
        from deltareg import regularity as reg
        from deltareg.partitions import VertexPartition

        for j, s in enumerate(inp["cx_seeds"]):
            art = os.path.join(p.out, f"cx-{j}")
            p.cli("build_s", ["counterexample", "--params", inp["params"], "--seed", s, "--out", art])
            p.cli("verify_s", ["verify", "--artifact", art, "--suite", "counterexample", "--mode", "exact"])
            p.cli("verify_s", ["verify", "--artifact", art, "--suite", "counterexample", "--mode", "sampled"])
        p.results["bases"] = bases = []
        for s in inp["base_seeds"]:
            params = cx.CounterexampleParams(seed=s, **BASE_PARAMS)
            built = p.call("build_s", cx.build_triangle_free, params)
            if built is not None:
                bases.append(p.call("verify_s", cx.verify_counterexample, built[0], params, mode="exact", base=built[0]))
        graphs = inp["graphs"]
        p.results["delta"] = [
            p.call("verify_s", reg.is_delta_regular_pair, g, d, mode="exact")
            for g, (_, d, _) in zip(graphs["delta_pairs"], inp["delta_pairs"])
        ]
        p.results["eps"] = [
            p.call("verify_s", reg.is_eps_regular_graph, g, e, mode="exact")
            for g, (_, e, _) in zip(graphs["eps_pairs"], inp["eps_pairs"])
        ]
        halves = VertexPartition.blocks(2 * BLOCK, 2)
        p.results["intervals"] = [
            p.call("verify_s", reg.partition_edit_interval, g, halves, halves, INTERVAL_DELTA, mode="exact")
            for g in graphs["intervals"]
        ]

    def check(self, p: Pass, inp: dict, ref) -> list:
        out = _step_checks(p)
        for label, rc, text in p.steps:
            if label == "counterexample":
                out.append(("counterexample triangles=0", "triangles=0," in text))
        res = p.results
        for rep in res["bases"]:
            out.append(("base triangle-free", bool(rep) and rep["triangle_free"]))
            statuses = [v["status"] for v in (rep or {}).get("base_pair_property", {}).values()]
            out.append(("base pair check exact", statuses == ["checked"] * 3))
        out.append(("all bases verified", len(res["bases"]) == BASES))
        for (bits, d, _), want, got in zip(inp["delta_pairs"], ref, res["delta"]):
            out.append((f"delta pair {bits.shape}@{d} is {want}", got is not None and got.status == want))
            if got is not None and got.status == "irregular":
                out.append(("delta witness recount", _witness_ok(bits, d, got.witness)))
        for (bits, e, want), got in zip(inp["eps_pairs"], res["eps"]):
            out.append((f"eps pair {bits.shape}@{e} is {want}", got is not None and got["status"] == want))
        for (_, expected), got in zip(inp["intervals"], res["intervals"]):
            seen = {tuple(r["pair"]): r["status"] for r in got.pair_reports} if got else {}
            out.append(("interval cell verdicts", seen == expected))
            out.append(("interval lower <= upper", bool(got) and (got.upper is None or got.lower <= got.upper)))
        return out

    def fingerprint(self, p: Pass) -> dict:
        res = p.results
        return {
            "manifests": [_manifest_hashes(os.path.join(p.out, f"cx-{j}")) for j in range(CX_SEEDS)],
            "bases": repr(res["bases"]),
            "delta": [None if v is None else (v.status, None if v.witness is None else v.witness.left.tolist()) for v in res["delta"]],
            "eps": repr(res["eps"]),
            "intervals": [None if v is None else (v.lower, v.upper, v.pair_reports) for v in res["intervals"]],
        }


def _witness_ok(bits: np.ndarray, delta, w) -> bool:
    """Recount an irregularity witness from the bits: both sides at least
    the minimal size, e(S, T) as claimed, and density below half of d."""
    nl, nr = bits.shape
    a, b = _min_sizes(nl, nr, Fraction(delta))
    e_st = int(bits[np.ix_(w.left, w.right)].sum())
    e = int(bits.sum())
    return len(w.left) >= a and len(w.right) >= b and e_st == w.e_st and 2 * e_st * nl * nr < e * len(w.left) * len(w.right)


WORKLOADS = {w.name: w for w in (CoreDesk(), HypergraphK3(), ExactPairs())}
