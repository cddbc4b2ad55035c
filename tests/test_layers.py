"""Layer rules of the package, checked on its source with ``ast``.

``deltareg._kernels`` owns the packed-row format: no other module packs or
unpacks bits with numpy or counts the words of a row itself.  The two
independent oracles are the exception, since an oracle must share no code
with the path it checks.  ``math.isqrt`` is called by the one exact
integer-root helper only.  ``deltareg.graphs`` owns the decimal text
format: no other module does digit-byte arithmetic or defines a decimal
reader or writer.  The certificate re-check reaches none of the package's
functions that the refuter or its witness engine reach, except an
allow-list, and the brute-force pair oracle none that the exact pair
checker reaches, except the two result types.  Every function the
benchmark's tracer hooks by name exists under that name.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltareg"
ORACLES = {("regularity", "naive_all_sizes_oracle"), ("core", "reverify_certificate")}
ROOT_HELPER = ("core", "_iroot_floor")


class _Scan(ast.NodeVisitor):
    """Every call and every ``(x + 63) // 64`` of a module, with the
    qualified name of the function around it ("" at module level)."""

    def __init__(self):
        self.scope, self.calls, self.word_counts, self.defs, self.numpy_calls = [], [], [], [], set()
        self.digit_bytes = []

    def _enter(self, node):
        self.defs.append((node.name, ".".join(self.scope + [node.name])))
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        self.calls.append((".".join(self.scope), name, node.lineno))
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "np":
            self.numpy_calls.add(self.calls[-1])
        if name == "ord" and any(isinstance(a, ast.Constant) and a.value in tuple("0123456789") for a in node.args):
            self.digit_bytes.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        left, right = node.left, node.right
        if (
            isinstance(node.op, ast.FloorDiv)
            and isinstance(right, ast.Constant) and right.value == 64
            and isinstance(left, ast.BinOp) and isinstance(left.op, ast.Add)
            and isinstance(left.right, ast.Constant) and left.right.value == 63
        ):
            self.word_counts.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def _scans():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan()
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        out[path.stem] = scan
    return out


SCANS = _scans()


def test_the_exceptions_name_existing_functions():
    for mod, fn in ORACLES | {ROOT_HELPER}:
        assert any(where == fn for where, _, _ in SCANS[mod].calls), f"{mod}.{fn} is gone or calls nothing"


def test_only_kernels_and_the_oracles_pack_bits():
    offenders = [
        f"{mod}.py:{line} in {where or '<module>'}"
        for mod, scan in SCANS.items()
        for where, name, line in scan.calls
        if name in ("packbits", "unpackbits") and mod != "_kernels" and (mod, where) not in ORACLES
    ]
    assert offenders == [], "call the packed-row functions of deltareg._kernels instead"


def test_only_kernels_counts_row_words():
    offenders = [f"{mod}.py:{line}" for mod, scan in SCANS.items() if mod != "_kernels" for _, line in scan.word_counts]
    assert offenders == [], "use deltareg._kernels.row_words"


def test_only_the_root_helper_calls_isqrt():
    offenders = [
        f"{mod}.py:{line} in {where or '<module>'}"
        for mod, scan in SCANS.items()
        for where, name, line in scan.calls
        if name == "isqrt" and (mod, where) != ROOT_HELPER
    ]
    assert offenders == [], "use core._iroot_floor or core.dyadic_root_ceil"


def test_only_graphs_knows_the_decimal_format():
    offenders = [f"{mod}.py:{line} in {where or '<module>'}" for mod, scan in SCANS.items() if mod != "graphs" for where, line in scan.digit_bytes]
    assert offenders == [], "read and write decimal text through deltareg.graphs (_digit_runs, _parse_rows, _write_tokens)"
    assert SCANS["graphs"].digit_bytes, "the scan sees digit-byte arithmetic"
    owners = {mod for mod, scan in SCANS.items() for name, _ in scan.defs if name in ("_digit_runs", "_write_tokens")}
    assert owners == {"graphs"}


# the certificate re-check and the path that writes certificates
RECHECK = ("core", "reverify_certificate")
REFUTER = [("core", "refute_partition"), ("core", "_level_witnesses")]
RECHECK_MAY_SHARE = {"graph_hash", "dyadic_root_ceil", "VertexPartition"}


def _reach(roots, shared=RECHECK_MAY_SHARE) -> set:
    """Names of the package's functions, methods and classes that the roots
    call, directly or through one another (matched by name, so a method
    stands for every method of that name).  The allowed shared names are
    not followed."""
    defined = {}
    for mod, scan in SCANS.items():
        for name, qualified in scan.defs:
            defined.setdefault(name, []).append((mod, qualified))
    seen, todo = set(), list(roots)
    while todo:
        mod, fn = todo.pop()
        for call in set(SCANS[mod].calls) - SCANS[mod].numpy_calls:
            where, name, _ = call
            if (where == fn or where.startswith(fn + ".")) and name in defined and name not in seen:
                seen.add(name)
                if name not in shared:
                    todo += defined[name]
    return seen


def test_the_recheck_shares_no_code_with_the_refuter():
    recheck, refuter = _reach([RECHECK]), _reach(REFUTER)
    assert {"graph_hash", "VertexPartition"} <= recheck and "_level_witnesses" in _reach([("core", "refute_partition")])
    assert "unpack_rows" in refuter and "edge_count" in refuter  # the scan sees through the refuter
    # the refuter's host and beta-inside decisions, R* included, go through one primitive
    assert {"cell_hosts", "ceil_share", "refines_beta", "_rstar_mask"} <= refuter
    shared = (recheck & refuter) - RECHECK_MAY_SHARE
    assert shared == set(), f"reverify_certificate reaches {sorted(shared)}, which the refuter reaches too"


# the brute-force oracle and the exact pair checker it is the reference for
ORACLE = ("regularity", "naive_all_sizes_oracle")
CHECKER = ("regularity", "is_delta_regular_pair")
ORACLE_MAY_SHARE = {"PairVerdict", "DeltaWitness"}


def test_the_oracle_shares_no_code_with_the_exact_checker():
    oracle, checker = _reach([ORACLE], ORACLE_MAY_SHARE), _reach([CHECKER], ORACLE_MAY_SHARE)
    assert {"subset_min_edges", "DeltaWitness"} <= checker and "PairVerdict" in oracle  # the scan sees through both
    shared = (oracle & checker) - ORACLE_MAY_SHARE
    assert shared == set(), f"naive_all_sizes_oracle reaches {sorted(shared)}, which is_delta_regular_pair reaches too"


TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _hook_targets() -> list:
    """The target of every ``Hook("module.attr[.attr]", ...)`` in the
    tracer's source; the tracer itself is not imported."""
    calls = (node for node in ast.walk(ast.parse(TRACER.read_text())) if isinstance(node, ast.Call))
    return [c.args[0].value for c in calls if getattr(c.func, "id", None) == "Hook" and c.args and isinstance(c.args[0], ast.Constant)]


def test_every_benchmark_hook_names_a_function_of_the_package():
    """A hook whose target is gone drops its layer from the benchmark
    without failing it, so a rename must fail here."""
    targets = _hook_targets()
    assert {"graphs.lift_graph_to_kgraph", "graphs.aux_graph", "core.IrregularityCertificate.to_text"} <= set(targets)
    missing = []
    for target in targets:
        module, *path = target.split(".")
        owner = importlib.import_module(f"deltareg.{module}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        # the tracer wraps attributes defined on the owner itself, not inherited ones
        if owner is None or not callable(vars(owner).get(path[-1])):
            missing.append(target)
    assert missing == [], f"perfbench/tracer.py hooks {missing}, which deltareg does not define"
