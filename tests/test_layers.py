"""Layer rules of the package, checked on its source with ``ast``.

``deltareg._kernels`` owns the packed-row format: no other module packs or
unpacks bits with numpy or counts the words of a row itself.  The two
independent oracles are the exception, since an oracle must share no code
with the path it checks.  ``math.isqrt`` is called by the one exact
integer-root helper only.  ``deltareg.graphs`` owns the decimal text
format: no other module does digit-byte arithmetic or defines a decimal
reader or writer, and ``_digit_runs`` is its one reader.  Both k-graph
readers decode their body through one helper, and the text one reaches no
decimal reader.  The certificate re-check reaches none of the package's
functions that the refuter or its witness engine reach, except an
allow-list, and the brute-force pair oracle none that the exact pair
checker reaches, except the two result types.  Every function the
benchmark's tracer hooks by name exists under that name.  Every module-level
function and class is reached from the CLI, the benchmark, the named
oracles or a short list of entries kept for an acceptance criterion or a
ROADMAP direction, and every module-level import is used.  Every defaulted
parameter is set by some call, or kept with its reason.  No string constant
reads "unknown", and the polyad-regularity engine reaches neither
``clique_set`` nor ``relative_density``, through which its reference counts.
The balanced checker decides conditions (i) and (iii) on one X-cell layout,
and every pair bound, (ii) and (iii) of the checker, the standalone
agreement bound and core item 2, goes through one pair sweep with no pair
list or per-cell mask; only ``_kernels`` and the oracles count bits.
Only the seeded builders and the named refuter draw random numbers.  A
parent quotient is expanded to the next level by the one split that derives
the members of a build and of a load, and by the structural recount only,
which is also the one check of an inductive family's chain.  No guard
under ``src/`` is an ``assert`` statement, which ``python -O`` strips.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src" / "deltareg"
ORACLES = {("regularity", "naive_all_sizes_oracle"), ("core", "reverify_certificate")}
ROOT_HELPER = ("core", "_iroot_floor")


class _Scan(ast.NodeVisitor):
    """Every call, every bare name read and every ``(x + 63) // 64`` of a
    module, with the qualified name of the function around it ("" at module
    level)."""

    def __init__(self):
        self.scope, self.calls, self.word_counts, self.defs, self.numpy_calls = [], [], [], [], set()
        self.digit_bytes, self.refs = [], []

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

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.append((".".join(self.scope), node.id, node.lineno))

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


def _without_annotations(tree):
    """The tree with every annotation dropped: a name that only annotates
    a type is not a use of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return tree


def _scans():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        scan = _Scan()
        scan.visit(_without_annotations(ast.parse(path.read_text(), filename=str(path))))
        out[path.stem] = scan
    return out


SCANS = _scans()
# (module, name) of every module-level function and class
TOP = {(mod, name) for mod, scan in SCANS.items() for name, qualified in scan.defs if name == qualified}


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
    assert offenders == [], "read and write decimal text through deltareg.graphs (_digit_runs, _write_tokens)"
    assert SCANS["graphs"].digit_bytes, "the scan sees digit-byte arithmetic"
    owners = {mod for mod, scan in SCANS.items() for name, _ in scan.defs if name in ("_digit_runs", "_write_tokens")}
    assert owners == {"graphs"}


def test_both_kgraph_readers_share_one_body_decoder():
    """The text and binary k-graph formats have one body, the packed row:
    both readers decode it through ``_kgraph_from_row``, which unpacks it,
    and the text reader reaches no decimal reader.  The only digit-byte
    arithmetic of the package is in ``_digit_runs`` and ``_write_tokens``."""
    text, binary = _reach([("graphs", "kgraph_from_text")], set()), _reach([("graphs", "kgraph_from_binary")], set())
    assert {"_kgraph_from_row", "unpack_row", "from_codes"} <= text & binary
    where = {where for where, _ in SCANS["graphs"].digit_bytes}
    assert where <= {"_digit_runs", "_write_tokens"}, f"digit-byte arithmetic in graphs.{sorted(where)}"
    readers = {"_digit_runs", "_write_tokens"} & text
    assert readers == set(), f"kgraph_from_text reaches {sorted(readers)}"


# the certificate re-check and the path that writes certificates
RECHECK = ("core", "reverify_certificate")
REFUTER = [("core", "refute_partition"), ("core", "_level_witnesses")]
RECHECK_MAY_SHARE = {"graph_hash", "dyadic_root_ceil", "VertexPartition"}


def _uses():
    """Where each function, method or class is defined, by name, and the
    names of these that each scope calls or names."""
    defined, uses = {}, {}
    for mod, scan in SCANS.items():
        for name, qualified in scan.defs:
            defined.setdefault(name, []).append((mod, qualified))
    top = {name for _, name in TOP}
    for mod, scan in SCANS.items():
        uses[mod] = {}
        for where, name, _ in set(scan.calls) - scan.numpy_calls:
            if name in defined:
                uses[mod].setdefault(where, set()).add(name)
        for where, name, _ in scan.refs:
            if name in top:
                uses[mod].setdefault(where, set()).add(name)
    return defined, uses


DEFINED, USES = _uses()


def _reach(roots, shared=RECHECK_MAY_SHARE) -> set:
    """Names of the package's functions, methods and classes that the roots
    call, directly or through one another (matched by name, so a method
    stands for every method of that name), or name bare where a module
    defines that name at top level (``map(CertEntry, ...)``, a table of
    suites).  The allowed shared names are not followed."""
    seen, todo = set(), list(roots)
    while todo:
        mod, fn = todo.pop()
        for where, names in USES[mod].items():
            if where == fn or where.startswith(fn + "."):
                for name in names - seen:
                    seen.add(name)
                    if name not in shared:
                        todo += DEFINED[name]
    return seen


def test_the_recheck_shares_no_code_with_the_refuter():
    recheck, refuter = _reach([RECHECK]), _reach(REFUTER)
    assert {"graph_hash", "VertexPartition"} <= recheck and "_level_witnesses" in _reach([("core", "refute_partition")])
    assert "unpack_rows" in refuter and "member_graph" in refuter  # the scan sees through the refuter
    # the refuter's host and beta-inside decisions, R* included, go through one primitive
    assert {"cell_hosts", "ceil_share", "refines_beta", "_rstar_mask"} <= refuter
    shared = (recheck & refuter) - RECHECK_MAY_SHARE
    assert shared == set(), f"reverify_certificate reaches {sorted(shared)}, which the refuter reaches too"


def test_the_certificate_suite_derives_the_member_from_the_core_artifact():
    """``verify --suite certificate`` re-checks against the member it
    derives from the hashed Gammas; it reads no stored graph container."""
    assert "load_core_sequence" in _reach([("cli", "_suite_certificate")], set())
    direct = {name for where, name, _ in SCANS["cli"].calls if where == "_suite_certificate"}
    assert "member_graph" in direct and "bipartite_from_binary" not in direct


# the brute-force oracle and the exact pair checker it is the reference for
ORACLE = ("regularity", "naive_all_sizes_oracle")
CHECKER = ("regularity", "is_delta_regular_pair")
ORACLE_MAY_SHARE = {"PairVerdict", "DeltaWitness"}


def test_the_oracle_shares_no_code_with_the_exact_checker():
    oracle, checker = _reach([ORACLE], ORACLE_MAY_SHARE), _reach([CHECKER], ORACLE_MAY_SHARE)
    assert {"subset_min_edges", "DeltaWitness"} <= checker and "PairVerdict" in oracle  # the scan sees through both
    shared = (oracle & checker) - ORACLE_MAY_SHARE
    assert shared == set(), f"naive_all_sizes_oracle reaches {sorted(shared)}, which is_delta_regular_pair reaches too"


def test_the_polyad_engine_counts_without_clique_sets():
    """The keep-mask engine lists its cliques itself, once per polyad, in
    the table that _polyad_density builds and _first_deviation searches:
    its tests' brute-force reference counts through clique_set and
    relative_density, which the engine must not reach."""
    engine = _reach([("epsreg", "_polyad_density"), ("epsreg", "_first_deviation")], set())
    assert "_clique_table" in engine  # the scan sees through the engine
    assert not {"clique_set", "relative_density"} & engine


def test_the_balanced_checker_has_one_x_cell_layout():
    """Conditions (i) and (iii) are decided on the spec's one X-cell layout,
    and (ii) on one row per X-vertex over each member, (iii) and (ii)
    through the one pair sweep: no per-cell masked degrees, no pair list
    and no pair chunks, so no fork on X-cell alignment."""
    checker = _reach([("balanced", "verify_balanced")], set())
    assert {"cell_rows", "and_popcount_over", "_agreement_violation", "_codegree_violation"} <= checker  # the scan sees through the checker
    forks = {"and_popcount_pairs", "and_popcount_pairs_segmented", "masked_degrees", "pair_chunks"} & checker
    assert forks == set(), f"verify_balanced reaches {sorted(forks)}"


def test_every_pair_bound_goes_through_one_kernel():
    """Conditions (ii) and (iii), the standalone agreement bound and core
    item 2 each decide through the one pair sweep, and only the kernels and
    the two oracles call np.bitwise_count."""
    for root in [("balanced", "is_beta_balanced"), ("core", "verify_core_properties")]:
        reached = _reach([root], set())
        assert "and_popcount_over" in reached, f"{root} does not reach the pair sweep"
        forks = {"and_popcount_pairs", "and_popcount_pairs_segmented", "pair_chunks"} & reached
        assert forks == set(), f"{root} reaches {sorted(forks)}"
    offenders = [
        f"{mod}.py:{line} in {where or '<module>'}"
        for mod, scan in SCANS.items()
        for where, name, line in scan.calls
        if name == "bitwise_count" and mod != "_kernels" and (mod, where) not in ORACLES
    ]
    assert offenders == [], "count bits through deltareg._kernels"
    assert any(name == "bitwise_count" for _, name, _ in SCANS["_kernels"].calls)  # the scan sees the calls


# the seeded builders and the named refuter: the only code that draws
DRAWS = {
    ("balanced", "sample_balanced"), ("balanced", "_exact_halves"),
    ("counterexample", "build_triangle_free"), ("counterexample", "_sample_tripartite"),
    ("regularity", "find_delta_witness"),
}
# numpy Generator methods, each a draw (or the stream itself)
GENERATOR_METHODS = {name for name in dir(np.random.Generator) if not name.startswith("_")}


def _draws() -> list:
    """(module, top-level function or "" at module level, line) of every
    use of ``np.random`` and every call of a Generator method by name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for top in _without_annotations(ast.parse(path.read_text(), filename=str(path))).body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
            for node in ast.walk(top):
                np_random = isinstance(node, ast.Attribute) and node.attr == "random" and getattr(node.value, "id", None) == "np"
                method = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in GENERATOR_METHODS
                if np_random or method:
                    out.append((path.stem, where, node.lineno))
    return out


def test_only_the_builders_and_the_refuter_draw():
    """A verdict is decided or refused, never sampled: nothing but the
    seeded builders and find_delta_witness, whose witnesses are recounted,
    draws a random number."""
    draws = _draws()
    offenders = [f"{mod}.py:{line} in {where or '<module>'}" for mod, where, line in draws if (mod, where) not in DRAWS]
    assert offenders == [], f"random draws outside the builders and the refuter: {offenders}"
    assert {(mod, where) for mod, where, _ in draws} == DRAWS  # the scan sees every allowed draw


def test_only_the_split_and_the_structural_recount_expand_a_quotient():
    """Build and load derive every member through ``_split_by_gamma``;
    ``verify_structure`` recounts that split apart from it."""
    callers = {(mod, where) for mod, scan in SCANS.items() for where, name, _ in scan.calls if name == "_expand_quotient"}
    assert callers == {("core", "_split_by_gamma"), ("core", "verify_structure")}
    split = {(mod, where) for mod, scan in SCANS.items() for where, name, _ in scan.calls if name == "_split_by_gamma"}
    assert split == {("core", "build_core_sequence"), ("core", "load_core_sequence")}


def test_the_family_check_is_the_structural_recount():
    """An inductive family's chain is decided by ``core.verify_structure``
    on its quotients; the family check recounts no member graph, vertex or
    lifted, beside it."""
    reached = _reach([("hypergraphs", "verify_family")], set())
    assert "verify_structure" in reached
    recounts = {"member_graph", "h_member"} & reached
    assert recounts == set(), f"verify_family reaches {sorted(recounts)}"


def test_no_guard_is_an_assert_statement():
    """``python -O`` strips assert statements, so a guard under src/ that
    must hold raises AssertionError explicitly."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == [], f"assert statements under src/: {offenders}"


def test_no_verdict_reads_unknown():
    """A decider returns a verdict or refuses; none reports "unknown"."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and node.value == "unknown"
    ]
    assert offenders == [], f"string constants equal to 'unknown': {offenders}"


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


# what the README flows, the benchmark and the named oracles leave unreached,
# each kept for an acceptance criterion or a ROADMAP direction
KEPT = {
    ("schedules", "ackermann"): "criterion 1",
    ("balanced", "check_one_six"): "criterion 5c",
    ("core", "find_irregularity_witnesses"): "criterion 6",
    ("core", "one_twelve_context"): "criterion 6",
    ("epsreg", "complete_complex"): "criterion 10",
    ("epsreg", "dense_counting_check"): "criterion 10",
    ("epsreg", "is_eps_regular_partition"): "criterion 10",
    ("partitions", "complete_kpartition"): "criterion 10",
    ("hypergraphs", "beta_star_analysis"): "direction 5: the class and window where a partition stops refining the chain",
    ("epsreg", "reduction_check"): "direction 5: polyad regularity against pair regularity on the axis views",
    ("hypergraphs", "verify_onesided_property"): "direction 5: the paper's one-sided lemma, which it documents against",
    ("graphs", "codegree"): "the reference codegree the unit tests compare against",
    ("regularity", "find_delta_witness"): "direction 2: a sound refuter where the exact scan passes the cap",
    ("counterexample", "convex_decompose"): "criterion 9: the exact recombination behind the blowup's bilinear identity",
}
# the library calls of the exact-pairs workload, besides the CLI
BENCHMARK_CALLS = [
    ("regularity", "is_delta_regular_pair"),
    ("regularity", "is_eps_regular_graph"),
    ("regularity", "partition_edit_interval"),
    ("counterexample", "build_triangle_free"),
    ("counterexample", "verify_counterexample"),
    ("partitions", "VertexPartition"),
]


def _roots() -> list:
    hooks = [tuple(target.split(".", 1)) for target in _hook_targets()]
    return [("cli", "main")] + hooks + BENCHMARK_CALLS + sorted(ORACLES) + list(KEPT)


def _reached(roots) -> set:
    """The roots' own top-level names and every name they reach."""
    return _reach(roots, shared=set()) | {fn.split(".")[0] for _, fn in roots}


def test_every_module_level_function_is_reached_or_kept():
    """A function or class that no README flow, benchmark step, named
    oracle or kept entry reaches is dead code: delete it, or call it."""
    reached = _reached(_roots())
    # the scan sees through the CLI's parser and suite tables
    assert {"cmd_certify", "cmd_verify", "_suite_hypergraph"} <= reached
    unreached = sorted(f"{mod}.{name}" for mod, name in TOP if name not in reached)
    assert unreached == [], f"{unreached} run in no flow and are not kept"


def test_every_kept_entry_exists_and_is_reached_by_nothing_else():
    """Once something else reaches a kept entry, it leaves the list."""
    assert set(KEPT) <= TOP, f"{sorted(set(KEPT) - TOP)} are kept but gone"
    by_others = _reached([r for r in _roots() if r not in KEPT])
    for entry in KEPT:
        by_others |= _reach([entry], shared=set()) - {entry[1]}
    redundant = [f"{mod}.{name}" for mod, name in KEPT if name in by_others]
    assert redundant == [], f"{redundant} are reached without being kept"


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert unused == [], f"unused imports: {unused}"


# defaulted parameters that no call sets, each kept with its reason
OPTIONS_KEPT = {}
CALLER_DIRS = [SRC, SRC.parent.parent / "tests", SRC.parent.parent / "perfbench"]


def _defaulted(fn, method: bool) -> list:
    """(name, position) of each parameter of fn that has a default, the
    position as a call counts it (``self`` and ``cls`` bound), or None
    for a keyword-only parameter."""
    a = fn.args
    pos = a.posonlyargs + a.args
    bound = int(method and bool(pos) and pos[0].arg in ("self", "cls"))
    first = len(pos) - len(a.defaults)
    out = [(arg.arg, i - bound) for i, arg in enumerate(pos) if i >= first]
    return out + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _options() -> dict:
    """(module, qualified name, parameter) -> (called name, position) for
    every defaulted parameter of a module-level function or of a method of
    a module-level class; a class is called by its own name for __init__."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [(node, node.name, node.name, False)]
            elif isinstance(node, ast.ClassDef):
                members = [
                    (f, f"{node.name}.{f.name}", node.name if f.name == "__init__" else f.name,
                     not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list))
                    for f in node.body if isinstance(f, ast.FunctionDef)
                ]
            else:
                continue
            for fn, qualified, called, method in members:
                for param, position in _defaulted(fn, method):
                    out[(path.stem, qualified, param)] = (called, position)
    return out


class _Calls(ast.NodeVisitor):
    """Each call by the name it calls, with the function around it."""

    def __init__(self):
        self.scope, self.calls = [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        self.calls.append((name, node, self.scope[-1]))
        self.generic_visit(node)


def _setters() -> dict:
    """Called name -> what its calls set: positions (a ``*args`` sets every
    position from its own on) and keywords.  A ``**kw`` that forwards the
    enclosing function's own ``**kw`` sets the keywords that calls of that
    function pass; any other ``**`` mapping may set every keyword."""
    scan = _Calls()
    for d in CALLER_DIRS:
        for path in sorted(d.glob("*.py")):
            scan.visit(ast.parse(path.read_text(), filename=str(path)))
    keywords = {}
    for name, call, _ in scan.calls:
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords if k.arg)
    setters = {}
    for name, call, around in scan.calls:
        starred = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)]
        positions = range(starred[0], 1 << 30) if starred else range(len(call.args))
        names = {k.arg for k in call.keywords if k.arg}
        for k in call.keywords:
            if k.arg is None:
                forwards = around is not None and around.args.kwarg and getattr(k.value, "id", None) == around.args.kwarg.arg
                names |= keywords.get(around.name, set()) if forwards else {"*"}
        setters.setdefault(name, []).append((positions, names))
    return setters


def test_every_option_is_set_by_some_caller():
    """A default that no call in src/, tests/ or perfbench/ overrides is a
    constant: write it as one, or keep it in OPTIONS_KEPT with a reason."""
    setters = _setters()
    unset = sorted(
        f"{mod}.{qualified}({param})"
        for (mod, qualified, param), (called, position) in _options().items()
        if (mod, qualified, param) not in OPTIONS_KEPT
        and not any(position in positions or param in names or "*" in names for positions, names in setters.get(called, []))
    )
    assert unset == [], f"{unset} are set by no call"
    assert set(OPTIONS_KEPT) <= set(_options()), "OPTIONS_KEPT names a parameter that is gone"
