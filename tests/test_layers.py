"""Layer rules of the package, checked on its source with ``ast``.

``deltareg._kernels`` owns the packed-row format: no other module packs or
unpacks bits with numpy or counts the words of a row itself.  The two
independent oracles are the exception, since an oracle must share no code
with the path it checks.  ``math.isqrt`` is called by the one exact
integer-root helper only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltareg"
ORACLES = {("regularity", "naive_all_sizes_oracle"), ("core", "reverify_certificate")}
ROOT_HELPER = ("core", "_iroot_floor")


class _Scan(ast.NodeVisitor):
    """Every call and every ``(x + 63) // 64`` of a module, with the
    qualified name of the function around it ("" at module level)."""

    def __init__(self):
        self.scope, self.calls, self.word_counts = [], [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        self.calls.append((".".join(self.scope), name, node.lineno))
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
