import copy
import hashlib
import json
import re
import shutil
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from deltareg.cli import main
from deltareg.graphs import kgraph_from_text
from test_graphs import _reference_kgraph_text

PROFILE = {
    "s": 2,
    "r_sizes": [8, 32],
    "l_sizes": [16, 256],
    "blowup_left": 2,
    "blowup_right": 2,
    "alpha": "3/4",
    "beta": "1/2",
}

CX_PARAMS = {"delta": "1/2", "q": "1/10", "k": 24, "m": 2}


@pytest.fixture(scope="module")
def core_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    profile = d / "profile.json"
    profile.write_text(json.dumps(PROFILE))
    out = d / "core"
    assert main(["build-core", "--profile", str(profile), "--seed", "3", "--out", str(out)]) == 0
    return d, out


def test_build_core_and_suites(core_artifact, capsys):
    _, out = core_artifact
    assert main(["verify", "--artifact", str(out), "--suite", "core-structural"]) == 0
    assert main(["verify", "--artifact", str(out), "--suite", "core-properties"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text and "FAIL" not in text


def test_build_core_determinism(core_artifact, tmp_path):
    d, out = core_artifact
    out2 = tmp_path / "core2"
    assert main(["build-core", "--profile", str(d / "profile.json"), "--seed", "3", "--out", str(out2)]) == 0
    m1 = json.loads((out / "run-manifest.json").read_text())
    m2 = json.loads((out2 / "run-manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]


def test_malformed_profile_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"s\": 1}")
    assert main(["build-core", "--profile", str(bad), "--seed", "0", "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["build-core", "--profile", str(missing), "--seed", "0", "--out", str(tmp_path / "y")]) == 2


def test_unknown_suite_usage_error(core_artifact):
    _, out = core_artifact
    assert main(["verify", "--artifact", str(out), "--suite", "nope"]) == 2


def test_planted_corruption_fails_with_located_claim(core_artifact, tmp_path, capsys):
    """One bit of the Gamma that splits member 1 of level 1, flipped where
    that parent's expanded quotient has an edge, with the manifest rehashed:
    the loader splits the parent by the flipped Gamma, so one child gains a
    cluster block and the other loses it.  The density claim fails naming
    both children; the split itself still holds."""
    from deltareg import core as C
    from deltareg.graphs import BipartiteGraph, bipartite_from_binary, bipartite_to_binary

    _, out = core_artifact
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    seq = C.load_core_sequence(str(broken))
    support = seq.members[2][2].quotient.rows | seq.members[2][3].quotient.rows  # the parent, expanded
    row, col = (int(x) for x in np.argwhere(C._kernels.unpack_rows(support, PROFILE["r_sizes"][1]))[0])
    path = broken / "gamma-2-1.bin"
    gamma = bipartite_from_binary(path.read_bytes())
    rows = gamma.rows.copy()
    rows[row, col >> 6] ^= np.uint64(1) << np.uint64(col & 63)
    blob = bipartite_to_binary(BipartiteGraph(gamma.left, gamma.right, rows))
    path.write_bytes(blob)
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["gamma_hashes"]["2/1"] = hashlib.sha256(blob).hexdigest()
    (broken / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["verify", "--artifact", str(broken), "--suite", "core-structural"])
    text = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] density-dyadic" in text and "[PASS] chain-two-child-split" in text
    assert "[FAIL] failures: [('density', 2, 2), ('density', 2, 3)]" in text


def test_certify_flow_and_tamper(core_artifact, capsys):
    from deltareg import core as C

    d, out = core_artifact
    seq = C.load_core_sequence(str(out))
    (d / "P.part").write_text(seq.left_parts(1).to_text())
    (d / "Q.part").write_text(seq.right_parts(2).to_text())
    cert = out / "certificate.txt"
    rc = main([
        "certify", "--artifact", str(out),
        "--left-partition", str(d / "P.part"), "--right-partition", str(d / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(cert),
    ])
    assert rc == 0
    assert main(["verify", "--artifact", str(out), "--suite", "certificate"]) == 0
    # precondition violation: left partition already refines level 2
    (d / "P2.part").write_text(seq.left_parts(2).to_text())
    rc2 = main([
        "certify", "--artifact", str(out),
        "--left-partition", str(d / "P2.part"), "--right-partition", str(d / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2",
        "--gamma", "1/4", "--out-cert", str(out / "nope.txt"),
    ])
    assert rc2 == 2
    # tampered certificate fails re-verification
    text = cert.read_text()
    tampered = re.sub(r"\ntotal ([0-9/]+)\n", lambda m: f"\ntotal {Fraction(m.group(1)) + 1}\n", text)
    assert tampered != text
    cert.write_text(tampered)
    assert main(["verify", "--artifact", str(out), "--suite", "certificate"]) == 1
    capsys.readouterr()


def test_hypergraph_flow(tmp_path, capsys):
    out = tmp_path / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "7", "--blowup", "4", "--out", str(out)]) == 0
    assert main(["verify", "--artifact", str(out), "--suite", "hypergraph"]) == 0
    assert main(["build-hypergraph", "--k", "1", "--s", "2", "--seed", "0", "--out", str(tmp_path / "zz")]) == 2
    capsys.readouterr()


# SHA-256 of the files of build-hypergraph --k 3 --s 2 --blowup 4: instance.json
# as it was when the windows were still text files, merged.kgraph in the v2
# format (its packed row in hex), and each window-x.bin at seed 9
HYPERGRAPH_SHA256 = {
    9: {
        "merged.kgraph": "090417fcbe67d961e942a26ba308dcd3f36acd84f0303fbdc40a5c793ce224a8",
        "instance.json": "0bdceb0289da33eb4b514171c9f286418f6c604c52e56cb5d5dde4d64cfd2e90",
        "window-0.bin": "8648c61ab3a37d545ba06aa35a553952cdf49613d95bcf30adc297971620cc40",
        "window-1.bin": "1ce5e3b76bc26da7d8e474934d8c246f2a3df61d6cb9e51e533801dabaffc5db",
        "window-2.bin": "ae36fb0bd7dc8bc03eebaddd2c780f8836bda2f666d9e904d91ff5407e060584",
        "window-3.bin": "9b525b7ea627f4530e72b69d53d96b414fc245d7bfd5c03186d5407f6a754f33",
        "window-4.bin": "7831b24c0f0d12462f139d86ebdbcbcd5cd82d9fd3078621b870716e88225ee9",
        "window-5.bin": "9b0882c1829c60fa8a751c944ed10e78deb7ba102e69378b2d5a7bc02a792493",
    },
    7: {
        "merged.kgraph": "5f4f914bf1170538c0b71e0744ba5810d308693cdc7e69f739691a8d6ffc1385",
        "instance.json": "3b008dbb46ad0436c5b75ffa645036d428d7659de44fe9f1d38a37c2b48b32d2",
    },
}
# SHA-256 of the v1 text (one decimal line per edge) of the merged graph: the
# pins of merged.kgraph before its body was the packed row
MERGED_V1_SHA256 = {
    9: "a478ee9b329a9083a7ed89356b4e28070a4e247c52ac7db58f4bf981be84237f",
    7: "dde494c1110ed02b1127fbe15e1d6718f3794ddc312c391e9a6bbf780d3bb3fd",
}


@pytest.mark.parametrize("seed", sorted(HYPERGRAPH_SHA256))
def test_hypergraph_bytes_and_claims_are_pinned(tmp_path, capsys, seed):
    out = tmp_path / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", str(seed), "--blowup", "4", "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in HYPERGRAPH_SHA256[seed]} == HYPERGRAPH_SHA256[seed]
    merged = kgraph_from_text((out / "merged.kgraph").read_text())
    assert hashlib.sha256(_reference_kgraph_text(merged).encode()).hexdigest() == MERGED_V1_SHA256[seed]
    capsys.readouterr()
    assert main(["verify", "--artifact", str(out), "--suite", "hypergraph"]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "[PASS] merged-density", "[PASS] window-densities", "[PASS] edge-disjoint-union", "[PASS] replay-identical",
        "[PASS] family-invariants", "suite PASS",
    ]


def test_build_hypergraph_schedule_errors_exit_2(tmp_path, capsys):
    # the standing k=3 table has no A_4 entry
    assert main(["build-hypergraph", "--k", "4", "--s", "2", "--seed", "0", "--out", str(tmp_path / "k4")]) == 2
    assert "error: bad schedule" in capsys.readouterr().err
    # at s=3 the chain's level-2 left count 8 is not 2^(4/e) for any integer e
    sched = tmp_path / "s3.json"
    sched.write_text(json.dumps({"t_values": [2, 4, 8, 16], "a_maps": {"3": [1, 2, 3]}, "a_star_maps": {"3": [1, 2, 3]}}))
    argv = ["build-hypergraph", "--k", "3", "--s", "3", "--schedule", str(sched), "--seed", "0", "--out", str(tmp_path / "s3")]
    assert main(argv) == 2
    assert "error: bad schedule" in capsys.readouterr().err


# each a field of the standing k = 3 desk schedule set to a value that is
# not of its JSON type, or a uniformity key that is not a canonical decimal
SCHEDULE_TAMPERS = [
    ("t_values", "24"), ("t_values", [2.9, 4, 16]), ("t_values", [True, 4, 16]), ("t_values", [0, 4, 16]),
    ("a_maps", {"3": [1.5, 2]}), ("a_maps", {"03": [1, 2]}), ("a_maps", [[1, 2]]), ("a_star_maps", {"3": "12"}),
    ("a_star_maps", {" 3": [1, 2]}), ("delta_overrides", {"3": 0.5}), ("delta_overrides", {"+3": "1/2"}),
    ("violations", "t-base"), ("violations", [1]),
]


@pytest.mark.parametrize("key, value", SCHEDULE_TAMPERS)
def test_a_schedule_value_of_the_wrong_json_type_exits_2(hypergraph_artifact, tmp_path, capsys, key, value):
    """A schedule is read by JSON type, never coerced: a --schedule file or
    the schedule in instance.json with a string, float or bool where
    integers belong, a non-canonical uniformity key, or violations that are
    not a list of strings is a usage error (exit 2 with an error line), so a
    tampered instance cannot replay to a suite PASS."""
    from deltareg.schedules import desk_schedule_k3

    tampered = {**desk_schedule_k3().to_json(), key: value}
    (tmp_path / "schedule.json").write_text(json.dumps(tampered))
    argv = ["build-hypergraph", "--k", "3", "--s", "2", "--schedule", str(tmp_path / "schedule.json"), "--seed", "0"]
    argv += ["--out", str(tmp_path / "built")]
    capsys.readouterr()
    assert main(argv) == 2
    assert "error: bad schedule" in capsys.readouterr().err
    assert not (tmp_path / "built").exists()
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    meta = json.loads((d / "instance.json").read_text())
    (d / "instance.json").write_text(json.dumps({**meta, "schedule": tampered}))
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)


@pytest.fixture(scope="module")
def hypergraph_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("hg") / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "3", "--blowup", "1", "--out", str(out)]) == 0
    return out


def _merged_body(d):
    """(header lines, body line) of merged.kgraph."""
    head, body, _ = (d / "merged.kgraph").read_text().rsplit("\n", 2)
    return head, body


def _append_line(d):
    with open(d / "merged.kgraph", "a") as f:
        f.write("00\n")
    return 2, "merged.kgraph: body line of"


def _flip_merged_bit(d):
    """Another graph with as many edges: one edge moved by one code."""
    head, body = _merged_body(d)
    row = bytearray.fromhex(body)
    at = next(i for i in range(8 * len(row) - 1) if row[i // 8] >> i % 8 & 1 and not row[(i + 1) // 8] >> (i + 1) % 8 & 1)
    row[at // 8] ^= 1 << at % 8
    row[(at + 1) // 8] ^= 1 << (at + 1) % 8
    (d / "merged.kgraph").write_text(f"{head}\n{row.hex()}\n")
    return 1, "[FAIL] replay-identical: rebuild from the manifest seed differs in merged.kgraph"


def _uppercase_body(d):
    head, body = _merged_body(d)
    (d / "merged.kgraph").write_text(f"{head}\n{body.upper()}\n")
    return 2, "merged.kgraph: body is not lowercase hex"


def _short_body(d):
    head, body = _merged_body(d)
    (d / "merged.kgraph").write_text(f"{head}\n{body[:-2]}\n")
    return 2, "merged.kgraph: body line of"


def _edit_edge_count(d):
    text = (d / "merged.kgraph").read_text()
    m = int(re.search(r"^edges (\d+)$", text, re.M).group(1))
    (d / "merged.kgraph").write_text(text.replace(f"edges {m}\n", f"edges {m - 1}\n"))
    return 2, f"merged.kgraph: body holds {m} edges, header says {m - 1}"


MERGED_TAMPERS = [_append_line, _flip_merged_bit, _uppercase_body, _short_body, _edit_edge_count]


# window-x.bin: magic, version, k, the three class sizes and the byte length
# of the class names, then the names and one packed row of the edge codes
WINDOW_HEAD = struct.Struct("<4sHI3QI")


def _read_window(d, x):
    """([magic, version, k, sizes...], names block, body) of window-x.bin."""
    data = (d / f"window-{x}.bin").read_bytes()
    *head, nlen = WINDOW_HEAD.unpack_from(data)
    return head, data[WINDOW_HEAD.size : WINDOW_HEAD.size + nlen], bytearray(data[WINDOW_HEAD.size + nlen :])


def _write_window(d, x, head, names, body):
    (d / f"window-{x}.bin").write_bytes(WINDOW_HEAD.pack(*head, len(names)) + names + bytes(body))


def _swap_windows(d):
    a, b = (d / "window-0.bin").read_bytes(), (d / "window-1.bin").read_bytes()
    (d / "window-0.bin").write_bytes(b)
    (d / "window-1.bin").write_bytes(a)
    return 1, "[FAIL] replay-identical: rebuild from the manifest seed differs in window-0.bin, window-1.bin"


def _edit_window(x, edit, expect):
    """A tamper that edits the fields of window-x.bin in place."""

    def tamper(d):
        head, names, body = _read_window(d, x)
        names, body = edit(head, names, body)
        _write_window(d, x, head, names, body)
        return expect

    tamper.__name__ = edit.__name__
    return tamper


def _flip_body_bit(head, names, body):
    body[0] ^= 1
    return names, body


def _truncate_body(head, names, body):
    return names, body[:-8]


def _trailing_byte(head, names, body):
    return names, body + b"\0"


def _stray_bit(head, names, body):
    """Sizes 17 x 15 x 16 (4080 bits) keep the 64 words of the 16 x 16 x 16
    window, so the top bit lies past N but inside the body."""
    assert head[3:] == [16, 16, 16]
    head[3:] = [17, 15, 16]
    body[-1] |= 0x80
    return names, body


def _rename_class(head, names, body):
    """The same edges and class sizes, but ``KPartiteKGraph.__eq__``
    compares class names too, so the replay names the window."""
    return b"Z" + names[1:], body


def _sizes_past_2_63(head, names, body):
    head[3:] = [3000000] * 3
    return names, body


def _bad_magic(head, names, body):
    head[0] = b"DRBG"
    return names, body


WINDOW_TAMPERS = [
    _swap_windows,
    _edit_window(2, _flip_body_bit, (1, "[FAIL] replay-identical: rebuild from the manifest seed differs in window-2.bin")),
    _edit_window(3, _truncate_body, (2, "body of 504 bytes, 512 expected for 4096 bits")),
    _edit_window(1, _trailing_byte, (2, "body of 513 bytes, 512 expected for 4096 bits")),
    _edit_window(5, _stray_bit, (2, "stray bits at or past bit 4080")),
    _edit_window(4, _rename_class, (1, "[FAIL] replay-identical: rebuild from the manifest seed differs in window-4.bin")),
    _edit_window(0, _sizes_past_2_63, (2, "2^63")),
    _edit_window(2, _bad_magic, (2, "not a v1 k-graph container")),
]


@pytest.mark.parametrize("tamper", [*MERGED_TAMPERS, *WINDOW_TAMPERS])
def test_hypergraph_tamper_never_passes(hypergraph_artifact, tmp_path, capsys, tamper):
    """Every tamper fails; where a tamper names its exit code and a line of
    the report, those are checked too."""
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 0
    assert "suite PASS" in capsys.readouterr().out
    expect = tamper(d)
    rc = main(["verify", "--artifact", str(d), "--suite", "hypergraph"])
    out, err = capsys.readouterr()
    assert rc in (1, 2) and "suite PASS" not in out
    if expect is not None:
        code, says = expect
        assert rc == code and says in (out if code == 1 else err)


def _copied_subtrees(inst):
    """Family 3 with each chain level's second half a copy of its first:
    only its level-1 split fails."""
    from deltareg.core import CoreMember

    fam = copy.copy(inst.families[3])
    fam.core_seq = seq = copy.copy(fam.core_seq)
    seq.members = [list(level) for level in seq.members]
    for j in range(1, fam.s + 1):
        half = 1 << (j - 1)
        for idx in range(half):
            seq.members[j][idx + half] = CoreMember(j, idx + half, seq.members[j][idx].quotient)
    seq._materialized = {}
    inst.families[3] = fam


def _another_pick(inst):
    """Window 4 recorded as the lift of its family's other level-2 member
    under the same parent."""
    inst.picked[4] ^= 1


@pytest.mark.parametrize("tamper, says", [
    (_copied_subtrees, "family of window-3.bin fails ('chain', 1, 0)"),
    (_another_pick, "window-4.bin is not the axis-3 lift of its family's level-2 member"),
])
def test_a_rebuild_with_a_bad_family_fails_family_invariants(hypergraph_artifact, monkeypatch, capsys, tamper, says):
    """Every window's family is checked, not only family 0, and every window
    is bound to its family's picked member: a rebuild whose graphs are
    unchanged but whose family 3 has copied subtrees, or whose window 4
    names another member, replays identically and fails family-invariants
    naming the window."""
    from deltareg import hypergraphs

    build = hypergraphs.build_pasted_instance

    def tampered(*args, **kwargs):
        inst = build(*args, **kwargs)
        tamper(inst)
        return inst

    monkeypatch.setattr(hypergraphs, "build_pasted_instance", tampered)
    capsys.readouterr()
    assert main(["verify", "--artifact", str(hypergraph_artifact), "--suite", "hypergraph"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] replay-identical" in out
    assert f"[FAIL] family-invariants: {says}" in out


def test_a_window_of_another_member_of_its_family_fails_the_binding(hypergraph_artifact, tmp_path, capsys):
    """A window file that is the lift of another depth-s member of its own
    family is not the picked member's lift."""
    from deltareg import hypergraphs
    from deltareg.graphs import kgraph_to_binary
    from deltareg.schedules import DeskSchedule

    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    meta = json.loads((d / "instance.json").read_text())
    sched = DeskSchedule.from_json(meta["schedule"])
    inst = hypergraphs.build_pasted_instance(3, 2, sched, meta["seed"], blowup=meta["blowup"])
    (d / "window-2.bin").write_bytes(kgraph_to_binary(inst.families[2].h_member(2, inst.picked[2] ^ 1)))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] family-invariants: window-2.bin is not the axis-3 lift of its family's level-2 member {inst.picked[2]}" in out


def test_hypergraph_header_beyond_int64_codes_exits_2(hypergraph_artifact, tmp_path, capsys):
    """Class sizes whose product reaches 2^63 would wrap the int64 edge
    codes; the reader refuses such a header, so the suite exits 2."""
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    text = (d / "merged.kgraph").read_text()
    (d / "merged.kgraph").write_text(re.sub(r"^class (\S+) \d+$", r"class \1 3000000", text, flags=re.M))
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    assert "2^63" in capsys.readouterr().err


def test_a_v1_merged_kgraph_exits_2_naming_the_old_format(hypergraph_artifact, tmp_path, capsys):
    """An artifact built before the hex body is refused with one error line
    that names merged.kgraph as the old format and how to rebuild it."""
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    merged = kgraph_from_text((d / "merged.kgraph").read_text())
    (d / "merged.kgraph").write_text(_reference_kgraph_text(merged))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: invalid artifact dir: merged.kgraph: kgraph v1 is the old decimal text format; rebuild the artifact with build-hypergraph"
    ]


def test_hypergraph_k_outside_the_schedule_exits_2_before_reading_a_window(hypergraph_artifact, tmp_path, capsys, monkeypatch):
    """A k the recorded schedule lacks is refused before any of the 2k
    window files is named or read, however large k is; neither k-graph
    reader is called."""
    from deltareg import cli

    def reads(*args):
        raise AssertionError("a k-graph file was read")

    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    meta = json.loads((d / "instance.json").read_text())
    (d / "instance.json").write_text(json.dumps({**meta, "k": 1000000}))
    monkeypatch.setattr(cli, "kgraph_from_text", reads)
    monkeypatch.setattr(cli, "kgraph_from_binary", reads)
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)


@pytest.mark.parametrize("s", [0, 5])
def test_hypergraph_s_outside_the_schedule_exits_2(hypergraph_artifact, tmp_path, capsys, s):
    """An s outside the recorded schedule's tables (A_3* holds s = 1 and 2)
    is a usage error naming the entry: exit 2 with an error line, never an
    IndexError, and never a wrapped read of the last entry."""
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    meta = json.loads((d / "instance.json").read_text())
    (d / "instance.json").write_text(json.dumps({**meta, "s": s}))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    assert re.search(rf"^error: .*A_3\*\({s}\) outside the desk table", capsys.readouterr().err, re.M)


def _numpy_memory_error():
    from numpy._core._exceptions import _ArrayMemoryError

    return _ArrayMemoryError((1 << 40,), np.dtype(np.uint8))


@pytest.mark.parametrize("error", [MemoryError, _numpy_memory_error], ids=["MemoryError", "numpy"])
def test_out_of_memory_exits_3(hypergraph_artifact, tmp_path, capsys, monkeypatch, error):
    """An allocation failure in a build or a suite is a resource limit (exit
    3 with one error line), not a traceback.  The failure is simulated."""
    from deltareg import hypergraphs

    def fails(*args, **kwargs):
        raise error()

    monkeypatch.setattr(hypergraphs, "build_pasted_instance", fails)
    out = tmp_path / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "3", "--blowup", "1", "--out", str(out)]) == 3
    assert not out.exists()
    assert main(["verify", "--artifact", str(hypergraph_artifact), "--suite", "hypergraph"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: out of memory") for line in err)


def test_counterexample_flow(tmp_path, capsys):
    params = tmp_path / "cx.json"
    params.write_text(json.dumps(CX_PARAMS))
    out = tmp_path / "cx"
    assert main(["counterexample", "--params", str(params), "--seed", "5", "--out", str(out)]) == 0
    assert main(["verify", "--artifact", str(out), "--suite", "counterexample"]) == 0
    # strict mode rejects an empty window
    assert main(["counterexample", "--params", str(params), "--seed", "5", "--strict", "--out", str(tmp_path / "cx2")]) == 2
    capsys.readouterr()


def test_strict_refuses_the_desk_params_and_writes_nothing(tmp_path, capsys):
    """The desk params (k 30, q 1/10, delta 1/2, m 3) lie outside the
    full-scale window, whose p <= delta^5/1000 they break: --strict exits 2
    before any file is written."""
    params = tmp_path / "desk.json"
    params.write_text(json.dumps({"delta": "1/2", "q": "1/10", "k": 30, "m": 3}))
    out = tmp_path / "cx"
    assert main(["counterexample", "--params", str(params), "--seed", "5", "--strict", "--out", str(out)]) == 2
    assert not out.exists()
    assert re.search(r"^error: bad params: edge probability too large", capsys.readouterr().err, re.M)


def test_a_params_json_with_relaxed_still_verifies(cx_artifact, tmp_path, capsys):
    """Earlier builds stored "relaxed": true in params.json; the suite reads
    such an artifact as before and passes it."""
    art = tmp_path / "cx"
    shutil.copytree(cx_artifact, art)
    meta = json.loads((art / "params.json").read_text())
    assert "relaxed" not in meta
    (art / "params.json").write_text(json.dumps({**meta, "relaxed": True}, indent=1, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(art), "--suite", "counterexample"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "suite PASS"


def test_counterexample_suite_prints_the_same_claims_under_either_mode(cx_artifact, monkeypatch, capsys):
    """--mode selects nothing: the suite claims only what it decides
    exactly, and draws no random number under either mode."""
    from deltareg import counterexample as cx_mod

    def no_draws(*args, **kwargs):
        raise AssertionError("the counterexample suite must not draw")

    monkeypatch.setattr(cx_mod.np.random, "default_rng", no_draws)
    capsys.readouterr()
    outs = []
    for mode in ("exact", "sampled"):
        assert main(["verify", "--artifact", str(cx_artifact), "--suite", "counterexample", "--mode", mode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [line.split(":")[0] for line in outs[0].splitlines()] == [
        "[PASS] pair-shapes", "[PASS] triangle-free", "[PASS] pair-density-floor", "suite PASS"
    ]


def _params_k_7(art, tmp_path):
    meta = json.loads((art / "params.json").read_text())
    (art / "params.json").write_text(json.dumps({**meta, "k": 7}, indent=1, sort_keys=True))
    return "ab is 48 x 48; ac is 48 x 48; bc is 48 x 48; params.json gives k m = 14"


def _ac_of_a_k_20_build(art, tmp_path):
    (tmp_path / "k20.json").write_text(json.dumps({**CX_PARAMS, "k": 20}))
    assert main(["counterexample", "--params", str(tmp_path / "k20.json"), "--seed", "5", "--out", str(tmp_path / "k20")]) == 0
    shutil.copy(tmp_path / "k20" / "ac.bin", art / "ac.bin")
    return "ac is 40 x 40; params.json gives k m = 48"


def _bc_of_another_width(art, tmp_path):
    from deltareg.graphs import BipartiteGraph, VertexClass, bipartite_to_binary

    (art / "bc.bin").write_bytes(bipartite_to_binary(BipartiteGraph.empty(VertexClass("B", 48), VertexClass("C", 40))))
    return "bc is 48 x 40; params.json gives k m = 48"


@pytest.mark.parametrize("tamper", [_params_k_7, _ac_of_a_k_20_build, _bc_of_another_width])
def test_counterexample_pairs_of_another_shape_fail_by_name(cx_artifact, tmp_path, capsys, tamper):
    """Each pair must be k m x k m as params.json says; a pair of another
    shape fails the pair-shapes claim, which names it, before the triangle
    count could index one pair by another's size."""
    art = tmp_path / "cx"
    shutil.copytree(cx_artifact, art)
    says = tamper(art, tmp_path)
    capsys.readouterr()
    assert main(["verify", "--artifact", str(art), "--suite", "counterexample"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"[FAIL] pair-shapes: {says}", "suite FAIL"]


def test_core_properties_suite_runs_without_numpy_ma(core_artifact):
    """The suite never imports numpy.ma (plain np.unique does, at a cost of
    12-15 ms a process in numpy 2.4)."""
    _, out = core_artifact
    code = (
        "import sys; sys.modules['numpy.ma'] = None; from deltareg.cli import main; "
        "sys.exit(main(['verify', '--artifact', sys.argv[1], '--suite', 'core-properties']))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "suite PASS"


def test_json_report_output(core_artifact, tmp_path, capsys):
    _, out = core_artifact
    jpath = tmp_path / "report.json"
    assert main(["verify", "--artifact", str(out), "--suite", "core-structural", "--json-out", str(jpath)]) == 0
    data = json.loads(jpath.read_text())
    assert data["ok"] is True
    assert all("id" in c for c in data["claims"])
    capsys.readouterr()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deltareg.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "build-core" in proc.stdout


def test_repository_profile_files(tmp_path):
    import time
    from pathlib import Path

    from deltareg import core as C

    repo = Path(__file__).resolve().parent.parent
    for name in ("core-desk.json", "core-small.json"):
        prof = C.GrowthProfile.from_json(json.loads((repo / "profiles" / name).read_text()))
        assert prof.s >= 2
    t0 = time.time()
    rc = main([
        "build-core", "--profile", str(repo / "profiles" / "core-small.json"),
        "--seed", "0", "--out", str(tmp_path / "repo-build"),
    ])
    assert rc == 0
    assert time.time() - t0 < 60


def test_malformed_certificate_exits_2(core_artifact, tmp_path, capsys):
    import shutil

    from deltareg import core as C

    d, out = core_artifact
    seq = C.load_core_sequence(str(out))
    (d / "P.part").write_text(seq.left_parts(1).to_text())
    (d / "Q.part").write_text(seq.right_parts(2).to_text())
    good = tmp_path / "good"
    shutil.copytree(out, good)
    assert main([
        "certify", "--artifact", str(good),
        "--left-partition", str(d / "P.part"), "--right-partition", str(d / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(good / "certificate.txt"),
    ]) == 0
    text = (good / "certificate.txt").read_text()
    lines = text.split("\n")
    li = next(i for i, ln in enumerate(lines) if ln.startswith("lines "))
    for name, bad in {
        "truncated": "\n".join(lines[:li]) + "\n",
        "prefix": text.replace("\nq ", "\nx ", 1),
        "right id": text.replace(lines[li], "lines 99999", 1),
    }.items():
        art = tmp_path / name
        shutil.copytree(good, art)
        (art / "certificate.txt").write_text(bad)
        assert main(["verify", "--artifact", str(art), "--suite", "certificate"]) == 2, name
    capsys.readouterr()


@pytest.fixture(scope="module")
def certified_artifact(core_artifact, tmp_path_factory):
    """A copy of the core artifact with a level-2 certificate."""
    from deltareg import core as C

    _, out = core_artifact
    d = tmp_path_factory.mktemp("certified")
    art = d / "core"
    shutil.copytree(out, art)
    seq = C.load_core_sequence(str(art))
    (d / "P.part").write_text(seq.left_parts(1).to_text())
    (d / "Q.part").write_text(seq.right_parts(2).to_text())
    assert main([
        "certify", "--artifact", str(art),
        "--left-partition", str(d / "P.part"), "--right-partition", str(d / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(art / "certificate.txt"),
    ]) == 0
    return art


def _as_v3(text):
    """The v3 layout of a v5 certificate text: the header without the
    member and with gamma-prime, host-c and budget, and each entry's lines
    as 'lines <n>' and n records 'line R=<index> corr=<count>
    value=<fraction>' (placeholder corrections and values)."""
    from deltareg import core as C

    out = []
    for ln in text.split("\n"):
        key, _, rest = ln.partition(" ")
        if key == "irregularity-certificate":
            out.append("irregularity-certificate v3")
        elif key == "member":
            continue
        elif key == "gamma":
            out += [ln, "gamma-prime 1/128", "host-c 1/512"]
        elif key == "t":
            out += [ln, "budget 1/2"]
        elif key == "lines":
            (ids,) = C._ranges_decode_many([rest])
            out += [f"lines {ids.size}", *(f"line R={r} corr=0 value=1/8" for r in ids.tolist())]
        else:
            out.append(ln)
    return "\n".join(out)


def _as_v4(text):
    """The v4 layout of a v5 certificate text of the fixture, whose Q is
    the level-2 right clusters: an 'r-level 2' block of those clusters
    after the q lines."""
    q = [ln for ln in text.split("\n") if ln.startswith("q ")]
    block = "".join(f"{ln}\n" for ln in [f"r-level 2 {len(q)}", *(f"r {ln[2:]}" for ln in q)])
    return text.replace(" v5\n", " v4\n", 1).replace("\nentries ", f"\n{block}entries ", 1)


def _first_lines(text):
    """The first 'lines' line of a certificate text and its cluster ids."""
    from deltareg import core as C

    line = next(ln for ln in text.split("\n") if ln.startswith("lines "))
    (ids,) = C._ranges_decode_many([line[6:]])
    return line, ids


LEVEL_2_CLUSTERS = PROFILE["r_sizes"][1]  # the fixture's entries are all of level 2


def _changed_index(text):
    from deltareg import core as C

    line, ids = _first_lines(text)
    moved = np.sort(np.append(ids[1:], next(c for c in range(LEVEL_2_CLUSTERS) if c not in ids)))
    return text.replace(f"\n{line}\n", f"\nlines {C._ranges_encode_many([moved])[0]}\n", 1)


def _overlapping_p(text):
    p0, p1 = [ln for ln in text.split("\n") if ln.startswith("p ")][:2]
    return text.replace(f"\n{p1}\n", f"\n{p0}\n", 1)


def _edited_level(text):
    """The certificate moved to level 1, with t and every entry's level 1
    too, so that it loads and names member 0 of level 1."""
    text = text.replace("\nlevel 2\n", "\nlevel 1\n", 1).replace("\nt 2\n", "\nt 1\n", 1)
    return re.sub(r"\nentry ([0-9]+) level 2\n", r"\nentry \1 level 1\n", text)


def _flipped_gamma_byte(art):
    blob = bytearray((art / "gamma-2-0.bin").read_bytes())
    blob[len(blob) // 2] ^= 1
    (art / "gamma-2-0.bin").write_bytes(blob)


# name: (edit of certificate.txt, or of the artifact, exit code, the claim
# that fails (exit 1) or what the error line says (exit 2))
CERTIFICATE_TAMPERS = {
    "changed cluster index": (_changed_index, 1, "[FAIL] ledger-reverify"),
    "cluster index at its level's cell count": (lambda t: t.replace(f"\n{_first_lines(t)[0]}\n", f"\nlines {LEVEL_2_CLUSTERS}\n", 1), 1, "[FAIL] ledger-reverify"),
    "cluster range forged past the cell count": (lambda t: t.replace(f"\n{_first_lines(t)[0]}\n", "\nlines 0-999999999999\n", 1), 2, "more than"),
    "overlapping P cells": (_overlapping_p, 1, "'entry-overlap'"),
    "edited total": (lambda t: re.sub(r"\ntotal ([0-9/]+)\n", lambda m: f"\ntotal {Fraction(m.group(1)) + 1}\n", t), 1, "('total', None)"),
    "edited level": (_edited_level, 1, "('graph-hash', None)"),
    "v3 file": (_as_v3, 2, "irregularity-certificate v5"),
    "v3 ledger under a v5 header": (lambda t: _as_v3(t).replace(" v3\n", " v5\n", 1), 2, "error: invalid artifact dir"),
    "v4 file with its r-level block": (_as_v4, 2, "irregularity-certificate v5"),
    "entry level past t": (lambda t: t.replace("\nentry 0 level 2\n", "\nentry 0 level 3\n", 1), 2, "outside 1..t"),
    "member set to a sibling": (lambda t: t.replace("\nmember 0\n", "\nmember 1\n", 1), 1, "('graph-hash', None)"),
    "member out of range": (lambda t: t.replace("\nmember 0\n", "\nmember 4\n", 1), 2, "not one of the chain's"),
    "t past the level": (lambda t: t.replace("\nt 2\n", "\nt 3\n", 1), 2, "not one of the chain's"),
    "one flipped Gamma byte": (_flipped_gamma_byte, 1, "[FAIL] gamma-hashes: gamma-2-0.bin"),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_TAMPERS))
def test_every_certificate_tamper_exits_1_or_2(certified_artifact, tmp_path, capsys, name):
    """Each tamper of certificate.txt, or of a Gamma it is re-checked
    against, fails the certificate suite: a well-formed certificate that
    does not re-check against the member it names exits 1 with the failing
    claim, a malformed one or one naming no member of the chain exits 2
    with an error line; none passes and none ends in a traceback."""
    edit, code, shown = CERTIFICATE_TAMPERS[name]
    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    text = (art / "certificate.txt").read_text()
    if edit is _flipped_gamma_byte:
        edit(art)
    else:
        assert edit(text) != text
        (art / "certificate.txt").write_text(edit(text))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(art), "--suite", "certificate"]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert out.splitlines()[-1] == "suite FAIL" and shown in out, out
    else:
        assert re.search(r"^error: ", err, re.M) and shown in err, err


def test_the_certificate_suite_derives_the_member_it_names(certified_artifact, capsys):
    """The suite re-checks the certificate against member (level, member)
    of the chain, derived from the Gammas, and prints one claim per step."""
    from deltareg import core as C

    cert = C.IrregularityCertificate.from_text((certified_artifact / "certificate.txt").read_text())
    g = C.load_core_sequence(str(certified_artifact)).member_graph(2, 0)
    assert (cert.ell, cert.member, cert.graph_sha256) == (2, 0, C.graph_hash(g))
    capsys.readouterr()
    assert main(["verify", "--artifact", str(certified_artifact), "--suite", "certificate"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"[PASS] ledger-reverify: {sum(len(e.lines) for e in cert.entries)} lines of member (2, 0) recomputed from the chain",
        f"[PASS] refutation-total: total {cert.total} vs budget {cert.delta * g.edge_count()}",
        "suite PASS",
    ]


def test_short_gamma_exits_2(core_artifact, tmp_path, capsys):
    """A Gamma cut short inside its header, its hash recorded in the
    manifest, is refused by the parser: exit 2, not a traceback."""
    _, out = core_artifact
    art = tmp_path / "art"
    shutil.copytree(out, art)
    blob = (art / "gamma-2-1.bin").read_bytes()[:10]
    (art / "gamma-2-1.bin").write_bytes(blob)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["gamma_hashes"]["2/1"] = hashlib.sha256(blob).hexdigest()
    (art / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--artifact", str(art), "--suite", "core-structural"]) == 2
    assert "truncated binary container" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["+0", "0x", "0" * 19])
def test_certify_refuses_a_malformed_partition_file(certified_artifact, tmp_path, capsys, bad):
    """A partition id with a '+', a trailing byte or more than 18 digits
    (even one that names a valid vertex) is a malformed file: exit 2."""
    from deltareg import core as C

    seq = C.load_core_sequence(str(certified_artifact))
    text = seq.left_parts(1).to_text()
    assert text.startswith("0 ")
    (tmp_path / "P.part").write_text(bad + text[1:])
    (tmp_path / "Q.part").write_text(seq.right_parts(2).to_text())
    capsys.readouterr()
    assert main([
        "certify", "--artifact", str(certified_artifact),
        "--left-partition", str(tmp_path / "P.part"), "--right-partition", str(tmp_path / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
    ]) == 2
    assert "bad partition file" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


def test_sampler_exhaustion_exits_1(tmp_path, capsys):
    # beta 0 asks for agreement exactly one half on every pair: two draws miss
    profile = tmp_path / "harsh.json"
    profile.write_text(json.dumps({"s": 1, "r_sizes": [8], "l_sizes": [16], "alpha": "0", "beta": "0", "max_retries": 2}))
    assert main(["build-core", "--profile", str(profile), "--seed", "0", "--out", str(tmp_path / "out")]) == 1
    assert "error: level 1, member 0: sampler retries exhausted" in capsys.readouterr().err


# at s 1 condition (iii) rejects every one of the 50 draws of the first Gamma
EXHAUSTING_SCHEDULE = {"t_values": [4, 16, 256], "a_maps": {"3": [1, 2, 2]}, "a_star_maps": {"3": [1, 2, 2]}}


def test_a_sampler_that_gives_up_in_a_hypergraph_build_exits_1(hypergraph_artifact, tmp_path, capsys):
    """build-hypergraph, and the hypergraph suite's replay of an instance.json
    edited to that schedule, exit 1 with an error line naming the level and
    the member, not a traceback."""
    (tmp_path / "schedule.json").write_text(json.dumps(EXHAUSTING_SCHEDULE))
    capsys.readouterr()
    out = tmp_path / "built"
    argv = ["build-hypergraph", "--k", "3", "--s", "1", "--blowup", "1", "--seed", "0", "--schedule", str(tmp_path / "schedule.json")]
    assert main(argv + ["--out", str(out)]) == 1
    assert "error: level 1, member 0: sampler retries exhausted; failure counts {'ii': 0, 'iii': 50}" in capsys.readouterr().err
    assert not out.exists()
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    meta = json.loads((d / "instance.json").read_text())
    (d / "instance.json").write_text(json.dumps({**meta, "s": 1, "schedule": EXHAUSTING_SCHEDULE}))
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 1
    assert re.search(r"^error: level 1, member 0: sampler retries exhausted", capsys.readouterr().err, re.M)


@pytest.mark.parametrize("tamper", ["swap", "flip"])
def test_a_tampered_gamma_fails_the_core_suites_and_certify(certified_artifact, tmp_path, capsys, tamper):
    """Two sibling Gammas swapped on disk, or one byte of a Gamma's rows
    flipped, leave well-formed files, but not the ones the manifest hashed:
    both core suites and certify exit 1 and name the file."""
    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    a, b = art / "gamma-2-0.bin", art / "gamma-2-1.bin"
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    if tamper == "swap":
        a.write_bytes(blob_b)
        b.write_bytes(blob_a)
    else:
        flipped = bytearray(blob_a)
        flipped[len(flipped) // 2] ^= 1
        a.write_bytes(flipped)
    capsys.readouterr()
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(art), "--suite", suite]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] gamma-hashes: gamma-2-0.bin does not match its hash in manifest.json" in out
        assert "suite FAIL" in out
    parts = certified_artifact.parent
    rc = main([
        "certify", "--artifact", str(art),
        "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
    ])
    assert rc == 1
    assert "gamma-2-0.bin does not match its hash" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


def test_an_artifact_of_quotient_files_exits_2(certified_artifact, tmp_path, capsys):
    """A manifest that hashes member quotients (member_hashes) and no Gamma
    is the format before the Gammas became the record of the chain: both
    core suites and certify exit 2 and ask for a rebuild."""
    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["member_hashes"] = manifest.pop("gamma_hashes")
    (art / "manifest.json").write_text(json.dumps(manifest))
    parts = certified_artifact.parent
    capsys.readouterr()
    for argv in (
        ["verify", "--artifact", str(art), "--suite", "core-structural"],
        ["verify", "--artifact", str(art), "--suite", "core-properties"],
        [
            "certify", "--artifact", str(art),
            "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
            "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
            "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
        ],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "manifest.json records no gamma_hashes" in err and "rebuild it with build-core" in err
    assert not (tmp_path / "certificate.txt").exists()


def test_a_planted_partition_file_changes_no_verdict_and_no_certificate(certified_artifact, tmp_path, capsys):
    """A left-2.part with two vertices of one level-1 cell swapped between
    their level-2 clusters, planted in the artifact with a manifest key that
    records a hash for it: the loader derives the chain from the profile and
    reads neither, so both core suites pass and certify writes the same
    certificate bytes."""
    from deltareg import core as C
    from deltareg.partitions import VertexPartition

    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    (art / "certificate.txt").unlink()
    seq = C.load_core_sequence(str(art))
    lp2 = seq.left_parts(2)
    a, b = (int(k) for k in np.flatnonzero(seq.lparent[1] == 0)[:2])
    cells = [c.copy() for c in lp2.cells]
    cells[a][0], cells[b][0] = cells[b][0], cells[a][0]
    swapped = VertexPartition(seq.n_left, cells)
    assert not np.array_equal(swapped.owner, lp2.owner)
    assert C._parent_map(swapped, seq.left_parts(1)).size == len(lp2)  # still refines level 1
    (art / "left-2.part").write_text(swapped.to_text())
    # the keys an older manifest recorded for its partition files are ignored too
    manifest = json.loads((art / "manifest.json").read_text())
    (art / "manifest.json").write_text(json.dumps({**manifest, "partition_hashes": {"left-2.part": "0" * 64}, "n_left": 1}))
    capsys.readouterr()
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(art), "--suite", suite]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "suite PASS"
    parts = certified_artifact.parent
    assert main([
        "certify", "--artifact", str(art),
        "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(art / "certificate.txt"),
    ]) == 0
    assert (art / "certificate.txt").read_bytes() == (certified_artifact / "certificate.txt").read_bytes()


def test_gamma_of_the_wrong_shape_exits_2(core_artifact, tmp_path, capsys):
    """A level-1 Gamma with one left cluster too few, its hash recorded
    in the manifest: a malformed artifact (exit 2), not a traceback."""
    import hashlib

    from deltareg.graphs import BipartiteGraph, VertexClass, bipartite_from_binary, bipartite_to_binary

    _, out = core_artifact
    art = tmp_path / "art"
    shutil.copytree(out, art)
    q = bipartite_from_binary((art / "gamma-1-0.bin").read_bytes())
    blob = bipartite_to_binary(BipartiteGraph(VertexClass("X", q.left.size - 1), q.right, q.rows[:-1].copy()))
    (art / "gamma-1-0.bin").write_bytes(blob)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["gamma_hashes"]["1/0"] = hashlib.sha256(blob).hexdigest()
    (art / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(art), "--suite", suite]) == 2
        assert "gamma-1-0.bin is a 15 x 8 graph, not 16 x 8" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cx_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("cx")
    (d / "cx.json").write_text(json.dumps(CX_PARAMS))
    assert main(["counterexample", "--params", str(d / "cx.json"), "--seed", "5", "--out", str(d / "cx")]) == 0
    return d / "cx"


# every file each command writes, with its digits as N, and what reads it
ARTIFACT_FILES = {
    "build-core": {
        "manifest.json": "every core load: profile, seed, sampler stream and Gamma hashes",
        "gamma-N-N.bin": "every core load",
        "run-manifest.json": "provenance: the command, its arguments and every artifact's SHA-256",
    },
    "certify": {
        "certificate.txt": "the certificate suite, which re-checks it against the member it names, derived from the core artifact",
    },
    "build-hypergraph": {
        "instance.json": "the hypergraph suite, which rebuilds the instance from it",
        "merged.kgraph": "the hypergraph suite",
        "window-N.bin": "the hypergraph suite",
        "run-manifest.json": "provenance: the command, its arguments and every artifact's SHA-256",
    },
    "counterexample": {
        "ab.bin": "the counterexample suite",
        "ac.bin": "the counterexample suite",
        "bc.bin": "the counterexample suite",
        "params.json": "the counterexample suite",
        "audit.txt": "unread: ROADMAP direction 2 recomputes its triangle gate and compares",
        "run-manifest.json": "provenance: the command, its arguments and every artifact's SHA-256",
    },
}


def test_every_artifact_file_is_in_the_inventory(tmp_path, capsys):
    """A new artifact file needs an entry above: who reads it, or why it
    stays unread."""
    from deltareg import core as C

    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    (tmp_path / "cx.json").write_text(json.dumps(CX_PARAMS))
    left, right = C.default_chains(C.GrowthProfile.from_json(PROFILE))
    (tmp_path / "P.part").write_text(left[0].to_text())
    (tmp_path / "Q.part").write_text(right[1].to_text())
    core, cert, hg, cx = (tmp_path / name for name in ("core", "cert", "hg", "cx"))
    assert main(["build-core", "--profile", str(tmp_path / "profile.json"), "--seed", "3", "--out", str(core)]) == 0
    assert main([
        "certify", "--artifact", str(core), "--left-partition", str(tmp_path / "P.part"),
        "--right-partition", str(tmp_path / "Q.part"), "--delta", "1/16384", "--t", "2", "--level", "2",
        "--gamma", "1/4", "--out-cert", str(cert / "certificate.txt"),
    ]) == 0
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "3", "--blowup", "1", "--out", str(hg)]) == 0
    assert main(["counterexample", "--params", str(tmp_path / "cx.json"), "--seed", "5", "--out", str(cx)]) == 0
    capsys.readouterr()
    written = {
        command: {re.sub(r"\d+", "N", path.name) for path in d.iterdir()}
        for command, d in (("build-core", core), ("certify", cert), ("build-hypergraph", hg), ("counterexample", cx))
    }
    assert written == {command: set(files) for command, files in ARTIFACT_FILES.items()}


def _exit_2_argv(certified_artifact, cx_artifact, tmp_path, case, hypergraph_artifact=None):
    """The command line of one exit-2 case: 'certify <flag> <value>' with the
    other certify options as in the certified artifact, or '<command> <file>
    <key> <value>' with one key of the build-core profile, the counterexample
    params or the params.json of a copy of the counterexample artifact
    changed (k, m and seed to a JSON value, and the others to a
    JSON value when it is true, false, has a decimal point or opens a list
    or a string, else to a string), or of the instance.json of a copy of the hypergraph artifact
    set to a JSON value."""
    command, *rest = case.split()
    if rest[0] == "hypergraph":
        key, value = rest[-2:]
        art = tmp_path / "hg"
        shutil.copytree(hypergraph_artifact, art)
        meta = json.loads((art / "instance.json").read_text())
        (art / "instance.json").write_text(json.dumps({**meta, key: json.loads(value)}))
        return ["verify", "--artifact", str(art), "--suite", "hypergraph"]
    if command == "certify":
        flag, value = rest
        options = {"--delta": "1/16384", "--t": "2", "--level": "2", "--member": "0", "--gamma": "1/4", flag: value}
        return [
            "certify", "--artifact", str(certified_artifact),
            "--left-partition", str(certified_artifact.parent / "P.part"),
            "--right-partition", str(certified_artifact.parent / "Q.part"),
            *(word for option in options.items() for word in option), "--out-cert", str(tmp_path / "certificate.txt"),
        ]
    key, value = rest[-2:]
    value = json.loads(value) if key in ("k", "m", "seed") or value in ("true", "false") or "." in value or value[0] in '["' else value
    if command == "build-core":
        (tmp_path / "profile.json").write_text(json.dumps({**PROFILE, key: value}))
        return ["build-core", "--profile", str(tmp_path / "profile.json"), "--seed", "3", "--out", str(tmp_path / "core")]
    if command == "counterexample":
        (tmp_path / "cx.json").write_text(json.dumps({**CX_PARAMS, key: value}))
        return ["counterexample", "--params", str(tmp_path / "cx.json"), "--seed", "5", "--out", str(tmp_path / "cx")]
    art = tmp_path / "cx"
    shutil.copytree(cx_artifact, art)
    params = json.loads((art / "params.json").read_text())
    (art / "params.json").write_text(json.dumps({**params, key: value}))
    return ["verify", "--artifact", str(art), "--suite", "counterexample"]


@pytest.mark.parametrize(
    "case",
    [
        "certify --delta 1/0",
        "certify --gamma 1/0",
        "certify --gamma abc",
        "counterexample params delta 1/0",
        "build-core profile alpha 1/0",
        "verify counterexample params.json delta 1/0",
    ],
)
def test_a_bad_fraction_in_any_input_exits_2(certified_artifact, cx_artifact, tmp_path, capsys, case):
    """A zero denominator or a malformed fraction, in an option, a profile
    or a params file, is a usage error: exit 2 with an error line, never a
    traceback."""
    argv = _exit_2_argv(certified_artifact, cx_artifact, tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 2
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)


@pytest.mark.parametrize(
    "case",
    [
        "certify --member 4",
        "certify --member 99",
        "certify --member -1",
        "certify --t 3",
        "certify --t 0",
        "certify --level 3",
        "certify --level 0",
        *(f"{where} {key} {value}" for where in ("counterexample params", "verify counterexample params.json")
          for key, value in (("k", 0), ("m", 0), ("m", -1), ("q", 2), ("q", 0), ("delta", 0), ("delta", "3/2"))),
        *(f"{where} {key} {value}" for where in ("counterexample params", "verify counterexample params.json")
          for key, value in (("k", "30.7"), ("k", '"30"'), ("m", "true"), ("m", "2.0"))),
        *(f"verify counterexample params.json {key} {value}"
          for key, value in (("seed", '"5"'), ("seed", "5.0"), ("seed", "-1"))),
        *(f"{where} {key} {value}" for where in ("counterexample params", "verify counterexample params.json")
          for key, value in (("delta", "true"), ("delta", "0.5"), ("q", "0.1"), ("q", "false"))),
        *(f"verify hypergraph instance.json {key} {value}"
          for key, value in (("blowup", '"4"'), ("blowup", "4.5"), ("blowup", "0"), ("k", '"3"'), ("s", "2.0"), ("seed", '"9"'), ("seed", "true"))),
        *(f"build-core profile {key} {value}"
          for key, value in (
              ("s", "2.0"), ("r_sizes", "[8,32.0]"), ("l_sizes", "[16,256.0]"), ("blowup_left", "2.0"),
              ("max_retries", '"5"'), ("strict_mode", '""'), ("enforce", '["v"]'), ("enforce", '"ii"'),
              ("enforce", '["ii","ii"]'), ("alpha", "true"), ("alpha", '[0.5,"3/4"]'), ("beta", "0.5"),
          )),
    ],
)
def test_an_out_of_range_value_in_any_input_exits_2(certified_artifact, cx_artifact, hypergraph_artifact, tmp_path, capsys, case):
    """A level, member or t outside the chain (1 <= t <= level <= s, 0 <=
    member < 2^level; the artifact has s = 2), a counterexample k or m
    below 1 or q or delta outside (0, 1], a counterexample k, m or stored
    seed that is not a JSON integer, a delta or q that is neither a fraction
    string nor a JSON integer, a hypergraph k, s, seed or blowup that is
    not a JSON integer or a blowup below 1, and a build-core profile whose s, sizes, blowups or
    max_retries are not JSON integers, whose strict_mode is not a JSON bool,
    whose enforce is not a list of distinct names from ii and iii, or whose
    alpha or beta is not a fraction string or a JSON integer,
    are usage errors: exit 2 with an error line, never a traceback, a
    truncated size or a run on a wrapped index."""
    argv = _exit_2_argv(certified_artifact, cx_artifact, tmp_path, case, hypergraph_artifact)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(r"^error: ", err, re.M)
    if case == "verify hypergraph instance.json blowup 0":
        assert "blowup must be at least 1, not 0" in err
    if case.startswith("certify"):
        assert not (tmp_path / "certificate.txt").exists()
    elif case.startswith("counterexample"):
        assert not (tmp_path / "cx").exists()


@pytest.mark.parametrize("where, value", [
    *((where, value) for where in ("core-structural", "core-properties", "certify", "hypergraph", "counterexample", "--params")
      for value in ([1], "x")),
    ("core-structural seed", "one"),
    ("certify seed", "one"),
])
def test_a_json_input_that_is_not_an_object_exits_2(certified_artifact, cx_artifact, hypergraph_artifact, tmp_path, capsys, where, value):
    """A manifest.json (both core suites and certify), instance.json,
    params.json or counterexample --params file that holds a JSON list or
    string, and a manifest.json seed that is not a JSON integer, are usage
    errors: exit 2 with an error line, never a traceback or a suite PASS,
    and nothing written."""
    command, _, key = where.partition(" ")
    if command == "--params":
        (tmp_path / "cx.json").write_text(json.dumps(value))
        argv = ["counterexample", "--params", str(tmp_path / "cx.json"), "--seed", "5", "--out", str(tmp_path / "built")]
    else:
        source, name = {"hypergraph": (hypergraph_artifact, "instance.json"), "counterexample": (cx_artifact, "params.json")}.get(
            command, (certified_artifact, "manifest.json")
        )
        art = tmp_path / "art"
        shutil.copytree(source, art)
        meta = json.loads((art / name).read_text())
        (art / name).write_text(json.dumps({**meta, key: value} if key else value))
        argv = ["verify", "--artifact", str(art), "--suite", command]
        if command == "certify":
            parts = certified_artifact.parent
            argv = [
                "certify", "--artifact", str(art),
                "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
                "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
                "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
            ]
    capsys.readouterr()
    assert main(argv) == 2
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)
    assert not (tmp_path / "built").exists() and not (tmp_path / "certificate.txt").exists()


def test_counterexample_refuses_a_negative_seed_and_writes_nothing(tmp_path, capsys):
    (tmp_path / "cx.json").write_text(json.dumps(CX_PARAMS))
    out = tmp_path / "cx"
    capsys.readouterr()
    assert main(["counterexample", "--params", str(tmp_path / "cx.json"), "--seed", "-1", "--out", str(out)]) == 2
    assert "error: bad params: seed -1 must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blowup", ["0", "-2"])
def test_build_hypergraph_refuses_a_blowup_below_1_by_name(tmp_path, capsys, blowup):
    out = tmp_path / "hg"
    capsys.readouterr()
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "0", "--blowup", blowup, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: blowup must be at least 1\n"
    assert not out.exists()


def test_delta_and_q_are_fraction_strings_or_json_integers():
    from deltareg.cli import _json_fraction

    assert _json_fraction({"q": "1/10"}, "q") == Fraction(1, 10)
    assert _json_fraction({"q": 1}, "q") == 1
    for value in (True, False, 0.1, 1.0, None, [1, 2]):
        with pytest.raises(ValueError, match="q must be a fraction string or an integer"):
            _json_fraction({"q": value}, "q")


@pytest.mark.parametrize("stream", [None, 1, "2", 2.0, True])
def test_an_artifact_of_another_sampler_stream_exits_2(certified_artifact, hypergraph_artifact, tmp_path, capsys, stream):
    """A core manifest.json or hypergraph instance.json without the JSON
    integer sampler_stream 2 (None strips the field) was drawn by another
    seed stream: both core suites, certify and the hypergraph suite exit 2
    and ask for a rebuild, before any file is compared with a replay."""
    core, hg = tmp_path / "core", tmp_path / "hg"
    shutil.copytree(certified_artifact, core)
    shutil.copytree(hypergraph_artifact, hg)
    for path in (core / "manifest.json", hg / "instance.json"):
        meta = json.loads(path.read_text())
        assert meta.pop("sampler_stream") == 2
        path.write_text(json.dumps(meta if stream is None else {**meta, "sampler_stream": stream}))
    parts = certified_artifact.parent
    runs = [
        (["verify", "--artifact", str(core), "--suite", "core-structural"], "manifest.json", "build-core"),
        (["verify", "--artifact", str(core), "--suite", "core-properties"], "manifest.json", "build-core"),
        ([
            "certify", "--artifact", str(core),
            "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
            "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
            "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
        ], "manifest.json", "build-core"),
        (["verify", "--artifact", str(hg), "--suite", "hypergraph"], "instance.json", "build-hypergraph"),
    ]
    capsys.readouterr()
    for argv, name, command in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{name} records sampler stream {stream!r}, not 2: rebuild the artifact with {command}" in err
    assert not (tmp_path / "certificate.txt").exists()
