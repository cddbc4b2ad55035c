import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from deltareg.cli import main

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
    import shutil

    _, out = core_artifact
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    # flip one low bit in a level-2 quotient (keeping the container valid)
    path = broken / "quotient-2-1.bin"
    blob = bytearray(path.read_bytes())
    blob[-8] ^= 1
    path.write_bytes(blob)
    rc = main(["verify", "--artifact", str(broken), "--suite", "core-structural"])
    text = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in text


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
    tampered = re.sub(r"corr=0", "corr=7", text, count=1)
    cert.write_text(tampered)
    assert main(["verify", "--artifact", str(out), "--suite", "certificate"]) == 1
    capsys.readouterr()


def test_hypergraph_flow(tmp_path, capsys):
    out = tmp_path / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "7", "--blowup", "4", "--out", str(out)]) == 0
    assert main(["verify", "--artifact", str(out), "--suite", "hypergraph"]) == 0
    assert main(["build-hypergraph", "--k", "1", "--s", "2", "--seed", "0", "--out", str(tmp_path / "zz")]) == 2
    capsys.readouterr()


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


@pytest.fixture(scope="module")
def hypergraph_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("hg") / "hg"
    assert main(["build-hypergraph", "--k", "3", "--s", "2", "--seed", "3", "--blowup", "1", "--out", str(out)]) == 0
    return out


def _append_line(d):
    with open(d / "merged.kgraph", "a") as f:
        f.write("5 5 5\nfoo bar\n")


def _swap_windows(d):
    a, b = (d / "window-0.kgraph").read_text(), (d / "window-1.kgraph").read_text()
    (d / "window-0.kgraph").write_text(b)
    (d / "window-1.kgraph").write_text(a)


def _ragged_line(d):
    lines = (d / "merged.kgraph").read_text().split("\n")
    lines[10] += " 7"
    (d / "merged.kgraph").write_text("\n".join(lines))


def _edit_edge_count(d):
    text = (d / "merged.kgraph").read_text()
    m = int(re.search(r"^edges (\d+)$", text, re.M).group(1))
    (d / "merged.kgraph").write_text(text.replace(f"edges {m}\n", f"edges {m - 1}\n"))


def _edit_chain(d):
    text = (d / "chain-2.part").read_text()
    (d / "chain-2.part").write_text(text.replace(" ", "\n", 1))


def _swap_edge_lines(d):
    """Two edge lines trade places: the same graph, but not the text any
    writer makes, so the strict reader refuses it."""
    lines = (d / "window-2.kgraph").read_text().split("\n")
    first = next(j for j, ln in enumerate(lines) if ln.startswith("edges ")) + 1
    lines[first], lines[first + 1] = lines[first + 1], lines[first]
    (d / "window-2.kgraph").write_text("\n".join(lines))
    return 2, "increasing"


def _rename_class(d):
    """A class renamed in a window header: the same graph by
    ``KPartiteKGraph.__eq__``, which ignores names, so the replay compares
    names as well."""
    text = (d / "window-4.kgraph").read_text()
    (d / "window-4.kgraph").write_text(re.sub(r"^class V\d+ ", "class Z ", text, count=1, flags=re.M))
    return 1, "[FAIL] replay-identical: rebuild from the manifest seed differs in window-4.kgraph"


@pytest.mark.parametrize("tamper", [_append_line, _swap_windows, _ragged_line, _edit_edge_count, _edit_chain, _swap_edge_lines, _rename_class])
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


def test_hypergraph_header_beyond_int64_codes_exits_2(hypergraph_artifact, tmp_path, capsys):
    """Class sizes whose product reaches 2^63 would wrap the int64 edge
    codes; the reader refuses such a header, so the suite exits 2."""
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    text = (d / "merged.kgraph").read_text()
    (d / "merged.kgraph").write_text(re.sub(r"^class (\S+) \d+$", r"class \1 3000000", text, flags=re.M))
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 2
    assert "2^63" in capsys.readouterr().err


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
    li = next(i for i, ln in enumerate(lines) if ln.startswith("line "))
    for name, bad in {
        "truncated": "\n".join(lines[:li]) + "\n",
        "prefix": text.replace("\nq ", "\nx ", 1),
        "right id": text.replace(lines[li].split()[1], "R=99999", 1),
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


@pytest.mark.parametrize("size", [0, 10])
def test_short_refuted_graph_exits_2(certified_artifact, tmp_path, capsys, size):
    """A graph container shorter than its header is refused with a
    ValueError (exit 2), not a struct.error traceback."""
    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    capsys.readouterr()
    blob = (art / "refuted-graph.bin").read_bytes()
    (art / "refuted-graph.bin").write_bytes(blob[:size])
    assert main(["verify", "--artifact", str(art), "--suite", "certificate"]) == 2
    assert "truncated binary container" in capsys.readouterr().err


def test_short_quotient_exits_2(core_artifact, tmp_path, capsys):
    _, out = core_artifact
    art = tmp_path / "art"
    shutil.copytree(out, art)
    blob = (art / "quotient-2-1.bin").read_bytes()
    (art / "quotient-2-1.bin").write_bytes(blob[:10])
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
    assert "retries exhausted" in capsys.readouterr().err


def test_swapped_quotients_fail_the_core_suites_and_certify(certified_artifact, tmp_path, capsys):
    """Two sibling quotients swapped on disk are well-formed files, but not
    the ones the manifest hashed: both core suites and certify exit 1 and
    name the file."""
    art = tmp_path / "art"
    shutil.copytree(certified_artifact, art)
    a, b = art / "quotient-2-0.bin", art / "quotient-2-1.bin"
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    a.write_bytes(blob_b)
    b.write_bytes(blob_a)
    capsys.readouterr()
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(art), "--suite", suite]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] member-hashes: quotient-2-0.bin does not match its hash in manifest.json" in out
        assert "suite FAIL" in out
    parts = certified_artifact.parent
    rc = main([
        "certify", "--artifact", str(art),
        "--left-partition", str(parts / "P.part"), "--right-partition", str(parts / "Q.part"),
        "--delta", "1/16384", "--t", "2", "--level", "2", "--member", "0",
        "--gamma", "1/4", "--out-cert", str(tmp_path / "certificate.txt"),
    ])
    assert rc == 1
    assert "quotient-2-0.bin does not match its hash" in capsys.readouterr().err
    assert not (tmp_path / "certificate.txt").exists()


def test_quotient_of_the_wrong_shape_exits_2(core_artifact, tmp_path, capsys):
    """A level-1 quotient with one left cluster too few, its hash recorded
    in the manifest: a malformed artifact (exit 2), not a traceback."""
    import hashlib

    from deltareg.graphs import BipartiteGraph, VertexClass, bipartite_from_binary, bipartite_to_binary

    _, out = core_artifact
    art = tmp_path / "art"
    shutil.copytree(out, art)
    q = bipartite_from_binary((art / "quotient-1-0.bin").read_bytes())
    blob = bipartite_to_binary(BipartiteGraph(VertexClass("L", q.left.size - 1), q.right, q.rows[:-1].copy()))
    (art / "quotient-1-0.bin").write_bytes(blob)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["member_hashes"]["1/0"] = hashlib.sha256(blob).hexdigest()
    (art / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for suite in ("core-structural", "core-properties"):
        assert main(["verify", "--artifact", str(art), "--suite", suite]) == 2
        assert "quotient-1-0.bin is a 15 x 8 quotient, not 16 x 8" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cx_artifact(tmp_path_factory):
    d = tmp_path_factory.mktemp("cx")
    (d / "cx.json").write_text(json.dumps(CX_PARAMS))
    assert main(["counterexample", "--params", str(d / "cx.json"), "--seed", "5", "--out", str(d / "cx")]) == 0
    return d / "cx"


def _exit_2_argv(certified_artifact, cx_artifact, tmp_path, case, hypergraph_artifact=None):
    """The command line of one exit-2 case: 'certify <flag> <value>' with the
    other certify options as in the certified artifact, or '<command> <file>
    <key> <value>' with one key of the build-core profile, the counterexample
    params or the params.json of a copy of the counterexample artifact
    changed, or of the instance.json of a copy of the hypergraph artifact
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
    value = int(value) if key in ("k", "m") else value
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
        *(f"verify hypergraph instance.json {key} {value}"
          for key, value in (("blowup", '"4"'), ("blowup", "4.5"), ("k", '"3"'), ("s", "2.0"), ("seed", '"9"'), ("seed", "true"))),
    ],
)
def test_an_out_of_range_value_in_any_input_exits_2(certified_artifact, cx_artifact, hypergraph_artifact, tmp_path, capsys, case):
    """A level, member or t outside the chain (1 <= t <= level <= s, 0 <=
    member < 2^level; the artifact has s = 2), a counterexample k or m
    below 1 or q or delta outside (0, 1], and a hypergraph k, s, seed or
    blowup that is not a JSON integer, are usage errors: exit 2 with an
    error line, never a traceback or a run on a wrapped index."""
    argv = _exit_2_argv(certified_artifact, cx_artifact, tmp_path, case, hypergraph_artifact)
    capsys.readouterr()
    assert main(argv) == 2
    assert re.search(r"^error: ", capsys.readouterr().err, re.M)
    if case.startswith("certify"):
        assert not (tmp_path / "certificate.txt").exists()
    elif case.startswith("counterexample"):
        assert not (tmp_path / "cx").exists()
