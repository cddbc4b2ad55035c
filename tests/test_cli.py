import json
import os
import re
import shutil
import subprocess
import sys

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


@pytest.mark.parametrize("tamper", [_append_line, _swap_windows, _ragged_line, _edit_edge_count, _edit_chain])
def test_hypergraph_tamper_never_passes(hypergraph_artifact, tmp_path, capsys, tamper):
    d = tmp_path / "hg"
    shutil.copytree(hypergraph_artifact, d)
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) == 0
    assert "suite PASS" in capsys.readouterr().out
    tamper(d)
    assert main(["verify", "--artifact", str(d), "--suite", "hypergraph"]) in (1, 2)
    assert "suite PASS" not in capsys.readouterr().out


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


def test_sampler_exhaustion_exits_1(tmp_path, capsys):
    # beta 0 asks for agreement exactly one half on every pair: two draws miss
    profile = tmp_path / "harsh.json"
    profile.write_text(json.dumps({"s": 1, "r_sizes": [8], "l_sizes": [16], "alpha": "0", "beta": "0", "max_retries": 2}))
    assert main(["build-core", "--profile", str(profile), "--seed", "0", "--out", str(tmp_path / "out")]) == 1
    assert "retries exhausted" in capsys.readouterr().err
