"""Command-line surface: argument handling, exit codes, golden outputs,
and certificate mutation fuzzing through the verify path."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from poset_ramsey import cli
from poset_ramsey.cli import main
from poset_ramsey.errors import InvariantViolation
from poset_ramsey.extract import certificate_from_json_dict, verify_certificate
from poset_ramsey.lattice import Coloring, coloring_from_text, coloring_to_text, write_coloring
from poset_ramsey.posets import are_isomorphic, make_boolean_poset, make_chain, make_complete_multipartite, poset_from_json

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- construct


def test_construct_round_trips_each_builder(tmp_path, capsys):
    cases = [
        (["--chain", "4"], make_chain(4)),
        (["--antichain", "3"], None),
        (["--multipartite", "3,4,2"], make_complete_multipartite((3, 4, 2))),
        (["--spindle", "1,2,1"], None),
        (["--boolean", "2"], make_boolean_poset(2)),
    ]
    for flags, expected in cases:
        out_file = tmp_path / "p.json"
        code, _, _ = _run(capsys, "construct", *flags, "--out", str(out_file))
        assert code == 0
        loaded = poset_from_json(out_file.read_text())
        if expected is not None:
            assert are_isomorphic(loaded, expected)


def test_construct_golden_multipartite(capsys):
    code, out, _ = _run(capsys, "construct", "--multipartite", "3,4,2")
    assert code == 0
    assert out == (GOLDEN / "construct_multipartite_3_4_2.json").read_text()


def test_construct_rejects_bad_spec(capsys):
    with pytest.raises(SystemExit) as info:
        _run(capsys, "construct", "--spindle", "1,2")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        _run(capsys, "construct", "--chain", "-3")
    assert info.value.code == 2


# -------------------------------------------------------------------- exact


def test_exact_prints_bare_value(capsys):
    code, out, _ = _run(capsys, "exact", "--boolean", "1", "--n", "2", "--nmax", "4")
    assert code == 0
    assert out == "3\n"


def test_exact_json_golden(capsys):
    code, out, _ = _run(capsys, "exact", "--boolean", "1", "--n", "2", "--nmax", "4", "--json")
    assert code == 0
    assert out == (GOLDEN / "exact_boolean1_n2.json").read_text()


def test_exact_writes_witness_files(tmp_path, capsys):
    wdir = tmp_path / "w"
    code, out, _ = _run(capsys, "exact", "--antichain", "2", "--n", "2",
                        "--nmax", "4", "--witness-dir", str(wdir), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4
    assert sorted(data["witness_dims"]) == [2, 3]
    for dim, path in data["witness_files"].items():
        coloring = coloring_from_text(Path(path).read_text())
        assert coloring.dim == int(dim)


def test_exact_budget_exit_code(capsys):
    code, out, err = _run(capsys, "exact", "--chain", "3", "--n", "2",
                          "--nmax", "5", "--max-nodes", "10")
    assert code == 3


def test_exact_lower_bound_text(capsys):
    code, out, _ = _run(capsys, "exact", "--antichain", "3", "--n", "1", "--nmax", "3")
    assert code == 0
    assert out == "no verdict up to 3: value is at least 4\n"


# ------------------------------------------------------------------ witness


def test_witness_emits_coloring_text(capsys):
    code, out, _ = _run(capsys, "witness", "--chain", "2", "--n", "1", "--N", "1")
    assert code == 0
    assert coloring_from_text(out) == Coloring(1, 0b10)


def test_witness_none_is_not_an_error(capsys):
    code, out, _ = _run(capsys, "witness", "--boolean", "1", "--n", "1", "--N", "2")
    assert code == 0
    assert "no witness" in out


def test_witness_json(capsys):
    code, out, _ = _run(capsys, "witness", "--chain", "2", "--n", "1", "--N", "1", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["found"] is True
    assert coloring_from_text(data["coloring"]).bits == 0b10


def test_witness_budget_exit(capsys):
    code, _, err = _run(capsys, "witness", "--chain", "3", "--n", "2", "--N", "4",
                        "--max-nodes", "5")
    assert code == 3
    assert "budget" in err


def test_witness_rejects_host_past_coloring_cap(capsys):
    # refused before the kernel allocates a 2^25-vertex coloring
    with pytest.raises(SystemExit) as info:
        _run(capsys, "witness", "--chain", "2", "--n", "1", "--N", "25", "--max-nodes", "1")
    assert info.value.code == 2
    assert "24" in capsys.readouterr().err


_BUILDERS = ("make_chain", "make_antichain", "make_complete_multipartite", "make_spindle",
             "make_boolean_poset")


def _forbid_builders(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("an over-size target was built")

    for name in _BUILDERS:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("command", [("exact", "--n", "1"), ("witness", "--n", "1", "--N", "2")])
@pytest.mark.parametrize("flags", [
    ("--chain", "65"),
    ("--chain", "20000"),
    ("--antichain", "65"),
    ("--multipartite", "30,35"),
    ("--spindle", "1,63,1"),
    ("--boolean", "7"),
    ("--boolean", "1000000000000"),
])
def test_kernel_commands_reject_over_size_targets_before_building(
    monkeypatch, capsys, command, flags
):
    _forbid_builders(monkeypatch)
    with pytest.raises(SystemExit) as info:
        _run(capsys, command[0], *flags, *command[1:])
    assert info.value.code == 2
    assert "capped at 64" in capsys.readouterr().err


def test_kernel_commands_accept_targets_at_the_word_width(capsys):
    assert _run(capsys, "witness", "--chain", "64", "--n", "1", "--N", "0")[0] == 0
    assert _run(capsys, "witness", "--boolean", "6", "--n", "1", "--N", "1")[0] == 0



@pytest.mark.parametrize("command", ["construct", "export-dot"])
@pytest.mark.parametrize("flags", [
    ("--chain", "1025"),
    ("--chain", "20000"),
    ("--antichain", "1025"),
    ("--multipartite", "500,525"),
    ("--spindle", "1,1023,1"),
    ("--boolean", "11"),
    ("--boolean", "1000000000000"),
])
def test_poset_commands_reject_over_budget_targets_before_building(
    monkeypatch, capsys, command, flags
):
    _forbid_builders(monkeypatch)
    with pytest.raises(SystemExit) as info:
        _run(capsys, command, *flags)
    assert info.value.code == 2
    assert "relation budget" in capsys.readouterr().err


def test_poset_commands_accept_targets_at_the_relation_budget(tmp_path, capsys):
    out_file = tmp_path / "p.json"
    assert _run(capsys, "construct", "--antichain", "1024", "--out", str(out_file))[0] == 0
    assert poset_from_json(out_file.read_text()).size == 1024
    assert _run(capsys, "export-dot", "--spindle", "1,1022,1", "--out", str(out_file))[0] == 0

# -------------------------------------------------------------------- bound


def test_bound_spindle_golden(capsys):
    code, out, _ = _run(capsys, "bound", "--spindle", "1,2,1", "--n", "1024", "--json")
    assert code == 0
    assert out == (GOLDEN / "bound_spindle_1_2_1_n1024.json").read_text()


def test_bound_goldens_off_a_power_of_two(capsys):
    code, out, _ = _run(capsys, "bound", "--spindle", "2,3,1", "--n", "5000", "--json")
    assert code == 0
    assert out == (GOLDEN / "bound_spindle_2_3_1_n5000.json").read_text()
    code, out, _ = _run(capsys, "bound", "--multipartite", "2,3", "--n", "3000", "--json")
    assert code == 0
    assert out == (GOLDEN / "bound_multipartite_2_3_n3000.json").read_text()


def test_bound_small_n(capsys):
    # k* exceeds 8n on each of these
    code, out, _ = _run(capsys, "bound", "--spindle", "1,2,1", "--n", "1")
    assert code == 0 and "k* = 11" in out
    code, out, _ = _run(capsys, "bound", "--spindle", "1,9,1", "--n", "4")
    assert code == 0 and "k* = 92" in out
    code, out, _ = _run(capsys, "bound", "--multipartite", "2,3", "--n", "1")
    assert code == 0


def test_bound_spindle_text(capsys):
    code, out, _ = _run(capsys, "bound", "--spindle", "1,2,1", "--n", "1024")
    assert code == 0
    assert "k* = 395" in out
    assert "bound = n + k* = 1419" in out
    assert "tail certified: True" in out


def test_bound_multipartite_steps(capsys):
    code, out, _ = _run(capsys, "bound", "--multipartite", "2,2", "--n", "1024")
    assert code == 0
    assert "step 1: 1024 -> 1419" in out
    assert "step 2: 1419 -> 1930" in out
    assert "bound = 1930" in out


def test_bound_chain_and_antichain(capsys):
    code, out, _ = _run(capsys, "bound", "--chain", "3", "--n", "7")
    assert code == 0 and "9" in out
    code, out, _ = _run(capsys, "bound", "--antichain", "4", "--n", "9")
    assert code == 0 and "alpha = 4" in out and "13" in out


def test_bound_warns_when_asymptotics_do_not_apply(capsys):
    code, out, err = _run(capsys, "bound", "--spindle", "1,5,1", "--n", "16")
    assert code == 0
    assert "warning" in err
    code, out, err = _run(capsys, "bound", "--multipartite", "2,2,2,2", "--n", "8")
    assert code == 0
    assert "warning" in err


def test_bound_scan_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        _run(capsys, "bound", "--spindle", f"0,{1 << 40},1", "--n", "2")
    assert info.value.code == 2
    assert "bound scan exceeded" in capsys.readouterr().err


def test_bound_huge_n_is_usage_error(capsys):
    # the scan would start from a 2*10^14-bit power of two
    for shape in (["--multipartite", "2,3"], ["--spindle", "1,2,1"]):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            _run(capsys, "bound", *shape, "--n", "99999999999999")
        assert info.value.code == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "bit cap" in err and "Traceback" not in err


# ------------------------------------------------------------------ extract


def test_extract_chain_json(capsys):
    code, out, _ = _run(capsys, "extract", "--what", "chain", "--n", "2", "--k", "1",
                        "--all-blue")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "blue_chain"
    assert data["vertices"] == [0, 4]


def test_extract_chain_respects_ordering(capsys):
    code, out, _ = _run(capsys, "extract", "--what", "chain", "--n", "1", "--k", "2",
                        "--all-blue", "--ordering", "2,1")
    assert code == 0
    data = json.loads(out)
    assert data["ordering"] == [2, 1]
    assert data["vertices"] == [0, 4, 6]


def test_extract_spindle_golden(capsys):
    code, out, _ = _run(capsys, "extract", "--what", "spindle", "--n", "1", "--k", "2",
                        "--all-blue", "--shape", "1,2,1")
    assert code == 0
    assert out == (GOLDEN / "extract_spindle_allblue_n1_k2.json").read_text()


def test_extract_family_and_clear(capsys):
    code, out, _ = _run(capsys, "extract", "--what", "family", "--n", "1", "--k", "2",
                        "--all-blue")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "chain_family"
    assert len(data["entries"]) == 2

    code, out, _ = _run(capsys, "extract", "--what", "clear", "--n", "2", "--k", "0",
                        "--all-red")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "clear_classification"
    assert data["blue"] == [] and data["green"] == []
    assert sorted(data["yellow"]) == [0, 1, 2, 3]


def test_extract_family_red_passthrough(tmp_path, capsys):
    cpath = tmp_path / "red.txt"
    write_coloring(cpath, Coloring(3, 0))
    code, out, _ = _run(capsys, "extract", "--what", "family", "--n", "2", "--k", "1",
                        "--coloring", str(cpath))
    assert code == 0
    assert json.loads(out)["kind"] == "red_qn"


def test_extract_is_deterministic_per_seed(capsys):
    args = ("extract", "--what", "family", "--n", "2", "--k", "2", "--random-seed", "11")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_extract_spindle_requires_shape(capsys):
    with pytest.raises(SystemExit) as info:
        _run(capsys, "extract", "--what", "spindle", "--n", "1", "--k", "2", "--all-blue")
    assert info.value.code == 2


def test_extract_coloring_dimension_mismatch(tmp_path, capsys):
    cpath = tmp_path / "c.txt"
    write_coloring(cpath, Coloring(2, 0))
    with pytest.raises(SystemExit) as info:
        _run(capsys, "extract", "--what", "chain", "--n", "2", "--k", "2",
             "--coloring", str(cpath))
    assert info.value.code == 2


@pytest.mark.parametrize("n, k", [(20, 5), (20, 10)])
@pytest.mark.parametrize("source", [("--all-red",), ("--all-blue",), ("--random-seed", "1")])
def test_extract_rejects_dimension_past_coloring_cap(monkeypatch, capsys, n, k, source):
    # refused before any source builds 2^(n+k) bits (--all-red was a traceback)
    def forbidden(*args, **kwargs):
        raise AssertionError("random_coloring called past the coloring cap")

    monkeypatch.setattr(cli, "random_coloring", forbidden)
    with pytest.raises(SystemExit) as info:
        _run(capsys, "extract", "--what", "chain", "--n", str(n), "--k", str(k), *source)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"n+k={n + k} exceeds the coloring cap 24" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--p1-chain", "--p2-chain"])
def test_extract_clear_rejects_bad_chain_lengths(monkeypatch, capsys, flag):
    argv = ("extract", "--what", "clear", "--n", "2", "--k", "1", "--all-blue", flag)
    with pytest.raises(SystemExit) as info:
        _run(capsys, *argv, "-1")  # was a ValueError traceback
    assert info.value.code == 2
    assert "nonnegative" in capsys.readouterr().err
    _forbid_builders(monkeypatch)
    with pytest.raises(SystemExit) as info:
        _run(capsys, *argv, "65")
    assert info.value.code == 2
    assert "capped at 64" in capsys.readouterr().err


# -------------------------------------------------------------- verify-cert


def _write_cert_and_coloring(tmp_path, capsys, what: str, n: int, k: int, *extra):
    cert_path = tmp_path / f"{what}.json"
    col_path = tmp_path / f"{what}_coloring.txt"
    write_coloring(col_path, Coloring(n + k, (1 << (1 << (n + k))) - 1))
    code, out, _ = _run(capsys, "extract", "--what", what, "--n", str(n), "--k", str(k),
                        "--all-blue", *extra, "--out", str(cert_path))
    assert code == 0
    return cert_path, col_path


def test_verify_cert_accepts_extracted(tmp_path, capsys):
    cert_path, col_path = _write_cert_and_coloring(tmp_path, capsys, "chain", 2, 1)
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 0
    assert "certificate OK" in out

    cert_path, col_path = _write_cert_and_coloring(
        tmp_path, capsys, "spindle", 1, 2, "--shape", "1,2,1")
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 0


def test_verify_cert_rejects_corruption(tmp_path, capsys):
    cert_path, col_path = _write_cert_and_coloring(tmp_path, capsys, "chain", 2, 1)
    data = json.loads(cert_path.read_text())
    data["vertices"][0] = 3  # red in nothing, but wrong Y-part for level 0
    cert_path.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 1
    assert "FAIL" in out


def test_verify_cert_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    col = tmp_path / "c.txt"
    write_coloring(col, Coloring(2, 0))
    with pytest.raises(SystemExit) as info:
        main(["verify-cert", "--cert", str(bad), "--coloring", str(col)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "line 1 column 3" in err


def test_verify_cert_red_qn_above_the_relation_budget(tmp_path, capsys):
    # 2^11 elements: past the relation budget of an explicit lattice poset
    cert_path = tmp_path / "red.json"
    col_path = tmp_path / "red.txt"
    identity = list(range(1 << 11))

    def verify(images, coloring) -> tuple[int, str]:
        cert_path.write_text(json.dumps({
            "kind": "red_qn", "ground": {"n": 11, "k": 0},
            "target_dimension": 11, "images": images,
        }))
        write_coloring(col_path, coloring)
        code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                            "--coloring", str(col_path))
        return code, out

    assert verify(identity, Coloring(11, 0)) == (0, "certificate OK\n")
    code, out = verify([1, 0] + identity[2:], Coloring(11, 0))
    assert code == 1 and "FAIL: image of 0 is not below the image of 1" in out
    assert verify(identity, Coloring(11, 1 << 1000)) == (1, "FAIL: image of 1000 is not red\n")


def test_verify_cert_checks_extracted_red_cube_past_the_relation_budget(tmp_path, capsys):
    cert_path = tmp_path / "red.json"
    col_path = tmp_path / "red.txt"
    code, _, _ = _run(capsys, "extract", "--what", "chain", "--n", "11", "--k", "1",
                      "--all-red", "--out", str(cert_path))
    assert code == 0
    images = json.loads(cert_path.read_text())["images"]
    assert len(images) == 1 << 11
    write_coloring(col_path, Coloring(12, 0))
    argv = ("verify-cert", "--cert", str(cert_path), "--coloring", str(col_path))
    assert _run(capsys, *argv)[:2] == (0, "certificate OK\n")
    write_coloring(col_path, Coloring(12, 1 << images[5]))
    assert _run(capsys, *argv)[:2] == (1, "FAIL: image of 5 is not red\n")


def test_verify_cert_missing_file(tmp_path, capsys):
    col = tmp_path / "c.txt"
    write_coloring(col, Coloring(2, 0))
    with pytest.raises(SystemExit) as info:
        _run(capsys, "verify-cert", "--cert", str(tmp_path / "nope.json"),
             "--coloring", str(col))
    assert info.value.code == 2


# -------------------------------------------------------------- export-dot


def test_export_dot_edge_counts(capsys):
    code, out, _ = _run(capsys, "export-dot", "--chain", "3")
    assert code == 0 and out.count("->") == 2
    code, out, _ = _run(capsys, "export-dot", "--boolean", "2")
    assert code == 0 and out.count("->") == 4
    code, out, _ = _run(capsys, "export-dot", "--antichain", "4")
    assert code == 0 and out.count("->") == 0


# ----------------------------------------------------------------- fuzzing


def _bit_flip_mutations(data: object, limit: int):
    """Exactly ``limit`` copies of a JSON tree, each with one integer bit
    flipped.  Walks leaves in a fixed order, low bits first, then keeps
    climbing to higher bits, so runs are reproducible."""
    leaves: list[tuple[list, int]] = []

    def walk(node, path):
        if isinstance(node, bool):
            return
        if isinstance(node, int):
            leaves.append((path, node))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, path + [i])
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], path + [key])

    walk(data, [])
    assert leaves, "certificate JSON carries no integers to mutate"
    emitted = 0
    bit = 0
    while emitted < limit:
        for path, value in leaves:
            if emitted >= limit:
                break
            mutated = json.loads(json.dumps(data))
            node = mutated
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value ^ (1 << bit)
            emitted += 1
            yield mutated
        bit += 1


def _assert_all_mutations_rejected(original: dict, coloring: Coloring) -> None:
    base = certificate_from_json_dict(original)
    assert verify_certificate(base, coloring) == []
    count = 0
    for mutated in _bit_flip_mutations(original, 100):
        count += 1
        try:
            cert = certificate_from_json_dict(mutated)
        except ValueError:
            continue  # rejected at parse time
        assert verify_certificate(cert, coloring) != [], mutated
    assert count == 100


def test_fuzz_blue_chain(tmp_path, capsys):
    # color exactly the chain's vertices blue so no flip can stay valid
    col_path = tmp_path / "c.txt"
    coloring = Coloring(4, (1 << 0) | (1 << 4) | (1 << 12))
    write_coloring(col_path, coloring)
    cert_path = tmp_path / "chain.json"
    code, _, _ = _run(capsys, "extract", "--what", "chain", "--n", "2", "--k", "2",
                      "--coloring", str(col_path), "--out", str(cert_path))
    assert code == 0
    original = json.loads(cert_path.read_text())
    assert original["vertices"] == [0, 4, 12]
    _assert_all_mutations_rejected(original, coloring)


def test_fuzz_spindle(tmp_path, capsys):
    col_path = tmp_path / "c.txt"
    coloring = Coloring(3, (1 << 0) | (1 << 2) | (1 << 4) | (1 << 6))
    write_coloring(col_path, coloring)
    cert_path = tmp_path / "spindle.json"
    code, _, _ = _run(capsys, "extract", "--what", "spindle", "--n", "1", "--k", "2",
                      "--coloring", str(col_path), "--shape", "1,2,1",
                      "--out", str(cert_path))
    assert code == 0
    original = json.loads(cert_path.read_text())
    assert original["kind"] == "spindle"
    _assert_all_mutations_rejected(original, coloring)


def test_fuzz_red_qn(tmp_path, capsys):
    # extract the copy from an all-red coloring, then verify against a
    # coloring where exactly the image vertices are red
    cert_path = tmp_path / "red.json"
    col_path = tmp_path / "red.txt"
    write_coloring(col_path, Coloring(3, 0))
    code, _, _ = _run(capsys, "extract", "--what", "family", "--n", "2", "--k", "1",
                      "--coloring", str(col_path), "--out", str(cert_path))
    assert code == 0
    original = json.loads(cert_path.read_text())
    assert original["kind"] == "red_qn"
    red = set(original["images"])
    coloring = Coloring(3, sum(1 << v for v in range(8) if v not in red))
    _assert_all_mutations_rejected(original, coloring)


def test_verify_cert_refuses_the_retired_contradiction_kind(tmp_path, capsys):
    # a labeling-collision report whose only content is one ordering listed
    # twice; it proved nothing, and it is no longer a certificate kind
    cert_path = tmp_path / "report.json"
    cert_path.write_text(json.dumps({
        "kind": "contradiction", "ground": {"n": 1, "k": 1},
        "orderings": [[1], [1]], "member_chains": [[0, 2], [0, 2]],
        "cover_chains": [[0, 2]], "y_restrictions": [[[0, 0], [1, 2]]],
        "labels": [[0, 0], [0, 0]], "pair": [0, 1],
    }))
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(2, 0b0101))
    with pytest.raises(SystemExit) as info:
        main(["verify-cert", "--cert", str(cert_path), "--coloring", str(col_path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown certificate kind: 'contradiction'" in captured.err


# ------------------------------------------------------------ error boundary


@pytest.mark.parametrize("target_dimension, size", [(7, 1), (1, 65)])
def test_verify_cert_witness_past_the_word_width_is_a_failed_check(
    tmp_path, capsys, target_dimension, size
):
    # was a ValueError traceback from the kernel's word-width check
    cert_path = tmp_path / "w.json"
    cert_path.write_text(json.dumps({
        "kind": "witness", "dim": 7, "target_dimension": target_dimension,
        "target": {"size": size, "lt": []},
    }))
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(7, 0))
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 1
    assert out.startswith("FAIL: ") and "capped at 64" in out


@pytest.mark.parametrize("what", ["poset", "witness"])
def test_poset_files_past_the_relation_budget_are_usage_errors(tmp_path, capsys, what):
    # a 10^15-element list would raise MemoryError if it were allocated
    poset = {"size": 10**15, "lt": []}
    path = tmp_path / "p.json"
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(2, 0))
    if what == "poset":
        path.write_text(json.dumps(poset))
        argv = ("construct", "--poset", str(path))
    else:
        path.write_text(json.dumps(
            {"kind": "witness", "dim": 2, "target_dimension": 1, "target": poset}))
        argv = ("verify-cert", "--cert", str(path), "--coloring", str(col_path))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        _run(capsys, *argv)
    assert info.value.code == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "relation budget" in err and str(path) in err


def test_unwritable_output_paths_are_usage_errors(tmp_path, capsys):
    plain_file = tmp_path / "file"
    plain_file.write_text("")
    for argv, path in [
        (("construct", "--chain", "3", "--out"), tmp_path / "missing" / "p.json"),
        (("exact", "--chain", "2", "--n", "1", "--witness-dir"), plain_file / "w"),
    ]:
        with pytest.raises(SystemExit) as info:
            _run(capsys, *argv, str(path))
        assert info.value.code == 2
        assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("fault", [AssertionError, InvariantViolation])
def test_internal_faults_are_not_usage_errors(monkeypatch, capsys, fault):
    def broken(*args, **kwargs):
        raise fault("internal")

    monkeypatch.setattr(cli, "ramsey_exact", broken)
    with pytest.raises(fault):
        main(["exact", "--chain", "2", "--n", "1"])


def test_entry_point_exits_2_without_traceback(tmp_path):
    # an uncaught exception exits 1, the code of a failed certificate, so
    # the real interpreter exit is checked, one refused input per subcommand
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"kind": "witness", "dim": 2, "target_dimension": 1,
         "target": {"size": 10**15, "lt": []}}))
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(2, 0))
    argvs = [
        ["construct", "--chain", "3", "--out", str(tmp_path / "missing" / "p.json")],
        ["export-dot", "--chain", "1025"],
        ["bound", "--spindle", "1,2,1", "--n", "99999999999999"],
        ["exact", "--chain", "65", "--n", "1"],
        ["witness", "--chain", "2", "--n", "1", "--N", "25"],
        ["extract", "--what", "chain", "--n", "20", "--k", "5", "--all-red"],
        ["verify-cert", "--cert", str(big), "--coloring", str(col_path)],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "poset_ramsey.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert "ramsey: error:" in proc.stderr, argv


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    # json decodes arrays recursively: this was a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(2, 0))
    for argv in (("construct", "--poset", str(deep)),
                 ("verify-cert", "--cert", str(deep), "--coloring", str(col_path))):
        with pytest.raises(SystemExit) as info:
            _run(capsys, *argv)
        assert info.value.code == 2
        assert "recursion" in capsys.readouterr().err
