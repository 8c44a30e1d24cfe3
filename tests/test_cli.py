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

from poset_ramsey import cli, search
from poset_ramsey._kernels import pure
from poset_ramsey.cli import main
from poset_ramsey.errors import InvariantViolation
from poset_ramsey.extract import certificate_from_json_dict, verify_certificate
from poset_ramsey.lattice import Coloring, coloring_from_text, coloring_to_text, write_coloring
from poset_ramsey.posets import are_isomorphic, make_boolean_poset, make_chain, make_complete_multipartite, poset_from_json
from poset_ramsey.search import VerifyResult

GOLDEN = Path(__file__).parent / "golden"


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_golden(capsys, golden: str, *argv: str) -> None:
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


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
    _assert_golden(capsys, "exact_boolean1_n2.txt",
                   "exact", "--boolean", "1", "--n", "2", "--nmax", "4")


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


def test_exact_witness_file_golden(tmp_path, capsys):
    wdir = tmp_path / "w"
    code, _, _ = _run(capsys, "exact", "--antichain", "2", "--n", "2", "--nmax", "4",
                      "--witness-dir", str(wdir))
    assert code == 0
    golden = (GOLDEN / "witness_N3_antichain2_n2.txt").read_bytes()
    assert (wdir / "witness_N3.txt").read_bytes() == golden


def test_exact_budget_exit_code(capsys):
    code, out, err = _run(capsys, "exact", "--chain", "3", "--n", "2",
                          "--nmax", "5", "--max-nodes", "10")
    assert code == 3


def test_exact_lower_bound_text(capsys):
    _assert_golden(capsys, "exact_antichain3_n1_nmax3.txt",
                   "exact", "--antichain", "3", "--n", "1", "--nmax", "3")


def test_exact_symmetry_reports_the_scanned_ceiling(capsys):
    # R(C_2, Q_6) = 7, past the symmetry cap: the witness at N = 6 is kept
    code, out, _ = _run(capsys, "exact", "--chain", "2", "--n", "6", "--symmetry")
    assert code == 0
    assert out == "no verdict up to 6: value is at least 7\n"
    with pytest.raises(SystemExit) as info:
        _run(capsys, "exact", "--chain", "2", "--n", "7", "--symmetry")
    assert info.value.code == 2
    assert "lattice target posets are capped" in capsys.readouterr().err


# ------------------------------------------------------------------ witness


def test_witness_emits_coloring_text(capsys):
    code, out, _ = _run(capsys, "witness", "--chain", "2", "--n", "1", "--N", "1")
    assert code == 0
    assert coloring_from_text(out) == Coloring(1, 0b10)


def test_witness_none_is_not_an_error(capsys):
    _assert_golden(capsys, "witness_none_boolean1_n1_N2.txt",
                   "witness", "--boolean", "1", "--n", "1", "--N", "2")


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

# ------------------------------------------------- targets taller than Q_N


@pytest.fixture
def tall_target_kernels(monkeypatch):
    """Kernels that fail any search for a copy of a 12-element target, or a
    witness search that anchors a check on the blue target."""
    find, witness_search = search._kernels.find_induced_copy, search._kernels.witness_search

    def find_short(below, *args):
        assert len(below) < 12, "searched Q_9 for a copy of a 12-element chain"
        return find(below, *args)

    def search_unanchored(*args):
        assert args[3] == 0, "anchored a check for a chain too tall for the lattice"
        return witness_search(*args)

    monkeypatch.setattr(search._kernels, "find_induced_copy", find_short)
    monkeypatch.setattr(search._kernels, "witness_search", search_unanchored)


# C_12 has no copy in Q_9, whose chains have at most 10 elements; each of
# these walked every chain below each vertex, for over 100 s.


def test_witness_for_a_target_taller_than_the_lattice(tall_target_kernels, capsys):
    code, out, _ = _run(capsys, "witness", "--chain", "12", "--n", "0", "--N", "9")
    assert code == 0
    assert coloring_from_text(out) == Coloring(9, (1 << 512) - 1)


def test_verify_cert_for_a_target_taller_than_the_lattice(tall_target_kernels, tmp_path, capsys):
    cert_path = tmp_path / "w.json"
    cert_path.write_text(json.dumps({
        "kind": "witness", "dim": 9, "target_dimension": 0,
        "target": {"size": 12, "lt": [[i, i + 1] for i in range(11)]},
    }))
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(9, (1 << 512) - 1))
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 0
    assert out == "certificate OK\n"


def test_extract_clear_for_a_target_taller_than_the_lattice(tall_target_kernels, capsys):
    code, out, _ = _run(capsys, "extract", "--what", "clear", "--n", "5", "--k", "4",
                        "--all-blue", "--p1-chain", "12")
    assert code == 0
    data = json.loads(out)
    assert data["p1_clear"] == [True] * 512
    # C_2 still starts a copy at every vertex but the top
    assert data["p2_clear"] == [False] * 511 + [True]


# -------------------------------------------------- targets wider than Q_N


@pytest.fixture
def wide_target_kernels(monkeypatch):
    """Kernels that fail any search for a copy of a target over 10 elements,
    or a witness search that anchors a check on the blue target."""
    find, witness_search = search._kernels.find_induced_copy, search._kernels.witness_search

    def find_small(below, *args):
        assert len(below) <= 10, "searched Q_5 for a copy of a 12-element antichain"
        return find(below, *args)

    def search_unanchored(*args):
        assert args[3] == 0, "anchored a check for a target too wide for the lattice"
        return witness_search(*args)

    monkeypatch.setattr(search._kernels, "find_induced_copy", find_small)
    monkeypatch.setattr(search._kernels, "witness_search", search_unanchored)


# Q_5's widest antichain, its middle layer, has C(5, 2) = 10 elements, so a
# 12-element antichain has no copy; a search walked every antichain below
# each vertex for about 45 s before it said so.


def test_witness_for_a_target_wider_than_the_lattice(wide_target_kernels, capsys):
    code, out, _ = _run(capsys, "witness", "--antichain", "12", "--n", "0", "--N", "5")
    assert code == 0
    assert coloring_from_text(out) == Coloring(5, (1 << 32) - 1)


def test_verify_cert_for_a_target_wider_than_the_lattice(wide_target_kernels, tmp_path, capsys):
    cert_path = tmp_path / "w.json"
    cert_path.write_text(json.dumps({
        "kind": "witness", "dim": 5, "target_dimension": 0,
        "target": {"size": 12, "lt": []},
    }))
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(5, (1 << 32) - 1))
    code, out, _ = _run(capsys, "verify-cert", "--cert", str(cert_path),
                        "--coloring", str(col_path))
    assert code == 0
    assert out == "certificate OK\n"


def test_extract_clear_for_a_target_wider_than_the_lattice(
    wide_target_kernels, monkeypatch, capsys
):
    # the CLI builds chains only; swap its builder for K_{L-1,1}, whose
    # L-1 minimal elements lie below one top, so --p1-chain 13 is 12 wide
    # and --p2-chain 2 is still C_2
    monkeypatch.setattr(cli, "make_chain", lambda L: make_complete_multipartite((L - 1, 1)))
    code, out, _ = _run(capsys, "extract", "--what", "clear", "--n", "3", "--k", "2",
                        "--all-blue", "--p1-chain", "13")
    assert code == 0
    data = json.loads(out)
    assert data["p1_clear"] == [True] * 32
    assert data["p2_clear"] == [False] * 31 + [True]


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
    _assert_golden(capsys, "bound_spindle_1_2_1_n1024.txt",
                   "bound", "--spindle", "1,2,1", "--n", "1024")
    _assert_golden(capsys, "bound_spindle_0_1_0_n5.txt",
                   "bound", "--spindle", "0,1,0", "--n", "5")


def test_bound_multipartite_steps(capsys):
    _assert_golden(capsys, "bound_multipartite_2_2_n1024.txt",
                   "bound", "--multipartite", "2,2", "--n", "1024")
    # one-column steps have no k*
    _assert_golden(capsys, "bound_multipartite_1_1_n4.txt",
                   "bound", "--multipartite", "1,1", "--n", "4")


def test_bound_chain_and_antichain(capsys):
    _assert_golden(capsys, "bound_chain_3_n7.txt", "bound", "--chain", "3", "--n", "7")
    _assert_golden(capsys, "bound_antichain_4_n9.txt", "bound", "--antichain", "4", "--n", "9")


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
    err = capsys.readouterr().err
    assert "bound scan exceeded" in err and "warning" not in err


@pytest.mark.parametrize("shape", [("--spindle", "0,2,0"), ("--multipartite", "1,1")],
                         ids=" ".join)
def test_bound_refusal_prints_no_warning(capsys, shape):
    with pytest.raises(SystemExit) as info:
        _run(capsys, "bound", *shape, "--n", "0")
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "dimension must be positive" in err and "warning" not in err


@pytest.mark.parametrize("family", [("--chain", "3"), ("--antichain", "5")], ids=" ".join)
def test_bound_refuses_negative_n(capsys, family):
    # --antichain printed "bound = n + alpha = 3" for n = -1
    with pytest.raises(SystemExit) as info:
        _run(capsys, "bound", *family, "--n", "-1")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension must be nonnegative" in captured.err


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


@pytest.mark.parametrize("golden, what", [
    ("extract_chain_seed5_n2_k3.json",
     ("chain", "--n", "2", "--k", "3", "--random-seed", "5")),
    ("extract_family_allblue_n1_k2.json", ("family", "--n", "1", "--k", "2", "--all-blue")),
    ("extract_cover_allblue_n1_k2_shape_0_3_0.json",
     ("spindle", "--n", "1", "--k", "2", "--all-blue", "--shape", "0,3,0")),
    ("extract_clear_seed4_n2_k2.json", ("clear", "--n", "2", "--k", "2", "--random-seed", "4")),
], ids=["chain", "family", "cover", "clear"])
def test_extract_goldens(capsys, golden, what):
    _assert_golden(capsys, golden, "extract", "--what", *what)


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


@pytest.mark.parametrize("n, k, shape", [(2, 2, "2,2,2"), (1, 8, "5,2,5")])
@pytest.mark.parametrize("source", [("--all-red",), ("--all-blue",),
                                    ("--coloring", "no-such-file.txt")], ids=" ".join)
def test_extract_spindle_checks_the_shape_first(monkeypatch, capsys, n, k, shape, source):
    # r + t > k + 1: --all-red printed a red cube and --all-blue exited 2
    # only after the whole family (1.45 s at k = 8)
    def building(*args):
        raise AssertionError("built the chain family")

    monkeypatch.setattr(cli.extract, "collect_chain_family", building)
    with pytest.raises(SystemExit) as info:
        _run(capsys, "extract", "--what", "spindle", "--n", str(n), "--k", str(k), *source,
             "--shape", shape)
    assert info.value.code == 2
    r, _, t = map(int, shape.split(","))
    err = capsys.readouterr().err
    assert err.endswith(f"error: r + t = {r + t} exceeds the chain length k + 1 = {k + 1}\n")


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


@pytest.mark.parametrize("what", ["family", "spindle"])
def test_extract_family_refuses_k_past_the_ordering_cap(monkeypatch, capsys, what):
    # --k 10 listed 10! orderings before any check, and ran out of memory
    def listing(split):
        raise AssertionError(f"listed the orderings at k = {split.k}")

    monkeypatch.setattr(cli, "all_orderings", listing)
    argv = ("extract", "--what", what, "--n", "1", "--all-blue", "--shape", "0,1,0", "--k")
    with pytest.raises(SystemExit) as info:
        _run(capsys, *argv, "10")
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k! = 3628800 orderings, past the cap of 362880" in captured.err
    assert "Traceback" not in captured.err
    # 9! is within the cap
    with pytest.raises(AssertionError, match="at k = 9"):
        _run(capsys, *argv, "9")


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


def test_verify_cert_text_golden(tmp_path, capsys):
    cert_path, col_path = _write_cert_and_coloring(
        tmp_path, capsys, "spindle", 1, 2, "--shape", "1,2,1")
    argv = ("verify-cert", "--cert", str(cert_path), "--coloring", str(col_path))
    assert _run(capsys, *argv)[:2] == (0, (GOLDEN / "verify_cert_ok.txt").read_text())
    write_coloring(col_path, Coloring(3, 0))
    golden = (GOLDEN / "verify_cert_fail_spindle_all_red.txt").read_text()
    assert _run(capsys, *argv)[:2] == (1, golden)


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
    # a trailing slash names a directory: the path is not cut to a file name
    dir_path = f"{tmp_path / 'x'}/"
    for argv, path in [
        (("construct", "--chain", "3", "--out"), tmp_path / "missing" / "p.json"),
        (("exact", "--chain", "2", "--n", "1", "--witness-dir"), plain_file / "w"),
        (("bound", "--spindle", "1,2,1", "--n", "1024", "--out"), plain_file / "b.txt"),
        (("bound", "--chain", "3", "--n", "5", "--out"), plain_file / "c.txt"),
        (("exact", "--chain", "2", "--n", "2", "--out"), plain_file / "e.txt"),
        (("bound", "--chain", "2", "--n", "1", "--out"), dir_path),
        (("exact", "--chain", "2", "--n", "1", "--out"), dir_path),
    ]:
        with pytest.raises(SystemExit) as info:
            _run(capsys, *argv, str(path))
        assert info.value.code == 2
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # a refused --out leaves no witness file behind
    wdir = tmp_path / "w"
    out = tmp_path / "missing" / "e.txt"
    with pytest.raises(SystemExit) as info:
        _run(capsys, "exact", "--antichain", "2", "--n", "2", "--nmax", "4",
             "--witness-dir", str(wdir), "--out", str(out))
    assert info.value.code == 2
    assert str(out) in capsys.readouterr().err
    assert list(wdir.glob("witness_*")) == []
    # an empty --out is refused before the witness directory is made
    with pytest.raises(SystemExit) as info:
        _run(capsys, "exact", "--antichain", "2", "--n", "2", "--nmax", "4",
             "--witness-dir", str(tmp_path / "w2"), "--out", "")
    assert info.value.code == 2
    assert not (tmp_path / "w2").exists()
    # a refused witness path leaves neither --out nor the earlier witness files
    (wdir / "witness_N3.txt").mkdir(parents=True)
    out = tmp_path / "e.txt"
    with pytest.raises(SystemExit) as info:
        _run(capsys, "exact", "--antichain", "2", "--n", "2", "--nmax", "4",
             "--witness-dir", str(wdir), "--out", str(out))
    assert info.value.code == 2
    assert str(wdir / "witness_N3.txt") in capsys.readouterr().err
    assert not out.exists()
    assert [p.name for p in wdir.iterdir()] == ["witness_N3.txt"]


@pytest.mark.parametrize("argv", [
    ("construct", "--spindle", "1,2,1"),
    ("export-dot", "--boolean", "2"),
    *(("bound", *flags, *mode) for mode in ((), ("--json",)) for flags in (
        ("--spindle", "1,2,1", "--n", "1024"),
        ("--spindle", "0,1,0", "--n", "5"),
        ("--multipartite", "2,2", "--n", "1024"),
        ("--chain", "3", "--n", "5"),
        ("--antichain", "4", "--n", "9"),
    )),
    *(("exact", *flags, *mode) for mode in ((), ("--json",)) for flags in (
        ("--chain", "2", "--n", "2"),
        ("--antichain", "3", "--n", "1", "--nmax", "3"),
    )),
    *(("witness", "--n", "1", *flags, *mode) for mode in ((), ("--json",)) for flags in (
        ("--chain", "2", "--N", "1"),
        ("--boolean", "1", "--N", "2"),
    )),
    *(("extract", "--n", "1", "--k", "2", "--all-blue", "--what", *what) for what in (
        ("chain",), ("family",), ("spindle", "--shape", "1,2,1"), ("clear",),
    )),
], ids=" ".join)
def test_out_file_holds_exactly_what_stdout_would(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0 and out
    out_file = tmp_path / "out"
    assert _run(capsys, *argv, "--out", str(out_file)) == (code, "", err)
    assert out_file.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("fault", [AssertionError, InvariantViolation])
def test_internal_faults_are_not_usage_errors(monkeypatch, capsys, fault):
    def broken(*args, **kwargs):
        raise fault("internal")

    monkeypatch.setattr(cli, "ramsey_exact", broken)
    with pytest.raises(fault):
        main(["exact", "--chain", "2", "--n", "1"])


@pytest.mark.parametrize("argv", [
    ("exact", "--chain", "2", "--n", "1"),
    ("witness", "--chain", "2", "--n", "1", "--N", "1"),
], ids=" ".join)
def test_witness_failing_reverification_is_an_internal_fault(monkeypatch, argv):
    # one re-check in the search layer serves both commands; exit 1 would
    # read as a failed certificate
    monkeypatch.setattr(search, "verify_witness", lambda *args: VerifyResult(False))
    with pytest.raises(AssertionError, match="fails verification"):
        main(list(argv))


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
        ["witness", "--chain", "2", "--n", "1", "--N", "2", "--time-limit", "nan"],
        ["witness", "--chain", "2", "--n", "1", "--N", "2",
         "--max-nodes", "99999999999999999999"],
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


def test_node_budget_past_64_bits_is_a_usage_error_on_both_twins(
        compiled_kernels, monkeypatch, capsys):
    # the compiled twin counts nodes in a signed 64-bit word: a larger
    # budget was an OverflowError traceback there, while the pure twin ran
    argv = ["witness", "--chain", "2", "--n", "1", "--N", "2", "--max-nodes"]
    for twin in (pure, compiled_kernels):
        monkeypatch.setattr(search._kernels, "witness_search", twin.witness_search)
        assert _run(capsys, *argv, str(search.MAX_NODE_BUDGET))[0] == 0
        with pytest.raises(SystemExit) as info:
            _run(capsys, *argv, str(search.MAX_NODE_BUDGET + 1))
        assert info.value.code == 2
        assert f"node budget must be at most {search.MAX_NODE_BUDGET}" in capsys.readouterr().err


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


# ------------------------------------------------------------- parser reuse


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    """One parser serves every call: an interleaved run of all seven
    subcommands, usage errors and help included, gives what a parser built
    afresh for each call gives."""
    col_path = tmp_path / "c.txt"
    write_coloring(col_path, Coloring(3, 0b10110110))
    cert_path = str(tmp_path / "cert.json")
    argvs = [
        ["--help"],
        ["construct", "--chain", "3"],
        ["construct", "--chain", "3", "--antichain", "2"],  # clash after a success
        ["bound", "--spindle", "1,2,1", "--n", "1024", "--json"],
        ["bound", "--n", "5"],  # no formula chosen
        ["exact", "--antichain", "2", "--n", "1", "--json"],
        ["witness", "--chain", "3", "--n", "2", "--N", "4", "--max-nodes", "5"],
        ["witness", "--chain", "2", "--n", "1", "--N", "1", "--symmetry"],
        ["exact", "--chain", "65", "--n", "1"],  # refused by a handler
        ["extract", "--what", "chain", "--n", "1", "--k", "2", "--coloring", str(col_path),
         "--out", cert_path],
        ["verify-cert", "--cert", cert_path, "--coloring", str(col_path)],
        ["export-dot", "--boolean", "2"],
        ["exact", "--help"],
        ["witness", "--chain", "x", "--n", "1", "--N", "1"],
        ["bound", "--chain", "3", "--n", "5"],
    ]
    shared = [_outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in argvs]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 3, 0, 2, 0, 0, 0, 0, 2, 0]
