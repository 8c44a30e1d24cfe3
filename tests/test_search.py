"""Witness search and exact Ramsey computation against brute enumeration."""

from __future__ import annotations

import random

import pytest

from poset_ramsey.errors import SearchBudgetExceeded
from poset_ramsey.lattice import Coloring
from poset_ramsey.posets import Embedding, make_antichain, make_boolean_poset, make_chain
from poset_ramsey.search import (
    SearchBudget,
    find_colored_copy,
    find_witness,
    ground_permutation_tables,
    lex_plan,
    ramsey_exact,
    verify_witness,
)

from conftest import (
    all_colorings_lex,
    brute_first_witness,
    brute_has_colored_copy,
    brute_is_witness,
    check_colored_embedding,
)


def _small_targets():
    return [make_chain(2), make_chain(3), make_antichain(2),
            make_antichain(3), make_boolean_poset(1)]


# -------------------------------------------------------- colored copies


def test_find_colored_copy_against_brute_force():
    rng = random.Random(3)
    for trial in range(60):
        c = Coloring(3, rng.getrandbits(8))
        for target in _small_targets():
            for color in ("blue", "red"):
                emb = find_colored_copy(target, c, color)
                want = brute_has_colored_copy(target, c, blue=(color == "blue"))
                assert (emb is not None) == want
                if emb is not None:
                    assert check_colored_embedding(target, c, color, emb) == []


def test_check_colored_embedding_reports_each_defect():
    c = Coloring(2, 0b0111)  # vertex 3 red
    chain = make_chain(2)
    assert check_colored_embedding(chain, c, "blue", Embedding((0, 3))) != []
    assert check_colored_embedding(chain, c, "blue", Embedding((1, 1))) != []
    assert check_colored_embedding(chain, c, "blue", Embedding((1, 2))) != []  # incomparable
    assert check_colored_embedding(chain, c, "blue", Embedding((0,))) != []
    assert check_colored_embedding(chain, c, "blue", Embedding((0, 9))) != []
    assert check_colored_embedding(chain, c, "blue", Embedding((0, 1))) == []


# -------------------------------------------------------------- witnesses


def test_verify_witness_against_brute_force():
    rng = random.Random(5)
    p = make_chain(2)
    for trial in range(40):
        c = Coloring(2, rng.getrandbits(4))
        assert verify_witness(c, p, 1).ok == brute_is_witness(c, p, make_boolean_poset(1))


def test_verify_witness_reports_violation():
    p = make_chain(2)
    res = verify_witness(Coloring(1, 0b11), p, 1)
    assert not res.ok and res.violation_color == "blue"
    assert check_colored_embedding(p, Coloring(1, 0b11), "blue", res.violation) == []
    res = verify_witness(Coloring(1, 0b00), p, 1)
    assert not res.ok and res.violation_color == "red"


def test_verify_witness_rejects_wide_lattice_before_building(monkeypatch):
    import poset_ramsey.search as search

    def no_build(n):
        raise AssertionError("built the lattice before the width check")

    monkeypatch.setattr(search, "make_boolean_poset", no_build)
    with pytest.raises(ValueError, match="64"):
        verify_witness(Coloring(1, 0b00), make_chain(2), 10)


def test_find_witness_returns_least_color_string():
    """The search must return the same coloring as naive least-first
    enumeration of all color strings, whenever any witness exists."""
    cases = [(p, n, N)
             for p in _small_targets()
             for n in (1, 2)
             for N in (1, 2, 3)]
    for p, n, N in cases:
        want = brute_first_witness(p, make_boolean_poset(n), N)
        got = find_witness(p, n, N)
        assert got == want, (p, n, N)


def test_find_witness_symmetry_gives_identical_witness():
    for p in _small_targets():
        for n in (1, 2):
            for N in (2, 3):
                assert find_witness(p, n, N) == find_witness(p, n, N, symmetry=True)


def test_find_witness_validates_inputs():
    with pytest.raises(ValueError):
        find_witness(make_chain(0), 1, 1)
    with pytest.raises(ValueError):
        find_witness(make_chain(2), -1, 1)


def test_budget_exhaustion_raises_with_counts():
    budget = SearchBudget(max_nodes=3)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_witness(make_chain(3), 2, 4, budget=budget)
    assert info.value.kind == "nodes"
    assert info.value.nodes >= 3

    budget = SearchBudget(time_limit=1e-9)
    with pytest.raises(SearchBudgetExceeded) as info:
        find_witness(make_chain(3), 2, 4, budget=budget)
    assert info.value.kind == "time"


def test_search_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    for time_limit in (0, float("nan")):
        with pytest.raises(ValueError):
            SearchBudget(time_limit=time_limit)


# ------------------------------------------------------------ exact values


def test_ramsey_exact_frozen_small_values():
    q1 = make_boolean_poset(1)
    r = ramsey_exact(q1, 1, 4)
    assert r.status == "exact" and r.value == 2
    assert ramsey_exact(q1, 2, 4).value == 3

    assert ramsey_exact(make_chain(1), 1, 4).value == 1
    assert ramsey_exact(make_chain(2), 1, 4).value == 2
    assert ramsey_exact(make_chain(3), 1, 4).value == 3
    assert ramsey_exact(make_chain(2), 2, 4).value == 3

    assert ramsey_exact(make_antichain(2), 1, 4).value == 3
    assert ramsey_exact(make_antichain(2), 2, 4).value == 4
    assert ramsey_exact(make_antichain(3), 1, 4).value == 4


def test_ramsey_exact_witness_ladder():
    """One verified witness per dimension below the answer, none at it."""
    r = ramsey_exact(make_antichain(2), 2, 4)
    assert sorted(r.witnesses) == [2, 3]
    for N, w in r.witnesses.items():
        assert w.dim == N
        assert verify_witness(w, make_antichain(2), 2).ok
    assert r.lower_bound == 4
    assert r.nodes_used > 0


def test_ramsey_exact_matches_brute_scan():
    q1 = make_boolean_poset(1)
    for p in (make_chain(2), make_antichain(2), q1):
        for N in range(1, 4):
            has_witness = brute_first_witness(p, q1, N) is not None
            r = ramsey_exact(p, 1, N)
            if r.status == "exact":
                assert r.value <= N
                assert not has_witness or r.value > N - 1
            else:
                assert r.status == "lower_bound" and has_witness


def test_ramsey_exact_lower_bound_status():
    r = ramsey_exact(make_antichain(3), 1, 3)
    assert r.status == "lower_bound"
    assert r.value is None
    assert r.lower_bound == 4
    assert sorted(r.witnesses) == [1, 2, 3]


def test_ramsey_exact_inconclusive_status():
    r = ramsey_exact(make_chain(3), 2, 5, budget=SearchBudget(max_nodes=10))
    assert r.status == "inconclusive"
    assert r.inconclusive_at is not None
    assert r.nodes_used >= 10


def test_ramsey_exact_symmetry_same_answers_and_witnesses():
    for p in (make_boolean_poset(1), make_antichain(2)):
        plain = ramsey_exact(p, 2, 4)
        pruned = ramsey_exact(p, 2, 4, symmetry=True)
        assert plain.status == pruned.status == "exact"
        assert plain.value == pruned.value
        assert plain.witnesses == pruned.witnesses


def test_ramsey_exact_symmetry_scan_stops_at_the_cap():
    # R(C_2, Q_6) = 7: the scan used to search N = 6, then refuse N = 7
    r = ramsey_exact(make_chain(2), 6, 9, symmetry=True)
    assert (r.status, r.lower_bound, sorted(r.witnesses)) == ("lower_bound", 7, [6])
    assert r.witnesses == ramsey_exact(make_chain(2), 6, 6).witnesses
    with pytest.raises(ValueError, match="lattice target posets are capped"):
        ramsey_exact(make_chain(2), 7, 9, symmetry=True)


# ---------------------------------------------------------------- helpers


def test_ground_permutation_tables_are_permutations():
    for N in (1, 2, 3):
        tables = ground_permutation_tables(N)
        assert isinstance(tables, tuple)
        assert all(isinstance(table, bytes) for table in tables)
        tables = [list(table) for table in tables]
        # all of S_N except the identity, acting on vertex masks
        import math
        assert len(tables) == math.factorial(N) - 1
        for table in tables:
            assert sorted(table) == list(range(1 << N))
            assert table != list(range(1 << N))
            # closed under inverse: the inverse relabeling is present too
            inverse = [0] * len(table)
            for v, image in enumerate(table):
                inverse[image] = v
            assert inverse in tables or inverse == list(range(1 << N))


def test_ground_permutation_tables_built_once():
    for N in (0, 3, 6):
        assert ground_permutation_tables(N) is ground_permutation_tables(N)


def test_lex_plan_built_once_per_dimension():
    # no non-identity permutation below dimension 2, so no plan
    assert lex_plan(0) is None and lex_plan(1) is None
    for N in (3, 6):
        plan = lex_plan(N)
        assert plan is lex_plan(N)
        # the plan shares the cached tables rather than copying them
        ids = {id(table) for table in ground_permutation_tables(N)}
        assert all(id(table) in ids for table in plan.table)


def test_ground_permutation_tables_cap():
    # a refusal is not cached: every call past the cap raises
    for _ in range(2):
        with pytest.raises(ValueError):
            ground_permutation_tables(7)


def test_all_colorings_oracle_orders_strings():
    seen = [c.bits for c in all_colorings_lex(1)]
    # color strings 00,01,10,11 with vertex 0 leftmost
    assert seen == [0b00, 0b10, 0b01, 0b11]
