"""Pure-Python and compiled kernels must be drop-in twins.

Every test that exercises both backends demands bit-for-bit identical
results, including visited node counts, so either backend can stand in for
the other without changing observable behavior anywhere upstream.  The
``kernel_backends`` and ``compiled_kernels`` fixtures (conftest.py) build the
compiled twin from ``_ckernels.c`` with ``setup.py build_ext``.
"""

from __future__ import annotations

import inspect
import os
import random
import subprocess
import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

from poset_ramsey._kernels import STATUS_BUDGET, STATUS_FOUND, STATUS_NONE, STATUS_TIMEOUT
from poset_ramsey._kernels import pure
from poset_ramsey.lattice import Coloring
from poset_ramsey.posets import (
    Poset,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
    make_spindle,
)
from poset_ramsey.search import ground_permutation_tables, witness_search_args

from conftest import brute_first_witness, brute_has_copy_in_masks, brute_is_witness, random_poset


def _relations(p):
    return list(p.down), list(p.up)


def _search_args(p, n, N, symmetry=False, max_nodes=1 << 30, time_limit=0.0):
    return (*witness_search_args(p, n, N, symmetry), max_nodes, time_limit)


# ------------------------------------------------------- find_induced_copy


def test_find_induced_copy_against_brute_force(kernel_backends):
    rng = random.Random(11)
    targets = [make_chain(2), make_chain(3), make_antichain(2),
               make_antichain(3), make_boolean_poset(1), make_spindle((1, 2, 1))]
    for backend in kernel_backends.values():
        for trial in range(60):
            hosts = sorted(rng.sample(range(16), rng.randint(1, 9)))
            for target in targets:
                below, above = _relations(target)
                got = backend.find_induced_copy(below, above, hosts)
                assert (got is not None) == brute_has_copy_in_masks(target, hosts)
                if got is not None:
                    assert len(set(got)) == target.size
                    for i in range(target.size):
                        assert got[i] in hosts
                        for j in range(target.size):
                            if i != j:
                                a, b = got[i], got[j]
                                assert target.lt(i, j) == (a != b and a & b == a)


def test_find_induced_copy_empty_target(kernel_backends):
    for backend in kernel_backends.values():
        assert backend.find_induced_copy([], [], [0, 1]) == []


def test_find_induced_copy_anchor_is_respected(kernel_backends):
    chain = make_chain(3)
    below, above = _relations(chain)
    hosts = [0b00, 0b01, 0b11, 0b10]
    for backend in kernel_backends.values():
        # anchor the middle chain element at mask 0b01
        got = backend.find_induced_copy(below, above, hosts, 1, 0b01)
        assert got is not None and got[1] == 0b01
        # mask 0b10 has nothing below it among the hosts
        assert backend.find_induced_copy(below, above, hosts, 2, 0b10) is None


def test_find_induced_copy_backends_agree(compiled_kernels):
    rng = random.Random(23)
    targets = [make_chain(3), make_antichain(3), make_boolean_poset(2), make_spindle((1, 2, 1))]
    cases = []
    for trial in range(120):
        hosts = sorted(rng.sample(range(32), rng.randint(1, 12)))
        cases.append((targets[trial % len(targets)], hosts, trial % 3 == 0))
    # random targets of up to 7 elements among up to 64 vertices of Q_6
    for trial in range(600):
        hosts = sorted(rng.sample(range(64), rng.randint(1, 64)))
        cases.append((random_poset(rng, rng.randint(1, 7)), hosts, trial % 2 == 0))
    found = 0
    for target, hosts, anchored in cases:
        below, above = _relations(target)
        anchor_idx = -1
        anchor_mask = 0
        if anchored:
            anchor_idx = rng.randrange(target.size)
            anchor_mask = rng.choice(hosts)
        a = pure.find_induced_copy(below, above, hosts, anchor_idx, anchor_mask)
        b = compiled_kernels.find_induced_copy(below, above, hosts, anchor_idx, anchor_mask)
        assert a == b
        found += a is not None
    # both verdicts are well represented
    assert 100 < found < len(cases) - 100


# ---------------------------------------------------------- witness_search


def _grid():
    yield make_chain(2), 1, 1, False
    yield make_chain(2), 1, 2, False
    yield make_chain(3), 1, 2, False
    yield make_chain(3), 2, 3, False
    yield make_antichain(2), 1, 2, False
    yield make_antichain(2), 2, 3, False
    yield make_antichain(3), 1, 3, False
    yield make_chain(3), 2, 4, False
    yield make_antichain(2), 2, 4, False
    yield make_antichain(3), 1, 4, False
    yield make_boolean_poset(1), 1, 1, False
    yield make_boolean_poset(1), 1, 2, False
    yield make_boolean_poset(1), 2, 2, False
    yield make_boolean_poset(1), 2, 3, True
    yield make_chain(3), 2, 3, True
    yield make_antichain(2), 2, 3, True
    yield make_spindle((1, 2, 1)), 1, 3, True
    yield make_chain(3), 2, 4, True
    yield make_boolean_poset(2), 2, 4, True
    yield make_complete_multipartite((1, 2)), 2, 4, True
    yield make_antichain(3), 2, 5, True
    yield make_boolean_poset(2), 2, 5, True
    yield make_chain(4), 2, 5, True
    # several maximal elements: a checked copy may top out at any of them;
    # K_{3,1} beside a point, and a connected poset with two maxima
    yield Poset(5, (16, 16, 16, 0, 0)), 2, 4, False
    yield Poset(5, (0, 5, 0, 1, 1)), 1, 4, False
    # twin maxima (equal down-sets), one anchored check per class: the top
    # layers of K_{1,2} and K_{2,3}, an antichain, and a spindle's antichain
    yield make_complete_multipartite((1, 2)), 1, 4, False
    yield make_complete_multipartite((1, 2)), 2, 5, True
    yield make_complete_multipartite((2, 3)), 1, 4, False
    yield make_complete_multipartite((2, 3)), 2, 5, True
    yield make_antichain(4), 1, 4, False
    yield make_antichain(4), 3, 5, True
    yield make_spindle((1, 3, 0)), 1, 4, False
    yield make_spindle((1, 3, 0)), 2, 5, True
    # near-twins: maxima with different down-sets, each checked; a 2-chain
    # beside two points (the points are twins, the chain's top is not), and
    # two disjoint 2-chains
    yield Poset(4, (2, 0, 0, 0)), 2, 4, False
    yield Poset(4, (2, 0, 0, 0)), 2, 5, True
    yield Poset(4, (4, 8, 0, 0)), 1, 4, False


def _brute_anchors(p, N):
    """The least element of each class of maximal elements with equal
    down-sets, by definition; none when p has a chain of more than N + 1
    elements or an antichain of more than C(N, N // 2), which Q_N does not."""
    def longest(e):  # elements in the longest chain topped at e
        return 1 + max((longest(f) for f in range(p.size) if p.lt(f, e)), default=0)

    def antichain(s):
        return not any(p.lt(e, f) for e in s for f in s)

    widest = max(len(s) for r in range(p.size + 1)
                 for s in combinations(range(p.size), r) if antichain(s))
    if max(map(longest, range(p.size)), default=0) > N + 1 or widest > comb(N, N // 2):
        return 0
    classes = {}
    for e in range(p.size):
        if not any(p.lt(e, f) for f in range(p.size)):
            classes.setdefault(frozenset(f for f in range(p.size) if p.lt(f, e)), e)
    return sum(1 << e for e in classes.values())


def test_anchor_masks_against_brute_force():
    rng = random.Random(29)
    cases = [(p, n, N) for p, n, N, _ in _grid()]
    cases += [(random_poset(rng, rng.randint(1, 8)), rng.randint(0, 3), rng.randint(0, 6))
              for _ in range(300)]
    unfit = Counter()
    for p, n, N in cases:
        args = witness_search_args(p, n, N, False)
        assert args[3] == _brute_anchors(p, N)
        assert args[6] == _brute_anchors(make_boolean_poset(n), N)
        unfit.update(p=args[3] == 0, q=args[6] == 0,
                     wide=args[3] == 0 and max(p.heights) <= N)
    # both targets fail to fit the lattice in some cases, some by width alone
    assert unfit["p"] > 10 and unfit["q"] > 10 and unfit["wide"] > 10


def _assert_twins_agree(compiled_kernels, p, n, N, symmetry, **budget):
    """Both twins give one result, and a found coloring is a witness by
    brute force (up to N = 4): no leaf re-checks what the anchored checks
    ruled out."""
    args = _search_args(p, n, N, symmetry, **budget)
    results = [pure.witness_search(*args), compiled_kernels.witness_search(*args)]
    assert results[0] == results[1]
    if N <= 4:
        q = make_boolean_poset(n)
        for status, bits, _ in results:
            if status == STATUS_FOUND:
                assert brute_is_witness(Coloring(N, bits), p, q)


def test_witness_search_backends_agree_exactly(compiled_kernels):
    for p, n, N, symmetry in _grid():
        _assert_twins_agree(compiled_kernels, p, n, N, symmetry)


def test_witness_search_backends_agree_under_budget(compiled_kernels):
    cases = [
        (make_chain(3), 2, 4, False),
        (make_chain(3), 2, 4, True),
        (make_boolean_poset(2), 2, 5, True),
        (make_complete_multipartite((1, 2)), 3, 5, True),
    ]
    for p, n, N, symmetry in cases:
        for max_nodes in (1, 2, 7, 50, 500):
            args = _search_args(p, n, N, symmetry, max_nodes=max_nodes)
            a = pure.witness_search(*args)
            b = compiled_kernels.witness_search(*args)
            assert a == b
            if a[0] == STATUS_BUDGET:
                assert a[2] >= max_nodes


def test_twin_maxima_share_a_check_but_not_the_memo(kernel_backends):
    """Twin maxima need one anchored check, but the memo stays off unless
    the target has a single maximal element: a copy may put another twin
    outside the anchored vertex's down-set, so the color class below that
    vertex does not decide the check.  Brute force gives the least witness;
    a memo on these targets misses copies and returns another coloring, or
    a witness where none exists (K_{1,2} against Q_1 at N = 3)."""
    cases = [
        (make_antichain(2), 1, 2),
        (make_antichain(2), 2, 3),
        (make_antichain(3), 1, 3),
        (make_complete_multipartite((1, 2)), 1, 3),
        (make_spindle((1, 3, 0)), 0, 3),
    ]
    for p, n, N in cases:
        want = brute_first_witness(p, make_boolean_poset(n), N)
        expected = (STATUS_NONE, 0) if want is None else (STATUS_FOUND, want.bits)
        for backend in kernel_backends.values():
            assert backend.witness_search(*_search_args(p, n, N))[:2] == expected


def _memo_grid():
    """Random targets of up to 5 elements, half with a unique maximum, whose
    blue top checks go through the pure twin's memo, half without."""
    rng = random.Random(1313)
    unique, several = [], []
    while len(unique) < 5 or len(several) < 5:
        p = random_poset(rng, rng.randint(1, 5))
        group = unique if len(p.maximal_elements()) == 1 else several
        if len(group) < 5:
            group.append(p)
    for p in unique + several:
        for n, N in ((0, 2), (1, 2), (1, 3), (2, 3), (2, 4)):
            for symmetry in (False, True):
                yield p, n, N, symmetry


def _assert_memo_parity(compiled_kernels):
    for p, n, N, symmetry in _memo_grid():
        for max_nodes in (1, 7, 500):
            _assert_twins_agree(compiled_kernels, p, n, N, symmetry, max_nodes=max_nodes)


def test_witness_search_memo_agrees_with_compiled(compiled_kernels):
    """The compiled twin has no anchored-check memo, so it is the oracle."""
    _assert_memo_parity(compiled_kernels)


def test_witness_search_memo_clearing_agrees_with_compiled(compiled_kernels, monkeypatch):
    monkeypatch.setattr(pure, "_MEMO_ENTRIES", 4)
    _assert_memo_parity(compiled_kernels)


def test_witness_search_deep_budgeted_agrees_with_compiled(compiled_kernels):
    """C_4 vs Q_3 at N=6 runs out of a 100k-node budget in both twins alike."""
    args = _search_args(make_chain(4), 3, 6, max_nodes=100_000)
    result = pure.witness_search(*args)
    assert result == compiled_kernels.witness_search(*args)
    assert result[0] == STATUS_BUDGET


def test_witness_search_frozen_node_counts(kernel_backends):
    """Node totals are part of the kernel contract; drift means the search
    order changed, which would silently break witness reproducibility."""
    expected = {
        (0, False): 17,      # Q1 vs Q1 scan at N=1..2
        (1, True): 63,       # Q1 vs Q2, symmetry on
    }
    # per-N nodes of symmetric `ramsey exact` scans: witnesses below the
    # value, none at it
    scans = [
        (make_complete_multipartite((1, 2)), 3, [9, 21, 8272]),  # --multipartite 1,2 --n 3
        (make_chain(4), 2, [5, 12, 27, 5492]),                   # --chain 4 --n 2
        (make_boolean_poset(2), 2, [5, 12, 1168]),               # R(Q_2, Q_2) = 4
    ]
    for backend in kernel_backends.values():
        q1 = make_boolean_poset(1)
        status, bits, nodes = backend.witness_search(*_search_args(q1, 1, 1))
        total = nodes
        status2, _, nodes2 = backend.witness_search(*_search_args(q1, 1, 2))
        total += nodes2
        assert (status, status2) == (STATUS_FOUND, STATUS_NONE)
        assert total == expected[(0, False)]

        s1, _, n1 = backend.witness_search(*_search_args(q1, 2, 2, symmetry=True))
        s2, _, n2 = backend.witness_search(*_search_args(q1, 2, 3, symmetry=True))
        assert (s1, s2) == (STATUS_FOUND, STATUS_NONE)
        assert n1 + n2 == expected[(1, True)]

        for p, n, per_dim in scans:
            got = [backend.witness_search(*_search_args(p, n, N, symmetry=True))
                   for N in range(n, n + len(per_dim))]
            assert [status for status, _, _ in got] == [STATUS_FOUND] * (len(per_dim) - 1) + [STATUS_NONE]
            assert [nodes for _, _, nodes in got] == per_dim

        # symmetric searches that close at N = 6, where groups split past
        # position 8; a budgeted search would read the same whatever it pruned
        for p, n, nodes in [
            (make_antichain(3), 2, 312),
            (make_spindle((1, 2, 1)), 2, 1168),
            (make_complete_multipartite((2, 2)), 2, 326_494),
        ]:
            got = backend.witness_search(*_search_args(p, n, 6, symmetry=True))
            assert got == (STATUS_NONE, 0, nodes)


def test_witness_search_deeper_than_recursion_limit(kernel_backends):
    """A search 2^N vertices deep runs under a recursion limit far below 2^N.

    C_7 vs Q_1 at N=6: bottom red, every other vertex blue (a red one
    would sit above the red bottom), and no 7-chain avoids the bottom."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    args = _search_args(make_chain(7), 1, 6)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)  # 64 nested levels would not fit
    try:
        results = [backend.witness_search(*args) for backend in kernel_backends.values()]
    finally:
        sys.setrecursionlimit(limit)
    for result in results:
        assert result == (STATUS_FOUND, (1 << 64) - 2, 127)


def test_witness_search_wide_witness_bits(kernel_backends):
    """Found-witness masks must stay exact past any C integer width.

    K_{3,4,2} vs Q_1 stays witnessed at N=5 and N=6, and the least witness
    is everything-but-bottom blue, so the packed mask exercises vertex
    indices 31 and 63 (the 32-bit and 64-bit edges).  The pure twin has no
    width edges, so it only runs the cheap N=5 case."""
    k342 = make_complete_multipartite((3, 4, 2))
    cases = [(name, backend, 5) for name, backend in kernel_backends.items()]
    if "compiled" in kernel_backends:
        cases.append(("compiled", kernel_backends["compiled"], 6))
    for name, backend, N in cases:
        status, bits, nodes = backend.witness_search(*_search_args(k342, 1, N))
        assert status == STATUS_FOUND, name
        assert bits == (1 << (1 << N)) - 2, name
        assert nodes == (1 << N) * 2 - 1, name


def test_witness_search_statuses(kernel_backends):
    for backend in kernel_backends.values():
        args = _search_args(make_chain(2), 1, 1)
        status, bits, nodes = backend.witness_search(*args)
        assert status == STATUS_FOUND and bits == 2

        args = _search_args(make_boolean_poset(1), 1, 2)
        status, bits, nodes = backend.witness_search(*args)
        assert status == STATUS_NONE and bits == 0

        args = _search_args(make_chain(3), 2, 4, max_nodes=1)
        status, _, nodes = backend.witness_search(*args)
        assert status == STATUS_BUDGET and nodes >= 1

        args = _search_args(make_chain(3), 2, 4, time_limit=1e-9)
        status, _, nodes = backend.witness_search(*args)
        # the deadline is read on every node, not every 1,024th
        assert status == STATUS_TIMEOUT and nodes < 1024


def test_symmetry_tables_do_not_change_results(kernel_backends):
    for backend in kernel_backends.values():
        for p, n, N, _ in _grid():
            if N > 3:
                continue
            plain = backend.witness_search(*_search_args(p, n, N, symmetry=False))
            pruned = backend.witness_search(*_search_args(p, n, N, symmetry=True))
            # statuses and witness bits agree; node counts may differ
            assert plain[0] == pruned[0]
            assert plain[1] == pruned[1]
            assert pruned[2] <= plain[2]


@lru_cache(maxsize=None)
def _vertex_tables(num_bits):
    """Every non-identity ground-set permutation's vertex table, built here
    without ``ground_permutation_tables``, which stops at dimension 6."""
    tables = []
    for perm in permutations(range(num_bits)):
        if list(perm) != sorted(perm):
            table = bytearray(1 << num_bits)
            for v in range(1, 1 << num_bits):
                low = v & -v
                table[v] = table[v ^ low] | 1 << perm[low.bit_length() - 1]
            tables.append(bytes(table))
    return tuple(tables)


def test_witness_search_twins_agree_at_dimension_7(compiled_kernels):
    """Both twins read the plan of the 5,039 tables at N = 7 and prune
    alike, though the search layer caps symmetry at dimension 6."""
    assert _vertex_tables(6) == ground_permutation_tables(6)
    tables = _vertex_tables(7)
    assert len(tables) == 5039
    plan = pure.lex_groups(tables)
    for p in (make_chain(5), make_complete_multipartite((2, 2))):
        args = _search_args(p, 3, 7, max_nodes=20_000)
        args = (*args[:7], plan, *args[8:])
        result = pure.witness_search(*args)
        assert result == compiled_kernels.witness_search(*args)
        assert result == (STATUS_BUDGET, 0, 20_001)


def _random_tables(rng, num_bits, count, fixed=0):
    """Random vertex permutations that fix the vertices below ``fixed``.
    With none fixed they move vertex 0 and so part the tables at position
    0 already."""
    volume = 1 << num_bits
    rest = range(fixed, volume)
    return tuple(bytes(range(fixed)) + bytes(rng.sample(rest, len(rest))) for _ in range(count))


def _assert_prefix_tree(tables):
    """``lex_groups(tables)`` is a prefix tree of the tables; returns its
    group count."""
    plan = pure.lex_groups(tables)
    volume = len(tables[0])
    n = len(plan.start)
    assert all(col.typecode == "i" and len(col) == n for col in plan[:4])
    assert len(plan.table) == n and plan.start[0] == 0
    # the tables are the ones passed in, not copies
    assert {id(t) for t in plan.table} <= {id(t) for t in tables}
    # the kid spans follow their parents and, in order, tile groups 1..n-1
    spans = [range(plan.kid[g], plan.kid[g] + plan.nkids[g]) for g in range(n)]
    assert [k for span in spans for k in span] == list(range(1, n))
    assert all(span.start > g for g, span in enumerate(spans) if span)
    # members[g]: g's tables, gathered from the leaves up
    count = Counter(tables)
    members = [[] for _ in range(n)]
    for g in reversed(range(n)):
        split = plan.split[g]
        if not spans[g]:
            assert split == volume
            members[g] = [plan.table[g]] * count[plan.table[g]]
        else:
            # the subgroups part the members in table order, start at the
            # split, and differ from each other there
            members[g] = [t for k in spans[g] for t in members[k]]
            assert all(plan.start[k] == split for k in spans[g])
            heads = [plan.table[k][split] for k in spans[g]]
            assert heads == sorted(set(heads)) and len(heads) > 1
        assert plan.table[g] == min(members[g])
        # the members agree on every position before the split
        assert all(t[:split] == members[g][0][:split] for t in members[g])
    # every table lies in exactly one leaf
    assert sorted(members[0]) == sorted(tables)
    return n


def test_lex_groups_form_a_prefix_tree():
    rng = random.Random(3)
    for N in range(2, 7):
        _assert_prefix_tree(ground_permutation_tables(N))
    for N in (3, 5):
        _assert_prefix_tree(_random_tables(rng, N, 12))
    _assert_prefix_tree(_random_tables(rng, 5, 12, fixed=9))
    assert _assert_prefix_tree(_vertex_tables(7)) == 8658


def _rescan_search(p, q, num_bits, tables):
    """The kernels' (status, witness bits, nodes) by definition: copies are
    found by brute force among the colored vertices, and every table is
    compared from vertex 0 at every node."""
    colors = []
    nodes = 0

    def accepted(v):
        c = colors[v]
        if brute_has_copy_in_masks(q if c == 0 else p, [u for u in range(v + 1) if colors[u] == c]):
            return False
        for table in tables:
            for pos in range(v + 1):
                u = table[pos]
                if u > v:
                    break
                if colors[u] != colors[pos]:
                    if colors[u] < colors[pos]:
                        return False
                    break
        return True

    def descend(v):
        nonlocal nodes
        for c in (0, 1):
            nodes += 1
            colors.append(c)
            if accepted(v) and (v == (1 << num_bits) - 1 or descend(v + 1)):
                return True
            colors.pop()
        return False

    if descend(0):
        return STATUS_FOUND, sum(c << u for u, c in enumerate(colors)), nodes
    return STATUS_NONE, 0, nodes


def test_lex_leader_matches_a_rescan_of_every_table(kernel_backends):
    """Grouping the tables changes no pruning decision.  Both twins give the
    result of a search that rescans every table at every node: on the
    ground-set tables and on random vertex permutations, at N = 3, and at
    N = 5, where tables have 32 positions.  The ground-set tables split at
    vertices 1, 2, 4 and 8 only, so random ones that fix vertices 0..8 make
    groups split past position 8; there, a group that decides one position
    more from its least table alone is caught by antichain 3 vs Q_2."""
    rng = random.Random(7)
    randoms = _random_tables(rng, 3, 12)
    assert len({table[0] for table in randoms}) > 1
    spread = _random_tables(rng, 5, 12)
    late = _random_tables(rng, 5, 12, fixed=9)
    assert pure.lex_groups(late).split[0] > 8
    small = [
        (make_chain(2), 1), (make_chain(3), 1), (make_antichain(2), 1),
        (make_antichain(3), 1), (make_complete_multipartite((1, 2)), 1),
    ]
    wide = [
        (make_antichain(3), 2), (make_antichain(4), 1),
        (make_complete_multipartite((1, 2)), 2), (make_chain(3), 2),
    ]
    cases = [(3, tables, small) for tables in (ground_permutation_tables(3), randoms, randoms[:2])]
    cases += [(5, ground_permutation_tables(5), wide),
              (5, spread, [(make_antichain(3), 2)]),
              (5, late, [(make_antichain(3), 2)])]
    pruned = 0
    for N, tables, targets in cases:
        plan = pure.lex_groups(tables)
        for p, n in targets:
            q = make_boolean_poset(n)
            want = _rescan_search(p, q, N, tables)
            assert want[0] == STATUS_NONE or N == 3
            pruned += want != _rescan_search(p, q, N, ())
            args = _search_args(p, n, N)
            args = (*args[:7], plan, *args[8:])
            for backend in kernel_backends.values():
                assert backend.witness_search(*args) == want
    # the tables prune somewhere, so the comparison means something
    assert pruned >= 19


def test_table_order_does_not_change_searches(kernel_backends):
    """Plans of shuffled tables, in a tuple or a list, give the same search
    in both twins."""
    rng = random.Random(5)
    cases = [
        (make_chain(4), 2, 5),
        (make_complete_multipartite((1, 2)), 3, 5),
        (make_boolean_poset(2), 2, 4),
        (make_antichain(3), 2, 5),
    ]
    for p, n, N in cases:
        args = _search_args(p, n, N, symmetry=True)
        shuffled = list(ground_permutation_tables(N))
        rng.shuffle(shuffled)
        want = pure.witness_search(*args)
        for tables in (tuple(shuffled), shuffled):
            plan = pure.lex_groups(tables)
            assert plan == args[7]
            for backend in kernel_backends.values():
                assert backend.witness_search(*args[:7], plan, *args[8:]) == want


def test_pure_search_touches_only_the_vertices_it_reaches():
    """C_2 against Q_0 closes in a few nodes at N = 24; per-vertex lists
    of 2^24 entries each took the pure twin to a 272 MB peak."""
    code = (
        "import resource, sys\n"
        "from poset_ramsey.cli import main\n"
        "code = main(['witness', '--chain', '2', '--n', '0', '--N', '24'])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "peak = peak if sys.platform == 'darwin' else peak * 1024\n"
        "try:  # this image's own peak: Linux's ru_maxrss keeps the parent's across exec\n"
        "    with open('/proc/self/status') as f:\n"
        "        peak = next(int(l.split()[1]) << 10 for l in f if l.startswith('VmHWM:'))\n"
        "except OSError:\n"
        "    pass\n"
        "print(code, peak)\n"
    )
    src = str(Path(pure.__file__).resolve().parents[2])
    env = dict(os.environ, POSET_RAMSEY_BACKEND="pure", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # measure the pure twin alone, without a preloaded sanitizer runtime
    env.pop("LD_PRELOAD", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "no witness at dimension 24"
    code, peak = map(int, lines[-1].split())
    assert code == 0
    assert peak < 100 << 20


def test_compiled_rejects_malformed_arguments(compiled_kernels):
    """The C twin checks sizes and indices before it touches its arrays."""
    find = compiled_kernels.find_induced_copy
    for args, error in [
        (([0] * 65, [0] * 65, [1]), ValueError),      # past the 64-bit words
        (([0], [0, 0], [1]), ValueError),             # below and above differ
        (([0], [0], [1], 1, 1), ValueError),          # anchor outside the target
        (([0], [0], [-1]), OverflowError),            # host below 0
        (([0], [0], [1 << 64]), OverflowError),       # host past 64 bits
    ]:
        with pytest.raises(error):
            find(*args)
    good = _search_args(make_chain(2), 1, 3, symmetry=True)
    plan = good[7]
    # at N = 3, group 0 splits at position 1 into groups 1..3, and groups
    # 4 and 5 part group 2 at position 2
    assert (plan.split[0], plan.kid[0], plan.nkids[0]) == (1, 1, 3)
    assert (plan.split[2], plan.kid[2], plan.nkids[2]) == (2, 4, 2)
    last = len(plan.start) - 1

    def column(name, index, value, base=plan):
        col = array("i", getattr(base, name))
        col[index] = value
        return base._replace(**{name: col})

    def table(index, value):
        return plan._replace(table=plan.table[:index] + (value,) + plan.table[index + 1:])

    hostile = [
        table(0, b"\x08" + plan.table[0][1:]),            # byte past 2^N at group 0's start
        table(last, plan.table[last][:7] + b"\x08"),      # byte past 2^N before a leaf's split
        table(1, plan.table[1][:7]),                      # table shorter than 2^N
        table(1, plan.table[1] + b"\x00"),                # table longer than 2^N
        table(1, bytearray(plan.table[1])),               # table not bytes
        column("split", 2, 0),                            # split before start
        column("split", last, 9),                         # split past 2^N
        column("nkids", 1, len(plan.start)),              # kid span past the group count
        column("kid", 2, 2, column("nkids", 0, 1)),       # kid span not after its parent
        column("kid", 2, 3),                              # kid span overlapping another
        column("start", 2, 2),                            # kid start != parent's split
        column("start", 0, 1),                            # group 0 not starting at 0
        plan._replace(start=list(plan.start)),            # column not a buffer
        plan._replace(kid=array("q", plan.kid)),          # column of 64-bit ints
        plan._replace(nkids=plan.nkids[:-1]),             # columns of unequal length
        plan._replace(table=5),                           # tables not a sequence
        plan._replace(table=plan.table[:-1]),             # one table short
        plan[:4],                                         # no tables
        ground_permutation_tables(3),                     # tables, not a plan
    ]
    for value in [31, 1]:                                 # past int32 vertices; another N
        with pytest.raises(ValueError):
            compiled_kernels.witness_search(value, *good[1:])
    for value in hostile:
        with pytest.raises((ValueError, TypeError)):
            compiled_kernels.witness_search(*good[:7], value, *good[8:])
    for index in (3, 6):                                  # p_anchors, q_anchors
        m = len(good[index - 2])
        for value, error in [
            (1 << m, ValueError),                         # bit past the target
            (-1, OverflowError),                          # negative
            (1 << 64, OverflowError),                     # past 64 bits
            ("1", TypeError),                             # not an int
        ]:
            with pytest.raises(error):
                compiled_kernels.witness_search(*good[:index], value, *good[index + 1:])
    assert compiled_kernels.witness_search(*good) == pure.witness_search(*good)


def test_twins_share_parameter_names(compiled_kernels):
    """Callers pass arguments by position, so a reordering in one twin would
    pass every parity test.  The C twin's names come from its text signature,
    and a call by keyword checks them against its keyword list."""
    calls = {
        "find_induced_copy": (*_relations(make_chain(2)), [0, 1, 3], 1, 3),
        "witness_search": _search_args(make_chain(2), 1, 2, symmetry=True),
    }
    for name, args in calls.items():
        names = list(inspect.signature(getattr(pure, name)).parameters)
        assert list(inspect.signature(getattr(compiled_kernels, name)).parameters) == names
        kwargs = dict(zip(names, args, strict=True))
        for twin in (pure, compiled_kernels):
            assert getattr(twin, name)(**kwargs) == getattr(twin, name)(*args)
