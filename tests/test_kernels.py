"""Pure-Python and compiled kernels must be drop-in twins.

Every test that exercises both backends demands bit-for-bit identical
results, including visited node counts, so either backend can stand in for
the other without changing observable behavior anywhere upstream.  The
``kernel_backends`` and ``compiled_kernels`` fixtures (conftest.py) build the
compiled twin from ``_ckernels.c`` with ``setup.py build_ext``.
"""

from __future__ import annotations

import random
import sys

import pytest

from poset_ramsey._kernels import STATUS_BUDGET, STATUS_FOUND, STATUS_NONE, STATUS_TIMEOUT
from poset_ramsey._kernels import pure
from poset_ramsey.posets import (
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
    make_spindle,
)
from poset_ramsey.search import ground_permutation_tables

from conftest import brute_has_copy_in_masks, random_poset


def _relations(p):
    return list(p.down), list(p.up)


def _search_args(p, n, N, symmetry=False, max_nodes=1 << 30, time_limit=0.0):
    p_below, p_above = _relations(p)
    q_below, q_above = _relations(make_boolean_poset(n))
    tables = ground_permutation_tables(N) if symmetry else []
    return (
        N,
        p_below,
        p_above,
        p.maximal_elements(),
        q_below,
        q_above,
        (1 << n) - 1,
        tables,
        max_nodes,
        time_limit,
    )


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


def test_witness_search_backends_agree_exactly(compiled_kernels):
    for p, n, N, symmetry in _grid():
        args = _search_args(p, n, N, symmetry)
        assert pure.witness_search(*args) == compiled_kernels.witness_search(*args)


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
            args = _search_args(p, n, N, symmetry, max_nodes=max_nodes)
            assert pure.witness_search(*args) == compiled_kernels.witness_search(*args)


def test_witness_search_memo_agrees_with_compiled(compiled_kernels):
    """The compiled twin has no anchored-check memo, so it is the oracle."""
    _assert_memo_parity(compiled_kernels)


def test_witness_search_memo_clearing_agrees_with_compiled(compiled_kernels, monkeypatch):
    monkeypatch.setattr(pure, "_MEMO_ENTRIES", 4)
    _assert_memo_parity(compiled_kernels)


def test_witness_search_memo_needs_a_top_anchor(compiled_kernels):
    """A single anchor that is not above every other element is never
    memoized: copies may then use vertices outside its down-set."""
    cases = [
        (make_antichain(2), 2, 3),
        (make_complete_multipartite((2, 1)), 2, 4),
        (make_boolean_poset(2), 2, 4),
    ]
    for p, n, N in cases:
        for p_anchor, q_anchor in ((p.size - 1, 1), (p.maximal_elements()[0], (1 << n) - 1)):
            args = list(_search_args(p, n, N, max_nodes=2000))
            args[3], args[6] = (p_anchor,), q_anchor
            assert pure.witness_search(*args) == compiled_kernels.witness_search(*args)


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
        assert status == STATUS_TIMEOUT


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
    good = _search_args(make_chain(2), 1, 2, symmetry=True)
    for index, value in [
        (0, 31),                                      # num_bits past int32 vertices
        (3, [2]),                                     # maximal element outside p
        (6, 2),                                       # q_top outside q
        (7, [bytes(range(3))]),                       # table shorter than 2^N
        (7, [bytes([0, 1, 2, 4])]),                   # table entry past 2^N
    ]:
        args = list(good)
        args[index] = value
        with pytest.raises(ValueError):
            compiled_kernels.witness_search(*args)
