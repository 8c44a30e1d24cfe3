"""Finite poset builders, duality, embedding search, serialization."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_ramsey.posets import (
    ChainCover,
    Poset,
    are_isomorphic,
    dilworth_cover,
    find_poset_copy,
    glue,
    inclusion_poset,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
    make_spindle,
    max_antichain,
    poset_from_json,
    poset_from_json_dict,
    poset_to_dot,
    poset_to_json,
    poset_to_json_dict,
    transitive_reduction,
)

from conftest import brute_has_copy_in_masks, check_chain_cover, random_poset


def _posets_strategy(max_size: int = 6, min_size: int = 1):
    return st.builds(
        lambda seed, size: random_poset(random.Random(seed), size),
        st.integers(0, 2**32 - 1),
        st.integers(min_size, max_size),
    )


# ---------------------------------------------------------------- builders


def test_chain_is_total_order():
    c = make_chain(4)
    assert c.size == 4
    for i in range(4):
        for j in range(4):
            assert c.lt(i, j) == (i < j)


def test_antichain_has_no_relations():
    a = make_antichain(5)
    assert a.size == 5
    assert a.up == (0,) * 5


def test_chain_and_antichain_size_bounds():
    assert make_chain(0).size == 0
    assert make_antichain(0).size == 0
    with pytest.raises(ValueError):
        make_chain(-1)
    with pytest.raises(ValueError):
        make_antichain(-1)


def test_boolean_poset_order_is_containment():
    b = make_boolean_poset(3)
    assert b.size == 8
    for x in range(8):
        for y in range(8):
            assert b.lt(x, y) == (x != y and x & y == x)


def test_inclusion_poset_is_strict_inclusion():
    rng = random.Random(31)
    for _ in range(60):
        width = rng.randrange(1, 9)
        masks = rng.sample(range(1 << width), rng.randrange(0, min(12, 1 << width) + 1))
        p = inclusion_poset(masks)
        assert p.size == len(masks)
        for i, a in enumerate(masks):
            want = {j for j, b in enumerate(masks) if a != b and a | b == b}
            assert {j for j in range(p.size) if p.lt(i, j)} == want


def test_complete_multipartite_layers():
    p = make_complete_multipartite((3, 4, 2))
    assert p.size == 9
    # consecutive elements share a layer iff incomparable
    layers = [0] * 3 + [1] * 4 + [2] * 2
    for i in range(9):
        for j in range(9):
            assert p.lt(i, j) == (layers[i] < layers[j])


def test_spindle_shape():
    p = make_spindle((1, 2, 1))
    assert p.size == 4
    assert len(p.minimal_elements()) == 1
    assert len(p.maximal_elements()) == 1
    # the two middles are mutually incomparable
    mids = [v for v in range(4) if v not in p.minimal_elements() and v not in p.maximal_elements()]
    assert len(mids) == 2
    assert not p.lt(mids[0], mids[1]) and not p.lt(mids[1], mids[0])


def test_spindle_rejects_empty_middle():
    with pytest.raises(ValueError):
        make_spindle((1, 0, 1))


def test_poset_validation_rejects_reflexive_mask():
    with pytest.raises(ValueError):
        Poset(2, (0b01, 0b00))


def test_poset_validation_rejects_cycle():
    with pytest.raises(ValueError):
        Poset(2, (0b10, 0b01))


def test_poset_validation_rejects_missing_transitivity():
    # 0 < 1 < 2 without 0 < 2
    with pytest.raises(ValueError):
        Poset(3, (0b010, 0b100, 0b000))


def test_heights_and_extremes():
    p = make_spindle((1, 2, 1))
    assert sorted(p.heights) == [0, 1, 1, 2]
    b = make_boolean_poset(2)
    assert b.heights == (0, 1, 1, 2)
    assert b.minimal_elements() == (0,)
    assert b.maximal_elements() == (3,)


# ------------------------------------------------------------------- glue


def test_glue_of_two_chains_is_longer_chain():
    g = glue(make_chain(2), make_chain(3))
    assert are_isomorphic(g, make_chain(4))


def test_glue_identifies_max_with_min():
    p = glue(make_boolean_poset(1), make_boolean_poset(1))
    assert are_isomorphic(p, make_chain(3))


def test_glue_requires_unique_extremes():
    with pytest.raises(ValueError):
        glue(make_antichain(2), make_chain(2))
    with pytest.raises(ValueError):
        glue(make_chain(2), make_antichain(2))


def test_glue_size_is_sum_minus_one():
    p1 = make_complete_multipartite((1, 2, 1))
    p2 = make_chain(3)
    assert glue(p1, p2).size == p1.size + p2.size - 1


# -------------------------------------------------- antichains and covers


def test_max_antichain_frozen_values():
    assert len(max_antichain(make_complete_multipartite((3, 4, 2)))) == 4
    assert len(max_antichain(make_chain(5))) == 1
    assert len(max_antichain(make_antichain(4))) == 4
    assert len(max_antichain(make_boolean_poset(3))) == 3


def test_dilworth_cover_on_diamond():
    b = make_boolean_poset(2)
    cover = dilworth_cover(b)
    assert check_chain_cover(b, cover) == []
    assert len(cover.chains) == 2


def test_check_chain_cover_flags_problems():
    b = make_boolean_poset(2)
    missing = ChainCover(((0, 1, 3),))
    assert any("cover" in s or "element" in s for s in check_chain_cover(b, missing))
    overlap = ChainCover(((0, 1, 3), (0, 2, 3)))
    assert check_chain_cover(b, overlap) != []
    not_chain = ChainCover(((0, 1, 3), (2,), (1,)))
    assert check_chain_cover(b, not_chain) != []


@settings(max_examples=60, deadline=None)
@given(_posets_strategy())
def test_dilworth_duality(p: Poset):
    """Max antichain size equals min chain cover size, antichain is valid."""
    anti = max_antichain(p)
    for a in anti:
        for b in anti:
            if a != b:
                assert not p.lt(a, b)
    cover = dilworth_cover(p)
    assert check_chain_cover(p, cover) == []
    assert len(cover.chains) == len(anti)


# ------------------------------------------------------- embedding search


def test_find_poset_copy_in_boolean_lattice():
    b = make_boolean_poset(2)
    emb = find_poset_copy(make_chain(3), b)
    assert emb is not None
    i0, i1, i2 = emb.images
    assert b.lt(i0, i1) and b.lt(i1, i2)
    assert find_poset_copy(make_antichain(3), b) is None
    assert find_poset_copy(make_antichain(2), b) is not None


def _is_induced(target: Poset, host: Poset, images) -> bool:
    return len(set(images)) == len(images) and all(
        target.lt(i, j) == host.lt(images[i], images[j])
        for i in range(target.size)
        for j in range(target.size)
    )


def _containment_poset(masks) -> Poset:
    """Masks ordered by strict containment; element i is ``masks[i]``."""
    return Poset(len(masks), tuple(
        sum(1 << j for j, b in enumerate(masks) if a != b and a & b == a) for a in masks
    ))


def test_find_poset_copy_agrees_with_brute_force():
    rng = random.Random(7)
    targets = [make_chain(2), make_chain(3), make_antichain(2), make_boolean_poset(1)]
    for trial in range(60):
        hosts = sorted(rng.sample(range(16), rng.randint(2, 8)))
        sub = _containment_poset(hosts)
        for target in targets:
            got = find_poset_copy(target, sub)
            want = brute_has_copy_in_masks(target, hosts)
            assert (got is not None) == want
            if got is not None:
                masks = [hosts[i] for i in got.images]
                for i in range(target.size):
                    for j in range(target.size):
                        if i == j:
                            continue
                        a, b = masks[i], masks[j]
                        assert target.lt(i, j) == (a != b and a & b == a)
    # random_poset shuffles labels, so index order and down-set-mask order
    # disagree on most hosts; the copy found is the least injection when
    # host elements are ranked by the mask of their closed down-set
    targets.extend([make_antichain(3), make_spindle((1, 2, 0))])
    reordered = 0
    for trial in range(80):
        host = random_poset(rng, rng.randint(1, 6))
        by_mask = sorted(range(host.size), key=lambda h: host.down[h] | 1 << h)
        reordered += by_mask != list(range(host.size))
        for target in targets:
            want = next(
                (images for images in permutations(by_mask, target.size)
                 if _is_induced(target, host, images)),
                None,
            )
            got = find_poset_copy(target, host)
            assert (got.images if got is not None else None) == want
    assert reordered > 20
    # relation masks are 64-bit words: the cap holds for hosts and targets
    assert find_poset_copy(make_chain(2), make_chain(64)) is not None
    with pytest.raises(ValueError, match="64"):
        find_poset_copy(make_chain(2), make_antichain(65))
    with pytest.raises(ValueError, match="64"):
        find_poset_copy(make_chain(65), make_chain(65))


# ------------------------------------------------------------ isomorphism


def test_are_isomorphic_basic():
    assert are_isomorphic(make_chain(3), make_chain(3))
    assert not are_isomorphic(make_chain(3), make_antichain(3))
    assert not are_isomorphic(make_chain(3), make_chain(4))
    assert are_isomorphic(make_boolean_poset(2), make_complete_multipartite((1, 2, 1)))


def _brute_isomorphic(p: Poset, q: Poset) -> bool:
    return p.size == q.size and any(
        _is_induced(p, q, images) for images in permutations(range(q.size))
    )


@st.composite
def _same_size_pairs(draw):
    size = draw(st.integers(1, 5))
    return draw(_posets_strategy(size, size)), draw(_posets_strategy(size, size))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(_posets_strategy(5), _posets_strategy(5)), _same_size_pairs()))
def test_are_isomorphic_matches_brute_force(pair):
    p, q = pair
    assert are_isomorphic(p, q) == _brute_isomorphic(p, q)


def test_are_isomorphic_skips_search_on_unequal_profiles(monkeypatch):
    from poset_ramsey import _kernels

    def no_search(*args):
        raise AssertionError("searched although the profiles differ")

    monkeypatch.setattr(_kernels, "find_induced_copy", no_search)
    one_relation = Poset(12, (0b10,) + (0,) * 11)
    assert not are_isomorphic(make_antichain(12), one_relation)
    # same relation count: a V on the last three against two disjoint pairs
    two_pairs = Poset(12, (0b10, 0, 0b1000) + (0,) * 9)
    vee = Poset(12, (0,) * 9 + (0b110 << 9, 0, 0))
    assert not are_isomorphic(vee, two_pairs)


def _crowns(*ks: int, labels: list[int] | None = None) -> Poset:
    """Disjoint crowns: k minima a_i and k maxima b_i, a_i < b_i, b_{i+1 mod k}.

    A crown's comparability graph is one 2k-cycle, so every element has the
    same (up-degree, down-degree, height) profile as in any other crowns of
    the same total size; ``labels`` relabels the elements."""
    size = 2 * sum(ks)
    labels = labels or list(range(size))
    up = [0] * size
    base = 0
    for k in ks:
        for i in range(k):
            for j in (i, (i + 1) % k):
                up[labels[base + i]] |= 1 << labels[base + k + j]
        base += 2 * k
    return Poset(size, tuple(up))


def test_are_isomorphic_on_crowns():
    # equal profiles, so only the search can tell these apart
    assert not are_isomorphic(_crowns(6), _crowns(3, 3))
    assert not are_isomorphic(_crowns(3, 3), _crowns(6))
    assert not are_isomorphic(_crowns(7), _crowns(3, 4))
    assert not are_isomorphic(_crowns(4, 3), _crowns(7))
    labels = list(range(14))
    random.Random(5).shuffle(labels)
    assert are_isomorphic(_crowns(7), _crowns(7, labels=labels))
    assert are_isomorphic(_crowns(3, 4), _crowns(4, 3, labels=labels))


def test_are_isomorphic_word_width_cap():
    assert are_isomorphic(make_chain(64), make_chain(64))
    with pytest.raises(ValueError, match="64"):
        are_isomorphic(make_chain(65), make_chain(65))


def test_are_isomorphic_on_equal_relation_counts():
    # every labeled 4-element poset against every other with as many
    # relations: the pairs a relation-count filter cannot tell apart
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    by_count: dict[int, list[Poset]] = {}
    for bits in range(1 << len(pairs)):
        up = [0] * 4
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                up[i] |= 1 << j
        try:
            p = Poset(4, tuple(up))
        except ValueError:
            continue
        by_count.setdefault(sum(mask.bit_count() for mask in p.up), []).append(p)
    assert sum(len(ps) for ps in by_count.values()) == 219  # labeled posets on 4
    mixed = 0
    for ps in by_count.values():
        for p in ps:
            for q in ps:
                want = _brute_isomorphic(p, q)
                mixed += not want
                assert are_isomorphic(p, q) == want
    assert mixed > 0


@settings(max_examples=40, deadline=None)
@given(_posets_strategy(5), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(p: Poset, rnd):
    perm = list(range(p.size))
    rnd.shuffle(perm)
    up = [0] * p.size
    for i in range(p.size):
        rest = p.up[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            up[perm[i]] |= 1 << perm[j]
    assert are_isomorphic(p, Poset(p.size, tuple(up)))


# ---------------------------------------------------------- serialization


def test_json_round_trip_exact():
    for p in (make_chain(3), make_antichain(3), make_boolean_poset(2),
              make_spindle((2, 3, 1)), make_complete_multipartite((3, 4, 2))):
        q = poset_from_json(poset_to_json(p))
        assert q.size == p.size and q.up == p.up


@settings(max_examples=60, deadline=None)
@given(_posets_strategy())
def test_json_round_trip_random(p: Poset):
    assert poset_from_json_dict(poset_to_json_dict(p)).up == p.up


def test_json_rejects_cycles_and_garbage():
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": 2, "relations": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": 2})
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": 2, "relations": [[0, 5]]})
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": 2, "relations": [[0, True]]})
    # the cases above lack "lt" altogether; these reach each pair check
    with pytest.raises(ValueError, match="cycle"):
        poset_from_json_dict({"size": 2, "lt": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError, match="outside"):
        poset_from_json_dict({"size": 2, "lt": [[0, 5]]})
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": True, "lt": []})
    with pytest.raises(ValueError):
        poset_from_json_dict({"size": 2, "lt": [[0, True]]})
    with pytest.raises(ValueError):
        poset_from_json("not json at all {")


def test_transitive_reduction_counts():
    assert len(transitive_reduction(make_chain(3))) == 2
    assert len(transitive_reduction(make_boolean_poset(2))) == 4
    assert transitive_reduction(make_antichain(4)) == []


@settings(max_examples=60, deadline=None)
@given(_posets_strategy())
def test_reduction_closure_restores_order(p: Poset):
    """Re-closing the reduction gives back the original relation."""
    up = [0] * p.size
    for a, b in transitive_reduction(p):
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(p.size):
            acc = up[i]
            rest = up[i]
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    assert tuple(up) == p.up


def test_dot_output_edges():
    assert poset_to_dot(make_chain(2)).count("->") == 1
    assert poset_to_dot(make_antichain(3)).count("->") == 0
    assert poset_to_dot(make_boolean_poset(2)).count("->") == 4
    assert "rankdir=BT" in poset_to_dot(make_chain(2))
