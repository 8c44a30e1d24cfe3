"""Proof-extraction procedures: blue prefix chains, chain families,
pigeonhole end classes, spindle assembly, the counting lemma check,
clear classification, and certificate round trips."""

from __future__ import annotations

import functools
import operator
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poset_ramsey import _kernels, extract, posets
from poset_ramsey.errors import InvariantViolation
from poset_ramsey.extract import (
    BlueChainCert,
    ChainFamily,
    RedQnCert,
    SpindleCert,
    WitnessCert,
    assemble_spindle,
    certificate_from_json,
    certificate_from_json_dict,
    certificate_to_json,
    certificate_to_json_dict,
    chain_or_red,
    check_blue_chain,
    check_red_qn,
    check_spindle,
    check_witness,
    class_induced_poset,
    classify_clear,
    collect_chain_family,
    distinctness_contradiction,
    end_indices,
    find_blue_prefix_chain,
    pigeonhole_end_classes,
    verify_certificate,
)
from poset_ramsey.lattice import Coloring, GroundSplit, YOrdering, all_orderings, prefix_mask, random_coloring
from poset_ramsey.posets import (
    ChainCover,
    Embedding,
    SpindleSpec,
    dilworth_cover,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_spindle,
    max_antichain,
)
from poset_ramsey.search import find_colored_copy

from conftest import check_colored_embedding


def _ascending(g: GroundSplit) -> YOrdering:
    return YOrdering(g, tuple(g.y_positions()))


def _brute_least_tower(coloring: Coloring, g: GroundSplit, pi: YOrdering):
    """Naive lexicographic-least blue tower: try every nested X tuple in
    ascending order of (x_0, ..., x_k)."""
    levels = [prefix_mask(pi, i) for i in range(g.k + 1)]
    best = None
    for xs in product(range(1 << g.n), repeat=g.k + 1):
        ok = all(xs[i] & xs[i + 1] == xs[i] for i in range(g.k))
        if ok and all(coloring.is_blue(x | y) for x, y in zip(xs, levels)):
            best = xs
            break
    if best is None:
        return None
    return tuple(x | y for x, y in zip(best, levels))


# ------------------------------------------------------ blue prefix chains


def test_blue_chain_on_all_blue():
    g = GroundSplit(2, 2)
    c = Coloring(4, (1 << 16) - 1)
    cert = find_blue_prefix_chain(c, g, _ascending(g))
    assert cert is not None
    assert cert.vertices == (0, 0b0100, 0b1100)
    assert check_blue_chain(cert, c) == []


def test_blue_chain_two_vertex_example():
    # ground {x, y}, blue exactly {}, {y}: the tower pins x-parts to zero
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b0101)
    cert = find_blue_prefix_chain(c, g, _ascending(g))
    assert cert is not None
    assert cert.vertices == (0, 0b10)
    assert check_blue_chain(cert, c) == []


def test_blue_chain_none_when_top_layer_red():
    g = GroundSplit(1, 1)
    # nothing containing y is blue, so no tower can finish
    c = Coloring(2, 0b0011)
    assert find_blue_prefix_chain(c, g, _ascending(g)) is None


def test_blue_chain_is_least_tower():
    rng = random.Random(17)
    g = GroundSplit(2, 2)
    orderings = list(all_orderings(g))
    for trial in range(150):
        c = Coloring(4, rng.getrandbits(16))
        pi = orderings[trial % len(orderings)]
        cert = find_blue_prefix_chain(c, g, pi)
        want = _brute_least_tower(c, g, pi)
        if want is None:
            assert cert is None
        else:
            assert cert is not None and cert.vertices == want
            assert check_blue_chain(cert, c) == []


def test_blue_chain_dimension_checks():
    g = GroundSplit(2, 2)
    with pytest.raises(ValueError):
        find_blue_prefix_chain(Coloring(3, 0), g, _ascending(g))
    other = GroundSplit(1, 3)
    with pytest.raises(ValueError):
        find_blue_prefix_chain(Coloring(4, 0), g, _ascending(other))


def test_check_blue_chain_rejects_defects():
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b0101)
    pi = _ascending(g)
    good = BlueChainCert(g, pi, (0, 0b10))
    assert check_blue_chain(good, c) == []
    assert check_blue_chain(BlueChainCert(g, pi, (0, 0b11)), c) != []  # not blue
    assert check_blue_chain(BlueChainCert(g, pi, (0b01, 0b10)), c) != []  # x-parts not nested
    assert check_blue_chain(BlueChainCert(g, pi, (0,)), c) != []  # wrong count
    assert check_blue_chain(BlueChainCert(g, pi, (0b10, 0)), c) != []  # wrong y-part per level


# ------------------------------------------------------------ chain or red


def test_chain_or_red_is_total_exhaustively():
    """Every coloring of the (n=2, k=1) ground yields one valid certificate."""
    g = GroundSplit(2, 1)
    pi = _ascending(g)
    for bits in range(1 << 8):
        c = Coloring(3, bits)
        cert = chain_or_red(c, g, pi)
        assert verify_certificate(cert, c) == []


def test_chain_or_red_prefers_blue_chain():
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b1111)  # all blue: red copy impossible anyway
    assert isinstance(chain_or_red(c, g, _ascending(g)), BlueChainCert)


def test_chain_or_red_all_red_gives_lattice_copy():
    g = GroundSplit(2, 1)
    c = Coloring(3, 0)
    cert = chain_or_red(c, g, _ascending(g))
    assert isinstance(cert, RedQnCert)
    assert cert.dimension == 2
    assert check_red_qn(cert, c) == []


def test_check_red_qn_rejects_blue_vertex():
    g = GroundSplit(2, 1)
    c = Coloring(3, 0)
    cert = chain_or_red(c, g, _ascending(g))
    tampered = RedQnCert(g, cert.dimension, (cert.images[0],) * len(cert.images))
    assert check_red_qn(tampered, c) != []
    blue_there = Coloring(3, 1 << cert.images[0])
    assert check_red_qn(cert, blue_there) != []


def test_check_red_qn_is_total_above_the_relation_budget():
    # 2^11 elements: past the relation budget of an explicit lattice poset
    g = GroundSplit(11, 0)
    identity = tuple(range(1 << 11))
    assert check_red_qn(RedQnCert(g, 11, identity), Coloring(11, 0)) == []
    swapped = (identity[1], identity[0]) + identity[2:]
    assert check_red_qn(RedQnCert(g, 11, swapped), Coloring(11, 0)) != []
    one_blue = Coloring(11, 1 << 777)
    assert check_red_qn(RedQnCert(g, 11, identity), one_blue) == ["image of 777 is not red"]


def test_check_red_qn_rejects_cover_monotone_maps_that_are_not_induced():
    # each map is monotone on all four cover pairs, yet f({0}) <= f({1})
    g = GroundSplit(3, 0)
    for images in ((0, 1, 1, 3), (0, 1, 3, 7), (0, 1, 1, 1)):
        problems = check_red_qn(RedQnCert(g, 2, images), Coloring(3, 0))
        assert "image of 1 lies below the image of 2" in problems


def _reference_red_qn(cert: RedQnCert, coloring: Coloring) -> list[str]:
    """The explicit check: every one of the 4^d pairs against a built Q_d."""
    target = make_boolean_poset(cert.dimension)
    return check_colored_embedding(target, coloring, "red", Embedding(cert.images))


@st.composite
def _red_cube_maps(draw):
    """A d-cube map into a host of dimension <= 5: random, or a perturbed monotone map.

    Each monotone image is the union of the images below it plus at most one
    drawn bit, so shifted cubes occur, and so do maps that ascend on every
    cover pair without being induced (f({0}) inside f({1})).
    """
    dim = draw(st.integers(0, 5))
    d = draw(st.integers(0, 3))
    size = 1 << d
    if dim and draw(st.booleans()):
        images = [draw(st.sampled_from((0, 1))) << draw(st.integers(0, dim - 1))]
        for x in range(1, size):
            below = [images[x ^ 1 << b] for b in range(d) if x >> b & 1]
            extra = draw(st.sampled_from((0, 1))) << draw(st.integers(0, dim - 1))
            images.append(functools.reduce(operator.or_, below, extra))
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, size - 1))
            if draw(st.booleans()):
                j = draw(st.integers(0, size - 1))
                images[i], images[j] = images[j], images[i]
            else:
                images[i] ^= 1 << draw(st.integers(0, dim - 1))
    else:
        images = draw(st.lists(st.integers(-1, 1 << dim), min_size=max(size - 1, 0),
                               max_size=size + 1))
    blue = draw(st.integers(0, (1 << (1 << dim)) - 1))
    if draw(st.booleans()):
        for v in images:
            if 0 <= v < 1 << dim:
                blue &= ~(1 << v)
    return RedQnCert(GroundSplit(dim, 0), d, tuple(images)), Coloring(dim, blue)


_ORDER_PROBLEMS = ("is not below", "lies below", "breaks induced order", "not distinct")


@settings(max_examples=400, deadline=None)
@given(_red_cube_maps())
def test_check_red_qn_matches_the_explicit_lattice_check(case):
    cert, coloring = case
    got, want = check_red_qn(cert, coloring), _reference_red_qn(cert, coloring)
    assert (got == []) == (want == [])
    if cert.dimension <= coloring.dim:
        # count, range and color messages keep the reference's text
        def plain(problems):
            return [p for p in problems if not any(tag in p for tag in _ORDER_PROBLEMS)]
        assert plain(got) == plain(want)


def test_check_red_qn_is_linear():
    # the n = 10 identity cube: 5,120 cover steps, not 4^10 pair tests
    g = GroundSplit(10, 0)
    cert = RedQnCert(g, 10, tuple(range(1 << 10)))
    start = time.perf_counter()
    assert check_red_qn(cert, Coloring(10, 0)) == []
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_or_red_builds_checked_red_cubes(n: int):
    reds = 0
    for k in range(1, 7):
        if n + k > 10:
            break
        g = GroundSplit(n, k)
        orderings = list(all_orderings(g))
        for density in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for seed in range(3):
                c = random_coloring(g, 1000 * n + 100 * k + seed, density)
                pi = orderings[seed % len(orderings)]
                cert = chain_or_red(c, g, pi)
                if isinstance(cert, RedQnCert):
                    reds += 1
                    assert find_blue_prefix_chain(c, g, pi) is None
                    assert cert.dimension == n
                assert verify_certificate(cert, c) == []
    assert reds >= 5


def test_chain_or_red_guard_fires_when_a_chain_was_missed(monkeypatch):
    # the h table reaches k+1 exactly when a blue prefix chain exists
    g = GroundSplit(2, 2)
    monkeypatch.setattr(extract, "find_blue_prefix_chain", lambda *args: None)
    with pytest.raises(InvariantViolation):
        chain_or_red(Coloring(4, (1 << 16) - 1), g, _ascending(g))


# ----------------------------------------------------------- chain family


def test_collect_chain_family_all_blue():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    assert isinstance(fam, ChainFamily)
    assert len(fam.entries) == 2
    for pi, cert in fam.entries:
        assert check_blue_chain(cert, c) == []
        assert cert.ordering is pi


def test_collect_chain_family_rejects_duplicate_orderings():
    g = GroundSplit(1, 2)
    pi = _ascending(g)
    with pytest.raises(ValueError):
        collect_chain_family(Coloring(3, 255), g, [pi, pi])


def test_collect_chain_family_short_circuits_to_red():
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b0011)  # top layer red, red copy {x}, {x,y} available
    out = collect_chain_family(c, g, list(all_orderings(g)))
    assert isinstance(out, RedQnCert)
    assert check_red_qn(out, c) == []


# ------------------------------------------------------------ end classes


def test_end_indices_shapes():
    assert end_indices(2, 1, 1) == (0, 2)
    assert end_indices(3, 1, 2) == (0, 2, 3)
    assert end_indices(2, 0, 0) == ()
    with pytest.raises(ValueError):
        end_indices(1, 1, 2)


def test_pigeonhole_end_classes_all_blue_single_class():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    classes = pigeonhole_end_classes(fam, 1, 1)
    assert len(classes) == 1
    cls = classes[0]
    assert cls.indices == (0, 2)
    assert cls.end_vertices == (0, 0b110)
    assert len(cls.members) == 2


def test_pigeonhole_end_classes_sorted_by_size():
    g = GroundSplit(2, 2)
    # make the two orderings take different first steps so ends split
    c = coloring = Coloring(4, (1 << 16) - 1)
    fam = collect_chain_family(coloring, g, list(all_orderings(g)))
    classes = pigeonhole_end_classes(fam, 1, 1)
    sizes = [len(cl.members) for cl in classes]
    assert sizes == sorted(sizes, reverse=True)
    assert sum(sizes) == len(fam.entries)


def test_class_induced_poset_dedups():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    poset, masks = class_induced_poset(cls)
    assert len(masks) == len(set(masks))
    assert poset.size == len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            assert poset.lt(i, j) == (a != b and a & b == a)


def test_end_vertices_comparable_to_whole_class():
    rng = random.Random(29)
    g = GroundSplit(2, 2)
    orderings = list(all_orderings(g))
    seen = 0
    for seed in range(400):
        c = random_coloring(g, seed)
        fam = collect_chain_family(c, g, orderings)
        if not isinstance(fam, ChainFamily):
            continue
        seen += 1
        for cls in pigeonhole_end_classes(fam, 1, 1):
            _, masks = class_induced_poset(cls)
            for e in cls.end_vertices:
                for m in masks:
                    assert e == m or (e & m) == e or (e & m) == m
    assert seen >= 5


# --------------------------------------------------------- spindle assembly


def test_assemble_spindle_all_blue_diamond():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    cert = assemble_spindle(cls, SpindleSpec(1, 2, 1), g)
    assert isinstance(cert, SpindleCert)
    assert cert.lower == (0,)
    assert cert.middle == (0b010, 0b100)
    assert cert.upper == (0b110,)
    assert check_spindle(cert, c) == []


def test_assemble_spindle_single_middle():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    cert = assemble_spindle(cls, SpindleSpec(1, 1, 1), g)
    assert isinstance(cert, SpindleCert)
    assert len(cert.middle) == 1
    assert check_spindle(cert, c) == []


def test_assemble_spindle_cover_when_antichain_too_small():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    out = assemble_spindle(cls, SpindleSpec(1, 3, 1), g)
    assert isinstance(out, ChainCover)
    poset, _ = class_induced_poset(cls)
    assert len(out.chains) == len(max_antichain(poset))


def test_assemble_spindle_dichotomy_matches_antichain_size():
    rng = random.Random(31)
    g = GroundSplit(2, 2)
    orderings = list(all_orderings(g))
    for seed in range(200):
        c = random_coloring(g, seed)
        fam = collect_chain_family(c, g, orderings)
        if not isinstance(fam, ChainFamily):
            continue
        cls = pigeonhole_end_classes(fam, 1, 1)[0]
        poset, masks = class_induced_poset(cls)
        for s in (1, 2, 3):
            out = assemble_spindle(cls, SpindleSpec(1, s, 1), g)
            ends = set(cls.end_vertices)
            free = [m for m in masks if m not in ends]
            if s == 1:
                if free:
                    assert isinstance(out, SpindleCert)
                continue
            width = len(max_antichain(poset))
            if width >= s:
                assert isinstance(out, SpindleCert)
                assert check_spindle(out, c) == []
            else:
                assert isinstance(out, ChainCover)


def test_assemble_spindle_validates_shape_against_class():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    with pytest.raises(ValueError):
        assemble_spindle(cls, SpindleSpec(2, 2, 1), g)  # ends were cut for r=t=1


def test_assemble_spindle_no_middle_slot():
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b1111)
    fam = collect_chain_family(c, g, list(all_orderings(g)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    with pytest.raises(ValueError):
        assemble_spindle(cls, SpindleSpec(1, 1, 1), g)


def test_check_spindle_rejects_defects():
    g = GroundSplit(1, 2)
    c = Coloring(3, (1 << 8) - 1)
    good = SpindleCert(g, SpindleSpec(1, 2, 1), (0,), (0b010, 0b100), (0b110,))
    assert check_spindle(good, c) == []
    # comparable middles
    bad = SpindleCert(g, SpindleSpec(1, 2, 1), (0,), (0b010, 0b110), (0b111,))
    assert check_spindle(bad, c) != []
    # red vertex in the middle
    red_mid = Coloring(3, ((1 << 8) - 1) ^ (1 << 0b010))
    assert check_spindle(good, red_mid) != []
    # wrong counts for the declared shape
    bad_count = SpindleCert(g, SpindleSpec(1, 2, 1), (0,), (0b010,), (0b110,))
    assert check_spindle(bad_count, c) != []
    # lower not below a middle
    not_below = SpindleCert(g, SpindleSpec(1, 2, 1), (0b001,), (0b010, 0b100), (0b111,))
    assert check_spindle(not_below, c) != []


def test_check_spindle_past_word_width():
    # 4-subsets of a 9-set form an antichain strictly between empty and full
    g = GroundSplit(4, 5)
    c = Coloring(9, (1 << 512) - 1)
    middles = tuple(v for v in range(512) if v.bit_count() == 4)
    fits = SpindleCert(g, SpindleSpec(1, 62, 1), (0,), middles[:62], (511,))
    assert check_spindle(fits, c) == []
    # over 64 vertices the structural checks alone decide, both ways
    too_wide = SpindleCert(g, SpindleSpec(1, 63, 1), (0,), middles[:63], (511,))
    assert check_spindle(too_wide, c) == []
    comparable = middles[:62] + (middles[0] | 1 << 8,)
    bad = SpindleCert(g, SpindleSpec(1, 63, 1), (0,), comparable, (511,))
    assert check_spindle(bad, c) != []


def _kernel_spindle_check(cert: SpindleCert, coloring: Coloring) -> list[str]:
    """The structural check followed by a restriction search for the shape."""
    problems = check_spindle(cert, coloring)
    if problems or cert.shape.size > _kernels.MAX_TARGET_SIZE:
        return problems
    spindle = make_spindle(cert.shape)
    if _kernels.find_induced_copy(spindle.down, spindle.up, sorted(cert.all_vertices())) is None:
        return ["induced poset does not realize the spindle shape"]
    return []


def _random_spindle_cert(rng: random.Random) -> tuple[SpindleCert, Coloring]:
    """A spindle on a random maximal chain and level, then up to two vertices redrawn."""
    g = GroundSplit(rng.randint(1, 3), rng.randint(0, 3))
    dim = g.total
    shape = SpindleSpec(rng.randint(0, 2), rng.randint(1, 4), rng.randint(0, 2))
    order = rng.sample(range(dim), dim)
    top = (1 << dim) - 1
    lower = [sum(1 << b for b in order[:i]) for i in range(shape.r)]
    upper = [top ^ sum(1 << b for b in order[dim - i :]) for i in range(shape.t)][::-1]
    rank = rng.randint(0, dim)
    level = [v for v in range(1 << dim) if v.bit_count() == rank]
    middle = [rng.choice(level) for _ in range(shape.s)]
    vertices = lower + middle + upper
    for _ in range(rng.randint(0, 2)):
        vertices[rng.randrange(len(vertices))] = rng.randrange(1 << dim)
    blue = rng.getrandbits(1 << dim)
    if rng.random() < 0.8:
        blue |= sum(1 << v for v in set(vertices))
    r, s = shape.r, shape.s
    cert = SpindleCert(g, shape, tuple(vertices[:r]), tuple(vertices[r : r + s]),
                       tuple(vertices[r + s :]))
    return cert, Coloring(dim, blue)


def test_check_spindle_matches_the_kernel_check():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(4000):
        cert, coloring = _random_spindle_cert(rng)
        problems = check_spindle(cert, coloring)
        assert (problems == []) == (_kernel_spindle_check(cert, coloring) == [])
        # and with the element-by-element check against the built spindle
        target = make_spindle(cert.shape)
        embedding = Embedding(cert.all_vertices())
        reference = check_colored_embedding(target, coloring, "blue", embedding)
        assert (problems == []) == (reference == [])
        accepted += problems == []
    assert accepted >= 100


def test_verify_certificate_needs_no_search_layer(monkeypatch):
    g = GroundSplit(2, 1)
    all_blue, all_red = Coloring(3, (1 << 8) - 1), Coloring(3, 0)
    chain = chain_or_red(all_blue, g, _ascending(g))
    cube = chain_or_red(all_red, g, _ascending(g))
    spindle = SpindleCert(GroundSplit(1, 2), SpindleSpec(1, 2, 1),
                          (0,), (0b010, 0b100), (0b110,))

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate checker called into the search layer")

    monkeypatch.setattr(_kernels, "find_induced_copy", refuse)
    monkeypatch.setattr(posets, "make_boolean_poset", refuse)
    cases = [(chain, all_blue, all_red), (cube, all_red, all_blue),
             (spindle, all_blue, all_red)]
    for cert, good, bad in cases:
        assert verify_certificate(cert, good) == []
        assert verify_certificate(cert, bad) != []


# ------------------------------------------------------- counting lemma


def _synthetic_family_s3():
    """Nine members, all of one ordering, sharing both ends over a width-2
    middle layer.

    The middles repeat x-parts from two nested towers, so the class poset
    has no 3-element antichain and the cover has two chains; with 9 > 2^3
    members two of them share a labeling, which the counting lemma rules
    out for a family of distinct orderings.
    """
    g = GroundSplit(2, 2)
    pi = _ascending(g)
    y1 = prefix_mask(pi, 1)
    top = g.x_mask | prefix_mask(pi, 2)
    middles = [0b00, 0b01, 0b11, 0b10, 0b00, 0b01, 0b11, 0b10, 0b00]
    entries = tuple(
        (pi, BlueChainCert(g, pi, (0, m | y1, top)))
        for m in middles
    )
    return g, ChainFamily(g, entries)


def test_distinctness_contradiction_trivial_pair():
    # one ordering listed twice: both members get the one cover chain's label
    g = GroundSplit(1, 1)
    pi = _ascending(g)
    cert = BlueChainCert(g, pi, (0, 0b10))
    fam = ChainFamily(g, ((pi, cert), (pi, cert)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    out = assemble_spindle(cls, SpindleSpec(1, 2, 1), g)
    assert isinstance(out, ChainCover)
    with pytest.raises(InvariantViolation, match="members 0 and 1"):
        distinctness_contradiction(cls, out)


def test_distinctness_contradiction_synthetic_width_two():
    g, fam = _synthetic_family_s3()
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    assert len(cls.members) == 9
    out = assemble_spindle(cls, SpindleSpec(1, 3, 1), g)
    assert isinstance(out, ChainCover)
    assert len(out.chains) == 2
    # the middles 0b00 and 0b01 share a cover chain, so members 0 and 1 are
    # labeled alike
    with pytest.raises(InvariantViolation, match="members 0 and 1"):
        distinctness_contradiction(cls, out)


def test_distinctness_contradiction_preconditions():
    g = GroundSplit(1, 1)
    pi = _ascending(g)
    cert = BlueChainCert(g, pi, (0, 0b10))
    fam = ChainFamily(g, ((pi, cert),))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    # the class poset has elements 0 and 1; this cover misses 1
    with pytest.raises(ValueError, match="partition"):
        distinctness_contradiction(cls, ChainCover(((0,),)))
    with pytest.raises(ValueError, match="partition"):
        distinctness_contradiction(cls, ChainCover(((0, 1), (1,))))
    assert distinctness_contradiction(cls, ChainCover(((0, 1),))) is None


# ------------------------------------------------------ clear classification


def test_classify_clear_all_red():
    g = GroundSplit(3, 0)
    c = Coloring(3, 0)
    out = classify_clear(c, g, make_chain(2), make_chain(2))
    assert out.blue == ()
    assert out.green == ()
    assert set(out.yellow) == set(range(8))


def test_classify_clear_unique_extreme_preconditions():
    g = GroundSplit(2, 0)
    c = Coloring(2, 0b1111)
    with pytest.raises(ValueError):
        classify_clear(c, g, make_antichain(2), make_chain(2))
    with pytest.raises(ValueError):
        classify_clear(c, g, make_chain(2), make_antichain(2))


def test_classify_clear_single_vertex_chain_never_clears():
    # p1 = one-element chain: removing nothing, every blue vertex anchors a
    # copy, so nothing is p1-clear and green stays empty
    g = GroundSplit(2, 0)
    c = Coloring(2, 0b0110)
    out = classify_clear(c, g, make_chain(1), make_chain(1))
    assert out.green == ()
    assert set(out.blue) == {1, 2}


def test_classify_clear_disjunction_when_no_glued_copy():
    """If no blue chain of length 3 exists, every blue vertex avoids a blue
    2-chain on at least one side."""
    g = GroundSplit(3, 0)
    chain2 = make_chain(2)
    chain3 = make_chain(3)
    checked = 0
    for bits in range(256):
        c = Coloring(3, bits)
        if find_colored_copy(chain3, c, "blue") is not None:
            continue
        checked += 1
        out = classify_clear(c, g, chain2, chain2)
        for idx, v in enumerate(out.blue):
            assert out.p1_clear[idx] or out.p2_clear[idx], (bits, v)
        assert set(out.green) <= set(out.blue)
        assert set(out.yellow) == set(range(8)) - set(out.green)
    assert checked > 50


def test_classify_clear_matches_per_vertex_search():
    chain2, chain3 = make_chain(2), make_chain(3)
    for n, k, density in ((2, 2, Fraction(1, 2)), (3, 2, Fraction(3, 4)), (3, 3, Fraction(1, 8))):
        g = GroundSplit(n, k)
        for seed in range(3):
            c = random_coloring(g, seed, density)
            for p1, p2 in ((chain2, chain2), (chain3, chain2), (chain2, chain3)):
                out = classify_clear(c, g, p1, p2)
                blue = tuple(c.blue_vertices())
                assert out.blue == blue
                assert out.p1_clear == tuple(
                    find_colored_copy(p1, c, "blue", anchor=(p1.size - 1, v)) is None
                    for v in blue
                )
                assert out.p2_clear == tuple(
                    find_colored_copy(p2, c, "blue", anchor=(0, v)) is None for v in blue
                )


def test_classify_clear_builds_one_host_list(monkeypatch):
    calls = []
    blue_vertices = Coloring.blue_vertices

    def counted(self):
        calls.append(self)
        return blue_vertices(self)

    monkeypatch.setattr(Coloring, "blue_vertices", counted)
    g = GroundSplit(3, 3)
    c = random_coloring(g, 7, Fraction(1, 2))
    out = classify_clear(c, g, make_chain(2), make_chain(3))
    assert len(out.blue) > 10
    assert len(calls) == 1


def test_classify_clear_rejects_targets_over_the_word_width():
    g = GroundSplit(2, 0)
    c = Coloring(2, 0b1111)
    with pytest.raises(ValueError, match="64"):
        classify_clear(c, g, make_chain(65), make_chain(2))
    with pytest.raises(ValueError, match="64"):
        classify_clear(c, g, make_chain(2), make_chain(65))


# ----------------------------------------------------------- serialization


def _sample_certs():
    g2 = GroundSplit(2, 1)
    g12 = GroundSplit(1, 2)
    pi = _ascending(g2)
    all_blue3 = Coloring(3, 255)
    chain = find_blue_prefix_chain(all_blue3, g2, pi)
    red = chain_or_red(Coloring(3, 0), g2, pi)
    fam = collect_chain_family(Coloring(3, 255), g12, list(all_orderings(g12)))
    cls = pigeonhole_end_classes(fam, 1, 1)[0]
    spindle = assemble_spindle(cls, SpindleSpec(1, 2, 1), g12)
    witness = WitnessCert(2, 1, make_antichain(2))
    return [chain, red, spindle, witness]


def test_certificate_json_round_trip():
    for cert in _sample_certs():
        again = certificate_from_json(certificate_to_json(cert))
        assert again == cert


def test_certificate_json_rejects_junk():
    with pytest.raises(ValueError):
        certificate_from_json_dict({"kind": "mystery"})
    with pytest.raises(ValueError):
        certificate_from_json_dict({"kind": "blue_chain"})
    with pytest.raises(ValueError):
        certificate_from_json_dict([1, 2, 3])
    with pytest.raises(ValueError):
        certificate_from_json_dict(
            {"kind": "blue_chain", "ground": {"n": 1, "k": 1},
             "ordering": [1], "vertices": [0, True]})
    with pytest.raises(ValueError):
        certificate_from_json_dict(
            {"kind": "red_qn", "ground": {"n": True, "k": False},
             "target_dimension": True, "images": [0, 1]})
    with pytest.raises(ValueError, match="unknown certificate kind"):
        certificate_from_json_dict({"kind": "contradiction"})


def test_verify_certificate_dispatch():
    g = GroundSplit(1, 1)
    c = Coloring(2, 0b1111)
    cert = find_blue_prefix_chain(c, g, _ascending(g))
    assert verify_certificate(cert, c) == []
    with pytest.raises(TypeError):
        verify_certificate("not a certificate", c)


def test_check_witness_delegates_to_search():
    w = WitnessCert(2, 2, make_antichain(2))
    # frozen: antichain pair vs 2-cube has a witness in dimension 2
    from poset_ramsey.search import find_witness
    coloring = find_witness(make_antichain(2), 2, 2)
    assert coloring is not None
    assert check_witness(w, coloring) == []
    assert check_witness(w, Coloring(2, 0)) != []


# --------------------------------------------------------------- totality


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 1))
def test_chain_or_red_total_on_random_colorings(bits: int, which: int):
    g = GroundSplit(2, 2)
    pi = list(all_orderings(g))[which]
    c = Coloring(4, bits)
    cert = chain_or_red(c, g, pi)
    assert verify_certificate(cert, c) == []
