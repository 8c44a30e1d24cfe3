"""Ground set splits, orderings, colorings, and the coloring text format."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _splitmix64

from poset_ramsey.lattice import (
    Coloring,
    GroundSplit,
    YOrdering,
    all_orderings,
    coloring_from_blue_set,
    coloring_from_text,
    coloring_to_text,
    layered_coloring,
    pair_leq,
    prefix_mask,
    random_coloring,
    read_coloring,
    write_coloring,
)


# ------------------------------------------------------------ ground split


def test_ground_split_masks():
    g = GroundSplit(2, 3)
    assert g.total == 5
    assert g.x_mask == 0b00011
    assert g.y_mask == 0b11100
    assert list(g.y_positions()) == [2, 3, 4]


def test_ground_split_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GroundSplit(-1, 2)
    with pytest.raises(ValueError):
        GroundSplit(40, 30)  # over the 64-bit ground cap


def test_pair_leq_is_containment():
    assert pair_leq(0b01, 0b11)
    assert pair_leq(0b10, 0b10)
    assert not pair_leq(0b11, 0b01)
    assert not pair_leq(0b01, 0b10)


# -------------------------------------------------------------- orderings


def test_all_orderings_count_and_lex_order():
    g = GroundSplit(1, 3)
    orders = [pi.order for pi in all_orderings(g)]
    assert len(orders) == 6
    assert orders == sorted(orders)
    assert orders[0] == (1, 2, 3)


def test_ordering_must_permute_y_positions():
    g = GroundSplit(2, 2)
    YOrdering(g, (3, 2))  # fine
    with pytest.raises(ValueError):
        YOrdering(g, (2, 2))
    with pytest.raises(ValueError):
        YOrdering(g, (1, 2))  # 1 is an X position
    with pytest.raises(ValueError):
        YOrdering(g, (2,))


def test_prefix_mask_accumulates_in_order():
    g = GroundSplit(1, 3)
    pi = YOrdering(g, (3, 1, 2))
    assert prefix_mask(pi, 0) == 0
    assert prefix_mask(pi, 1) == 0b1000
    assert prefix_mask(pi, 2) == 0b1010
    assert prefix_mask(pi, 3) == 0b1110
    with pytest.raises(ValueError):
        prefix_mask(pi, 4)


# -------------------------------------------------------------- colorings


def test_coloring_basics():
    c = Coloring(2, 0b0110)
    assert c.vertex_count == 4
    assert c.is_blue(1) and c.is_blue(2)
    assert not c.is_blue(0) and not c.is_blue(3)
    assert c.blue_vertices() == [1, 2]
    assert c.red_vertices() == [0, 3]
    assert c.blue_count() == 2


def test_coloring_is_immutable_and_hashable():
    c = Coloring(2, 0b0110)
    with pytest.raises(AttributeError):
        c.bits = 0
    assert c == Coloring(2, 0b0110)
    assert hash(c) == hash(Coloring(2, 0b0110))
    assert c != Coloring(3, 0b0110)


def test_coloring_rejects_out_of_range_bits():
    with pytest.raises(ValueError):
        Coloring(1, 0b100)
    with pytest.raises(ValueError):
        Coloring(2, -1)
    with pytest.raises(ValueError):
        Coloring(25, 0)  # default dimension cap


@st.composite
def _colorings(draw) -> Coloring:
    dim = draw(st.integers(0, 12))
    full = (1 << (1 << dim)) - 1
    bits = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return Coloring(dim, bits)


@settings(max_examples=150, deadline=None)
@given(_colorings())
def test_vertex_lists_match_naive_scan(c: Coloring):
    # all-blue and all-red colorings are drawn as their own cases
    assert c.blue_vertices() == [v for v in range(c.vertex_count) if (c.bits >> v) & 1]
    assert c.red_vertices() == [v for v in range(c.vertex_count) if not (c.bits >> v) & 1]


def _bit_loop(vertices) -> int:
    """The one-bit-at-a-time integer the packed constructors replace."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def test_coloring_from_blue_set():
    c = coloring_from_blue_set(2, [0, 3])
    assert c.bits == 0b1001
    with pytest.raises(ValueError):
        coloring_from_blue_set(1, [2])
    with pytest.raises(ValueError):
        coloring_from_blue_set(2, [-1])
    assert coloring_from_blue_set(0, []).bits == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(st.integers(0, (1 << dim) - 1)))
))
def test_coloring_from_blue_set_matches_bit_loop(case):
    dim, blue = case  # repeats included
    assert coloring_from_blue_set(dim, blue).bits == _bit_loop(blue)


def test_layered_coloring_by_popcount():
    g = GroundSplit(2, 1)
    c = layered_coloring(g, (0, 2))
    for v in range(8):
        assert c.is_blue(v) == (v.bit_count() in (0, 2))
    with pytest.raises(ValueError):
        layered_coloring(g, (4,))


@pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (2, 3), (5, 4), (7, 5)])
def test_layered_coloring_matches_bit_loop(n: int, k: int):
    g = GroundSplit(n, k)
    for sizes in ((), (0,), (g.total,), tuple(range(0, g.total + 1, 2)), tuple(range(g.total + 1))):
        want = _bit_loop(v for v in range(1 << g.total) if v.bit_count() in sizes)
        assert layered_coloring(g, sizes).bits == want


# ------------------------------------------------------ pseudorandomness


def test_splitmix64_frozen_outputs():
    """First two outputs from seed 0, fixed for reproducibility."""
    out1, state = _splitmix64(0)
    out2, _ = _splitmix64(state)
    assert out1 == 0xE220A8397B1DCDAF
    assert out2 == 0x6E789E6AA1B965F4


def test_random_coloring_is_deterministic():
    g = GroundSplit(3, 2)
    a = random_coloring(g, 42)
    b = random_coloring(g, 42)
    assert a == b
    assert a != random_coloring(g, 43)


def test_random_coloring_threshold_extremes():
    g = GroundSplit(2, 2)
    assert random_coloring(g, 9, blue_probability=0).blue_count() == 0
    assert random_coloring(g, 9, blue_probability=1).blue_count() == 16


def _draws(dim: int, seed: int) -> list[int]:
    """The first 2^dim outputs of the scalar splitmix64 stream from ``seed``."""
    state, out = seed & ((1 << 64) - 1), []
    for _ in range(1 << dim):
        draw, state = _splitmix64(state)
        out.append(draw)
    return out


def _stream_bits(draws: list[int], p: Fraction | float) -> int:
    """Color bits with vertex v blue when draws[v] is below the threshold."""
    p = Fraction(p)
    threshold = (p.numerator << 64) // p.denominator
    buf = bytearray((len(draws) + 7) // 8)
    for v, draw in enumerate(draws):
        if draw < threshold:
            buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def test_random_coloring_matches_stream():
    # vertex v is blue iff the v-th splitmix64 output clears the threshold;
    # 2^12 vertices fill one lane block, 2^13 and 2^16 span several
    for n, k in ((0, 0), (2, 0), (1, 2), (3, 4), (6, 5), (7, 5), (6, 7), (10, 6)):
        g = GroundSplit(n, k)
        draws = _draws(g.total, 5)
        for p in (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)):
            c = random_coloring(g, 5, blue_probability=p)
            assert c.bits == _stream_bits(draws, p), (n, k, p)


def test_random_coloring_threshold_boundary():
    # a draw one below the threshold is blue, a draw equal to it is red,
    # in the first, last and interior lanes of a block and across blocks
    g = GroundSplit(6, 7)
    draws = _draws(g.total, 5)
    for v in (0, 1, 2047, 4095, 4096, 8191):
        for threshold, blue in ((draws[v] + 1, True), (draws[v], False)):
            p = Fraction(threshold, 1 << 64)
            c = random_coloring(g, 5, blue_probability=p)
            assert c.is_blue(v) is blue, (v, blue)
            assert c.bits == _stream_bits(draws, p), (v, blue)


_PROBABILITIES = (Fraction(0), Fraction(1), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
                  Fraction(7, 8), 0.37)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14), st.integers(0, 2**80 - 1), st.sampled_from(_PROBABILITIES))
def test_random_coloring_matches_stream_random(dim: int, seed: int, p: Fraction | float):
    g = GroundSplit(dim // 2, dim - dim // 2)
    assert random_coloring(g, seed, p).bits == _stream_bits(_draws(dim, seed), p)


def test_random_coloring_rejects_dimension_past_cap():
    with pytest.raises(ValueError, match="cap 24"):
        random_coloring(GroundSplit(20, 5), 1)


# ------------------------------------------------------------ text format


def test_coloring_text_round_trip():
    c = Coloring(3, 0b10110100)
    text = coloring_to_text(c)
    assert text.splitlines()[0] == "poset-ramsey-coloring v1 N=3"
    assert coloring_from_text(text) == c


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_coloring_text_round_trip_random(dim: int, raw: int):
    c = Coloring(dim, raw & ((1 << (1 << dim)) - 1))
    assert coloring_from_text(coloring_to_text(c)) == c


def test_coloring_text_rejects_malformed():
    with pytest.raises(ValueError):
        coloring_from_text("nonsense v1 N=2\n06\n")
    with pytest.raises(ValueError):
        coloring_from_text("poset-ramsey-coloring v2 N=2\n06\n")
    with pytest.raises(ValueError):
        coloring_from_text("poset-ramsey-coloring v1 N=x\n06\n")
    with pytest.raises(ValueError):
        coloring_from_text("poset-ramsey-coloring v1 N=2\n")
    with pytest.raises(ValueError):
        coloring_from_text("poset-ramsey-coloring v1 N=2\n0q\n")
    with pytest.raises(ValueError):
        # wrong byte count for N=2
        coloring_from_text("poset-ramsey-coloring v1 N=2\n0610\n")


def test_coloring_file_round_trip(tmp_path):
    c = Coloring(4, 0xBEEF)
    path = tmp_path / "c.txt"
    write_coloring(path, c)
    assert read_coloring(path) == c
