"""Boolean lattices over a split ground set, and their two-colorings.

A vertex of the lattice over X u Y is a subset of the ground set, stored as
an integer bitmask: X occupies bit positions 0..n-1, Y occupies n..n+k-1.
The order is set inclusion.  A coloring assigns blue (bit 1) or red (bit 0)
to every vertex; colorings are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

#: Full-coloring materialization cap: 2^24 vertices is a 2 MB bit array.
MAX_COLORING_DIMENSION = 24

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GroundSplit:
    """Ground set sizes: n bits of X (positions 0..n-1), k bits of Y (n..n+k-1)."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("part sizes must be nonnegative")
        if self.n + self.k > 64:
            raise ValueError("ground set does not fit the 64-bit mask width")

    @property
    def total(self) -> int:
        return self.n + self.k

    @property
    def x_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def y_mask(self) -> int:
        return ((1 << self.k) - 1) << self.n

    def y_positions(self) -> range:
        return range(self.n, self.n + self.k)


def pair_leq(a: int, b: int) -> bool:
    """Lattice order: a <= b exactly when a's bits are a subset of b's."""
    return (a & b) == a


@dataclass(frozen=True)
class YOrdering:
    """A linear ordering (y_1, ..., y_k) of the Y bit positions."""

    split: GroundSplit
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(self.split.y_positions()):
            raise ValueError("order must be a permutation of the Y bit positions")

    @property
    def k(self) -> int:
        return self.split.k


def prefix_mask(pi: YOrdering, i: int) -> int:
    """Mask of {y_1, ..., y_i}; i = 0 gives the empty set."""
    if not 0 <= i <= pi.k:
        raise ValueError(f"prefix length {i} outside 0..{pi.k}")
    mask = 0
    for b in pi.order[:i]:
        mask |= 1 << b
    return mask


def all_orderings(split: GroundSplit) -> Iterator[YOrdering]:
    """All k! orderings of Y, lexicographically by position tuple."""
    for perm in permutations(split.y_positions()):
        yield YOrdering(split, perm)


class Coloring:
    """Blue/red coloring of all 2^dim vertices; bit v set = vertex v is blue."""

    __slots__ = ("dim", "bits")

    def __init__(self, dim: int, bits: int):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if dim > MAX_COLORING_DIMENSION:
            raise ValueError(f"dimension {dim} exceeds the cap {MAX_COLORING_DIMENSION}")
        if bits < 0 or bits >> (1 << dim):
            raise ValueError("color bits outside the vertex range")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("colorings are immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.dim == other.dim
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))

    def __repr__(self) -> str:
        return f"Coloring(dim={self.dim}, blue={self.blue_count()})"

    @property
    def vertex_count(self) -> int:
        return 1 << self.dim

    def is_blue(self, vertex: int) -> bool:
        if vertex < 0 or vertex >> self.dim:
            raise ValueError("vertex outside the lattice")
        return bool((self.bits >> vertex) & 1)

    def blue_count(self) -> int:
        return self.bits.bit_count()

    def blue_vertices(self) -> list[int]:
        return _set_bits(self.bits)

    def red_vertices(self) -> list[int]:
        return _set_bits(self.bits ^ ((1 << self.vertex_count) - 1))


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of ``x``, ascending, read off one ``bin()``.

    Shifting ``x`` once per position would cost O(2^dim) per vertex.
    """
    return [i for i, digit in enumerate(bin(x)[:1:-1]) if digit == "1"]


def _pack_bits(vertices: Iterable[int], vertex_count: int) -> int:
    """Color bits with exactly ``vertices`` blue; each vertex must be in range.

    Bits are set in a byte buffer and converted once: growing an integer
    with ``bits |= 1 << v`` copies it for every vertex.
    """
    buf = bytearray((vertex_count + 7) // 8)
    for v in vertices:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def coloring_from_blue_set(dim: int, blue: Sequence[int]) -> Coloring:
    for v in blue:
        if v < 0 or v >> dim:
            raise ValueError(f"vertex {v} outside the lattice")
    return Coloring(dim, _pack_bits(blue, 1 << dim))


def layered_coloring(split: GroundSplit, blue_sizes: Sequence[int]) -> Coloring:
    """Blue exactly the vertices whose popcount is in ``blue_sizes``."""
    total = split.total
    size_set = set(blue_sizes)
    if not size_set <= set(range(total + 1)):
        raise ValueError(f"layer indices must lie in 0..{total}")
    count = 1 << total
    blue = (v for v in range(count) if v.bit_count() in size_set)
    return Coloring(total, _pack_bits(blue, count))


#: splitmix64's state increment (the golden-ratio gamma) and output mixer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Draws evaluated together in one integer, one 128-bit lane each.
_BLOCK_LANES = 4096
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@cache
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """Per-lane 1, per-lane 2^64 - 1, and lane i holding (i + 1) * gamma mod 2^64.

    Built on first use, so commands that draw no coloring never pay for them.
    """
    one = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    steps = b"".join(((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(lanes))
    return one, low64, int.from_bytes(steps, "little")


def random_coloring(
    split: GroundSplit, seed: int, blue_probability: Fraction | float = Fraction(1, 2)
) -> Coloring:
    """Seeded random coloring: vertex v is blue when draw v is below the threshold.

    Draw v is output v of the splitmix64 stream from state ``seed mod 2^64``
    (Steele, Lea & Flood, OOPSLA 2014): the state advances by
    0x9E3779B97F4A7C15, and the output mixes the new state by xor-shift 30 /
    multiply 0xBF58476D1CE4E5B9, xor-shift 27 / multiply 0x94D049BB133111EB,
    xor-shift 31, all modulo 2^64.  The threshold is
    floor(blue_probability * 2^64), so equal seeds give identical colorings
    everywhere.

    The stream is counter-based (draw v mixes seed + (v + 1) * gamma), so a
    block of up to 4096 draws is evaluated at once, one draw per 128-bit lane
    of one integer.  Shifts are masked to their lane, and each 64 x 64-bit
    product fits its lane before it is reduced.  Bit 64 of a lane of
    (2^64 + threshold - 1) - z is set exactly when that lane's draw z is below
    the threshold; those flags are packed into the color bytes block by block.
    """
    if split.total > MAX_COLORING_DIMENSION:
        raise ValueError(f"dimension {split.total} exceeds the cap {MAX_COLORING_DIMENSION}")
    p = Fraction(blue_probability)
    if p < 0 or p > 1:
        raise ValueError("blue probability must lie in [0, 1]")
    threshold = (p.numerator << 64) // p.denominator
    count = 1 << split.total
    lanes = min(count, _BLOCK_LANES)
    one, low64, steps = _lane_constants(lanes)
    below = ((1 << 64) + threshold - 1) * one
    advance = (lanes * _GAMMA & _MASK64) * one
    state = steps + (seed & _MASK64) * one
    block_bytes = (lanes + 7) // 8
    buf = bytearray((count + 7) // 8)
    for offset in range(0, len(buf), block_bytes):
        state &= low64
        z = ((state ^ (state >> 30)) & low64) * _MIX1 & low64
        z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
        z ^= (z >> 31) & low64
        # big-endian, byte 7 of each lane is bit 64: last lane first, as int() reads
        flags = (below - z).to_bytes(16 * lanes, "big")[7::16]
        block = int(flags.translate(_FLAG_DIGITS), 2)
        buf[offset:offset + block_bytes] = block.to_bytes(block_bytes, "little")
        state += advance
    return Coloring(split.total, int.from_bytes(buf, "little"))


_HEADER_PREFIX = "poset-ramsey-coloring v1 N="


def coloring_to_text(coloring: Coloring) -> str:
    """File form: header line, then the color bits hex-encoded.

    Vertex 0 comes first, little-endian within bytes: vertex v sits at bit
    v % 8 of byte v // 8.
    """
    nbytes = ((1 << coloring.dim) + 7) // 8
    payload = coloring.bits.to_bytes(nbytes, "little").hex()
    return f"{_HEADER_PREFIX}{coloring.dim}\n{payload}\n"


def coloring_from_text(text: str) -> Coloring:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"missing coloring header '{_HEADER_PREFIX}<dim>' on line 1")
    try:
        dim = int(lines[0][len(_HEADER_PREFIX):])
    except ValueError:
        raise ValueError("coloring header dimension is not an integer") from None
    if dim < 0 or dim > MAX_COLORING_DIMENSION:
        raise ValueError(f"coloring dimension {dim} outside 0..{MAX_COLORING_DIMENSION}")
    payload = "".join(lines[1:]).strip()
    nbytes = ((1 << dim) + 7) // 8
    try:
        raw = bytes.fromhex(payload)
    except ValueError:
        raise ValueError("coloring payload is not valid hex") from None
    if len(raw) != nbytes:
        raise ValueError(
            f"coloring payload holds {len(raw)} bytes, dimension {dim} needs {nbytes}"
        )
    bits = int.from_bytes(raw, "little")
    if bits >> (1 << dim):
        raise ValueError("coloring payload sets bits beyond the vertex range")
    return Coloring(dim, bits)


def write_coloring(path: str, coloring: Coloring) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(coloring_to_text(coloring))


def read_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="ascii") as fh:
        return coloring_from_text(fh.read())
