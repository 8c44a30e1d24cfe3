"""Finite strict partial orders: constructors, decompositions, embeddings.

Elements are integers 0..size-1.  The strict order is stored as one bitmask
per element (``up[i]`` = elements strictly above i), which keeps the
validation and search loops branch-light.  Layered constructors number
elements bottom-up, elements within a layer in construction order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

from poset_ramsey import _kernels

#: Cap on size**2 for newly built Boolean-lattice posets.  Guards against
#: accidentally materializing a dimension-11+ lattice as an explicit poset.
DEFAULT_RELATION_BUDGET = 1 << 20


@dataclass(frozen=True)
class Poset:
    """Immutable strict partial order on ``size`` elements.

    ``up[i]`` is the bitmask of elements j with i < j.  Construction
    validates irreflexivity, antisymmetry and transitivity and raises
    ``ValueError`` on any breach.
    """

    size: int
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.size
        if n < 0:
            raise ValueError("size must be nonnegative")
        if len(self.up) != n:
            raise ValueError("up must have one mask per element")
        full = (1 << n) - 1
        for i, mask in enumerate(self.up):
            if mask & ~full:
                raise ValueError(f"up[{i}] references elements outside 0..{n - 1}")
            if (mask >> i) & 1:
                raise ValueError(f"relation is not irreflexive at {i}")
        for i in range(n):
            mask = self.up[i]
            j = 0
            rest = mask
            while rest:
                j = (rest & -rest).bit_length() - 1
                if (self.up[j] >> i) & 1:
                    raise ValueError(f"relation is not antisymmetric at ({i}, {j})")
                # transitivity: everything above j must be above i
                if self.up[j] & ~mask:
                    raise ValueError(f"relation is not transitive at ({i}, {j})")
                rest &= rest - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[i] = bitmask of elements strictly below i."""
        masks = [0] * self.size
        for i, mask in enumerate(self.up):
            rest = mask
            while rest:
                j = (rest & -rest).bit_length() - 1
                masks[j] |= 1 << i
                rest &= rest - 1
        return tuple(masks)

    def lt(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self.up[i])

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if not self.down[i])

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """heights[i] = length of the longest chain strictly below i."""
        h = [0] * self.size
        for i in sorted(range(self.size), key=lambda e: self.down[e].bit_count()):
            rest = self.down[i]
            best = 0
            while rest:
                j = (rest & -rest).bit_length() - 1
                if h[j] + 1 > best:
                    best = h[j] + 1
                rest &= rest - 1
            h[i] = best
        return tuple(h)

    @cached_property
    def width(self) -> int:
        """Size of the largest antichain."""
        return len(max_antichain(self))


@dataclass(frozen=True)
class Embedding:
    """Injective order-preserving-and-reflecting map from a target poset.

    ``images[i]`` is the host identifier assigned to target element i:
    an element index when the host is a :class:`Poset`, a vertex mask when
    the host is a colored Boolean lattice.
    """

    images: tuple[int, ...]


@dataclass(frozen=True)
class MultipartiteSpec:
    """Layer sizes of a complete multipartite poset, bottom layer first."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 1:
            raise ValueError("at least one layer required")
        if any(t < 1 for t in self.layer_sizes):
            raise ValueError("layer sizes must be positive")

    @property
    def size(self) -> int:
        return sum(self.layer_sizes)


@dataclass(frozen=True)
class SpindleSpec:
    """Layer profile (1,)*r + (s,) + (1,)*t: r singletons, an s-layer, t singletons."""

    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.t < 0:
            raise ValueError("r and t must be nonnegative")
        if self.s < 1:
            raise ValueError("s must be positive")

    def layer_sizes(self) -> tuple[int, ...]:
        return (1,) * self.r + (self.s,) + (1,) * self.t

    @property
    def size(self) -> int:
        return self.r + self.s + self.t


@dataclass(frozen=True)
class ChainCover:
    """Partition of a poset's elements into chains, each listed bottom-up."""

    chains: tuple[tuple[int, ...], ...]


def make_chain(length: int) -> Poset:
    """Total order on ``length`` elements; length 0 gives the empty poset."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    full = (1 << length) - 1
    return Poset(length, tuple((full >> (i + 1)) << (i + 1) for i in range(length)))


def make_antichain(size: int) -> Poset:
    if size < 0:
        raise ValueError("size must be nonnegative")
    return Poset(size, (0,) * size)


def make_complete_multipartite(spec: MultipartiteSpec | Sequence[int]) -> Poset:
    """Layers A^1,...,A^l; x in A^i is below y in A^j exactly when i < j."""
    if not isinstance(spec, MultipartiteSpec):
        spec = MultipartiteSpec(tuple(spec))
    sizes = spec.layer_sizes
    total = spec.size
    up = []
    below = 0
    for t in sizes:
        above_mask = ((1 << total) - 1) & ~((1 << (below + t)) - 1)
        up.extend([above_mask] * t)
        below += t
    return Poset(total, tuple(up))


def make_spindle(spec: SpindleSpec | tuple[int, int, int]) -> Poset:
    if not isinstance(spec, SpindleSpec):
        spec = SpindleSpec(*spec)
    return make_complete_multipartite(spec.layer_sizes())


@cache
def make_boolean_poset(n: int) -> Poset:
    """Boolean lattice of dimension n as a poset; element i is the subset-mask i.

    Built once per n and shared, with the heights and width it caches: a
    ``Poset`` is immutable.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    size = 1 << n
    if size * size > DEFAULT_RELATION_BUDGET:
        raise ValueError(
            f"2^{n} elements exceed the relation budget ({size}^2 > {DEFAULT_RELATION_BUDGET})"
        )
    return inclusion_poset(range(size))


def inclusion_poset(masks: Sequence[int]) -> Poset:
    """Strict inclusion among distinct bitmasks; element i is ``masks[i]``."""
    up = []
    for a in masks:
        bits = 0
        for j, b in enumerate(masks):
            if a != b and a & b == a:
                bits |= 1 << j
        up.append(bits)
    return Poset(len(masks), tuple(up))


def glue(p1: Poset, p2: Poset) -> Poset:
    """Identify the unique maximal element of p1 with the unique minimal one of p2.

    Result indexing: p1's other elements first (original order), then the
    identified vertex, then p2's other elements (original order).  Raises
    ``ValueError`` unless p1 has exactly one maximal and p2 exactly one
    minimal element.
    """
    maxima = p1.maximal_elements()
    if len(maxima) != 1:
        raise ValueError(f"first operand needs a unique maximal element, has {len(maxima)}")
    minima = p2.minimal_elements()
    if len(minima) != 1:
        raise ValueError(f"second operand needs a unique minimal element, has {len(minima)}")
    z1, z2 = maxima[0], minima[0]

    a_elems = [i for i in range(p1.size) if i != z1]
    b_elems = [i for i in range(p2.size) if i != z2]
    size = p1.size + p2.size - 1
    mid = len(a_elems)  # index of the identified vertex
    a_index = {e: i for i, e in enumerate(a_elems)}
    b_index = {e: mid + 1 + i for i, e in enumerate(b_elems)}

    b_all = 0
    for i in b_index.values():
        b_all |= 1 << i

    up = [0] * size
    for e in a_elems:
        mask = 1 << mid | b_all  # everything from p1 sits below the joint and p2
        for f in a_elems:
            if p1.lt(e, f):
                mask |= 1 << a_index[f]
        up[a_index[e]] = mask
    up[mid] = b_all
    for e in b_elems:
        mask = 0
        for f in b_elems:
            if p2.lt(e, f):
                mask |= 1 << b_index[f]
        up[b_index[e]] = mask
    return Poset(size, tuple(up))


def _comparability_matching(p: Poset) -> list[int]:
    """Maximum bipartite matching on {(i, j) : i < j}; returns match_left.

    match_left[i] = j when the edge (i, j) is in the matching, else -1.
    Deterministic: augmenting from left vertices in ascending order,
    neighbors scanned in ascending order.
    """
    match_left = [-1] * p.size
    match_right = [-1] * p.size

    def try_augment(i: int, seen: list[bool]) -> bool:
        rest = p.up[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if seen[j]:
                continue
            seen[j] = True
            if match_right[j] == -1 or try_augment(match_right[j], seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(p.size):
        if p.up[i]:
            try_augment(i, [False] * p.size)
    return match_left


def max_antichain(p: Poset) -> tuple[int, ...]:
    """A maximum antichain, exact, via matching duality on the comparability graph."""
    match_left = _comparability_matching(p)
    match_right = [-1] * p.size
    for i, j in enumerate(match_left):
        if j != -1:
            match_right[j] = i

    # Alternating reachability from unmatched left vertices gives a minimum
    # vertex cover; elements outside the cover on both sides form the antichain.
    left_reached = [False] * p.size
    right_reached = [False] * p.size
    queue = [i for i in range(p.size) if match_left[i] == -1]
    for i in queue:
        left_reached[i] = True
    while queue:
        i = queue.pop()
        rest = p.up[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if right_reached[j]:
                continue
            right_reached[j] = True
            i2 = match_right[j]
            if i2 != -1 and not left_reached[i2]:
                left_reached[i2] = True
                queue.append(i2)

    antichain = tuple(
        v for v in range(p.size) if left_reached[v] and not right_reached[v]
    )
    matched = sum(1 for j in match_left if j != -1)
    if len(antichain) != p.size - matched:
        raise AssertionError("antichain size disagrees with matching defect")
    return antichain


def dilworth_cover(p: Poset) -> ChainCover:
    """Partition into the minimum number of chains (= maximum antichain size)."""
    match_left = _comparability_matching(p)
    has_pred = [False] * p.size
    for j in match_left:
        if j != -1:
            has_pred[j] = True
    chains = []
    for start in range(p.size):
        if has_pred[start]:
            continue
        chain = [start]
        cur = start
        while match_left[cur] != -1:
            cur = match_left[cur]
            chain.append(cur)
        chains.append(tuple(chain))
    return ChainCover(tuple(chains))


def find_poset_copy(target: Poset, host: Poset) -> Embedding | None:
    """First induced copy of ``target`` inside ``host``, or None.

    Host element h stands for the mask of its closed down-set, an order
    embedding of the host into a Boolean lattice, so the kernels' induced
    copy search does the work.  Target elements are assigned in index order
    and candidates tried in ascending mask order, which is ascending index
    order when every element's down-set has smaller indices (as in every
    constructor here).  Target and host are capped at 64 elements.
    """
    _kernels.check_word_width(target.size, "target")
    _kernels.check_word_width(host.size, "host")
    by_mask = sorted((host.down[h] | 1 << h, h) for h in range(host.size))
    images = _kernels.find_induced_copy(
        target.down, target.up, [mask for mask, _ in by_mask]
    )
    if images is None:
        return None
    element = dict(by_mask)
    return Embedding(tuple(element[mask] for mask in images))


def are_isomorphic(p1: Poset, p2: Poset) -> bool:
    """Order isomorphism: an induced copy inside a poset of the same size.

    Posets whose (up-degree, down-degree, height) profiles differ answer no
    without a search, which would otherwise take factorial time on, say, an
    antichain against a poset with one relation.  Like ``find_poset_copy``,
    this raises ``ValueError`` for posets over 64 elements.
    """
    if p1.size != p2.size:
        return False
    profiles = [
        sorted((p.up[i].bit_count(), p.down[i].bit_count(), p.heights[i]) for i in range(p.size))
        for p in (p1, p2)
    ]
    return profiles[0] == profiles[1] and find_poset_copy(p1, p2) is not None


def transitive_reduction(p: Poset) -> list[tuple[int, int]]:
    """Covering pairs (i, j): i < j with nothing strictly between."""
    edges = []
    for i in range(p.size):
        rest = p.up[i]
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not (p.up[i] & p.down[j]):
                edges.append((i, j))
    return edges


def is_json_int(value: object) -> bool:
    """An integer from decoded JSON; ``true`` and ``false`` decode to bools,
    which ``isinstance(value, int)`` would accept."""
    return isinstance(value, int) and not isinstance(value, bool)


def poset_to_json_dict(p: Poset) -> dict:
    """Serializable form; stores the transitive reduction only."""
    return {"size": p.size, "lt": [list(e) for e in transitive_reduction(p)]}


def poset_from_json_dict(data: object) -> Poset:
    """Rebuild a poset from its JSON form, recomputing the transitive closure."""
    if not isinstance(data, dict):
        raise ValueError("poset JSON must be an object")
    size = data.get("size")
    if not is_json_int(size) or size < 0:
        raise ValueError("poset JSON needs a nonnegative integer 'size'")
    if size * size > DEFAULT_RELATION_BUDGET:
        raise ValueError(
            f"{size} elements exceed the relation budget ({size}^2 > {DEFAULT_RELATION_BUDGET})"
        )
    edges = data.get("lt")
    if not isinstance(edges, list):
        raise ValueError("poset JSON needs a list 'lt' of [i, j] pairs")
    direct = [0] * size
    for idx, pair in enumerate(edges):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(is_json_int(x) for x in pair)
        ):
            raise ValueError(f"lt[{idx}] is not a pair of integers")
        i, j = pair
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"lt[{idx}] references elements outside 0..{size - 1}")
        if i == j:
            raise ValueError(f"lt[{idx}] relates an element to itself")
        direct[i] |= 1 << j
    # closure by repeated squaring of the reachability step
    up = list(direct)
    changed = True
    while changed:
        changed = False
        for i in range(size):
            mask = up[i]
            acc = mask
            rest = mask
            while rest:
                j = (rest & -rest).bit_length() - 1
                acc |= up[j]
                rest &= rest - 1
            if acc != mask:
                up[i] = acc
                changed = True
    for i in range(size):
        if (up[i] >> i) & 1:
            raise ValueError("edges contain a cycle; not a partial order")
    return Poset(size, tuple(up))


def poset_to_json(p: Poset) -> str:
    return json.dumps(poset_to_json_dict(p), indent=2, sort_keys=True)


def poset_from_json(text: str) -> Poset:
    return poset_from_json_dict(json.loads(text))


def poset_to_dot(p: Poset) -> str:
    """Graphviz source for the cover (Hasse) diagram, ranked by height."""
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    for i in range(p.size):
        lines.append(f"  v{i} [label=\"{i}\"];")
    by_height: dict[int, list[int]] = {}
    for i, h in enumerate(p.heights):
        by_height.setdefault(h, []).append(i)
    for h in sorted(by_height):
        members = "; ".join(f"v{i}" for i in by_height[h])
        lines.append(f"  {{ rank=same; {members}; }}")
    for i, j in transitive_reduction(p):
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
