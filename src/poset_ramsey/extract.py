"""Certificate-producing procedures behind the upper-bound arguments.

Three pipelines; each blue chain, red cube and spindle they find is a
certificate that an independent checker re-verifies from lattice primitives
alone:

  * the chain-or-red dichotomy: every coloring of a split lattice yields a
    blue prefix chain for a given Y-ordering or a red copy of the full
    X-dimensional lattice;
  * the chain family / pigeonhole / Dilworth pipeline: many orderings give
    many blue chains, shared end vertices give a class, and the class either
    contains a blue spindle or has a chain cover with fewer than s chains,
    on which ``distinctness_contradiction`` checks the paper's counting
    lemma;
  * the clear-vertex classification used when bounds compose under gluing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

from poset_ramsey import _kernels
from poset_ramsey.errors import InvariantViolation
from poset_ramsey.lattice import (
    Coloring,
    GroundSplit,
    YOrdering,
    pair_leq,
    prefix_mask,
)
from poset_ramsey.posets import (
    ChainCover,
    Poset,
    SpindleSpec,
    dilworth_cover,
    inclusion_poset,
    is_json_int,
    max_antichain,
    poset_from_json_dict,
    poset_to_json_dict,
)
from poset_ramsey.search import cannot_fit, verify_witness


# ---------------------------------------------------------------------------
# Certificate types


@dataclass(frozen=True)
class BlueChainCert:
    """Blue chain whose i-th vertex has Y-part equal to the ordering's i-prefix.

    ``vertices[i]`` is the mask X_i | Y(i); the X-parts are nested upward, so
    consecutive vertices differ by one Y bit plus possibly some X bits.
    """

    split: GroundSplit
    ordering: YOrdering
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class RedQnCert:
    """Red copy of the dimension-``dimension`` lattice; images[i] hosts mask i."""

    split: GroundSplit
    dimension: int
    images: tuple[int, ...]


@dataclass(frozen=True)
class ChainFamily:
    """One blue prefix chain per Y-ordering, in the order the orderings came."""

    split: GroundSplit
    entries: tuple[BlueChainCert, ...]


@dataclass(frozen=True)
class EndClass:
    """Sub-family of chains agreeing on the end vertices at the given indices.

    ``indices`` lists the fixed chain positions (low r and high t); the entry
    at ``end_vertices[j]`` is the shared mask at position ``indices[j]``.
    """

    indices: tuple[int, ...]
    end_vertices: tuple[int, ...]
    members: tuple[BlueChainCert, ...]

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Every member-chain vertex once, ascending: the class poset's elements."""
        return tuple(sorted({v for cert in self.members for v in cert.vertices}))


@dataclass(frozen=True)
class SpindleCert:
    """Blue realization of an r-chain / s-antichain / t-chain stack."""

    split: GroundSplit
    shape: SpindleSpec
    lower: tuple[int, ...]
    middle: tuple[int, ...]
    upper: tuple[int, ...]

    def all_vertices(self) -> tuple[int, ...]:
        return self.lower + self.middle + self.upper


@dataclass(frozen=True)
class ClearClassification:
    """Per-blue-vertex clear flags plus the derived green/yellow split.

    ``blue[i]`` is the i-th blue vertex; ``p1_clear[i]`` means no blue copy
    of the first poset has that vertex as the image of its unique maximum,
    ``p2_clear[i]`` the same with the second poset's unique minimum.  Green
    is blue-and-p1_clear; yellow is every other vertex of the lattice.
    """

    blue: tuple[int, ...]
    p1_clear: tuple[bool, ...]
    p2_clear: tuple[bool, ...]
    green: tuple[int, ...]
    yellow: tuple[int, ...]


@dataclass(frozen=True)
class WitnessCert:
    """Claim that a coloring avoids blue ``target`` and red lattice copies."""

    dim: int
    target_dimension: int
    target: Poset


Certificate = BlueChainCert | RedQnCert | SpindleCert | WitnessCert


# ---------------------------------------------------------------------------
# Chain-or-red dichotomy


_LEVEL_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _blue_level(coloring: Coloring, g: GroundSplit, y_part: int) -> bytearray:
    """Blue flags of the vertices x | y_part, one byte per X-part x.

    X holds the low n bits and ``y_part`` none of them, so the level's 2^n
    vertices are consecutive: one shift of the color bits reads them all,
    and one ``translate`` of their binary digits (reversed, so byte x is
    bit x) expands them to bytes.
    """
    x_count = 1 << g.n
    level = (coloring.bits >> y_part) & ((1 << x_count) - 1)
    return bytearray(format(level, f"0{x_count}b")[::-1].encode().translate(_LEVEL_FLAGS))


def find_blue_prefix_chain(
    coloring: Coloring, g: GroundSplit, pi: YOrdering
) -> BlueChainCert | None:
    """The blue chain of :func:`chain_or_red`, or None where it gives a red cube."""
    cert = chain_or_red(coloring, g, pi)
    return cert if isinstance(cert, BlueChainCert) else None


def chain_or_red(
    coloring: Coloring, g: GroundSplit, pi: YOrdering
) -> BlueChainCert | RedQnCert:
    """Least blue chain (X_0|Y(0)), ..., (X_k|Y(k)) with nested X-parts, else
    a red copy of the X-lattice, both read off one top-down pass.

    Level sets are pruned top-down: an X-part survives at level i only if it
    is blue there and some superset survives at level i+1.  The surviving
    sets make the left-to-right smallest-first extraction backtrack-free, so
    the returned X-tuple is the lexicographic minimum among valid towers.

    The red copy is built, not searched for.  Let reach(i), for i in 1..k, be
    the X-parts with a surviving superset at level i: built with level i, it
    prunes level i-1.  A survivor at level i has one at level i+1 above
    it, so reach(i) grows with i, and no chain means nothing survives at level
    0.  Let d[X] be the number of levels i with X not in reach(i); then X is
    in reach(i) exactly for i > d[X], and X -> X|Y(d[X]) is a red induced
    copy of the X-lattice:

      * red: were X|Y(d[X]) blue, X would survive at level d[X], since
        d[X] = k or X is in reach(d[X]+1).  A survivor at level 0 starts a
        chain, and one at level i >= 1 lies in reach(i), which X does not;
      * order-preserving: reach(i) is closed under subsets, so X inside X'
        gives d[X] <= d[X'];
      * injective and order-reflecting: the X-parts of the images are X.

    d is counted only when no chain exists.
    """
    return _chain_or_red(coloring, g, pi, {})


def _superset_closure(survivors: bytearray, n: int) -> bytearray:
    """reach of one level: closed[x] = 1 when x or a superset of x survives."""
    closed = bytearray(survivors)
    for b in range(n):
        bit = 1 << b
        for x in range(1 << n):
            if not x & bit and closed[x | bit]:
                closed[x] = 1
    return closed


def _chain_or_red(
    coloring: Coloring,
    g: GroundSplit,
    pi: YOrdering,
    table: dict[tuple[int, ...], tuple[bytearray, bytearray]],
) -> BlueChainCert | RedQnCert:
    """:func:`chain_or_red`, reading levels that other orderings built.

    Level i's survivors and reach(i) depend only on the suffix
    ``pi.order[i:]``, which fixes the prefixes Y(i), ..., Y(k).  ``table``,
    kept across the orderings of one family, maps suffixes to (survivors,
    reach) pairs: the pass reads each level found there and stores each
    level i >= 2 it builds.  Levels 0 and 1 are never stored, since k - 1
    entries fix the ordering, and level 0 needs no reach.  Other orderings
    read a stored pair, so nothing writes to it once stored.
    """
    if coloring.dim != g.total:
        raise ValueError("coloring dimension differs from the ground split")
    if pi.split != g:
        raise ValueError("ordering belongs to a different ground split")
    x_count = 1 << g.n
    prefixes = [prefix_mask(pi, i) for i in range(g.k + 1)]
    feasible: list[bytearray] = [bytearray()] * (g.k + 1)
    reach: list[bytearray] = [bytearray()] * (g.k + 1)
    for level in range(g.k, -1, -1):
        suffix = pi.order[level:]
        pair = table.get(suffix)
        if pair is None:
            cur = _blue_level(coloring, g, prefixes[level])
            if level < g.k:
                above = reach[level + 1]
                for x in range(x_count):
                    cur[x] &= above[x]
            pair = (cur, _superset_closure(cur, g.n) if level else bytearray())
            if level >= 2:
                table[suffix] = pair
        feasible[level], reach[level] = pair
    first = next((x for x in range(x_count) if feasible[0][x]), None)
    if first is None:
        images = tuple(x | prefixes[sum(1 - r[x] for r in reach[1:])] for x in range(x_count))
        return RedQnCert(split=g, dimension=g.n, images=images)
    xs = [first]
    for level in range(1, g.k + 1):
        cur = feasible[level]
        prev = xs[-1]
        xs.append(next(x for x in range(x_count) if (prev & x) == prev and cur[x]))
    vertices = tuple(x | prefixes[i] for i, x in enumerate(xs))
    return BlueChainCert(split=g, ordering=pi, vertices=vertices)


#: Most Y-orderings a chain family may take: ``ramsey extract --what
#: family|spindle`` lists all k! of them before any check, 1.6 GB at k = 9,
#: so it refuses a larger k before building the list.
MAX_FAMILY_ORDERINGS = math.factorial(9)


def collect_chain_family(
    coloring: Coloring, g: GroundSplit, orderings: Sequence[YOrdering]
) -> ChainFamily | RedQnCert:
    """One blue chain per ordering, short-circuiting on the first red copy.

    Orderings are evaluated in index order, so the red certificate (when any
    ordering produces one) is always the lowest-index one.  Each level is
    built once per ordering suffix, with its reach, and shared by the
    orderings that end in it (see ``_chain_or_red``): 2·k! + sum over
    i = 2..k of k!/i! level builds for all k! orderings, about e·k!, where
    one pass per ordering takes (k+1)·k!.  Each level built but level 0
    takes one superset closure, stored with it as its reach, from which a
    red ordering reads its cube without a second pass.
    """
    if len(set(o.order for o in orderings)) != len(orderings):
        raise ValueError("orderings must be pairwise distinct")
    table: dict[tuple[int, ...], tuple[bytearray, bytearray]] = {}
    entries = []
    for pi in orderings:
        cert = _chain_or_red(coloring, g, pi, table)
        if isinstance(cert, RedQnCert):
            return cert
        entries.append(cert)
    return ChainFamily(split=g, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Pigeonhole end classes and the spindle / cover dichotomy


def end_indices(k: int, r: int, t: int) -> tuple[int, ...]:
    """Chain positions fixed by a class: the bottom r and the top t plus one."""
    if r < 0 or t < 0:
        raise ValueError("r and t must be nonnegative")
    if r + t > k + 1:
        raise ValueError(f"r + t = {r + t} exceeds the chain length k + 1 = {k + 1}")
    return tuple(range(r)) + tuple(range(k - t + 1, k + 1))


def pigeonhole_end_classes(family: ChainFamily, r: int, t: int) -> list[EndClass]:
    """Partition of the family by end-vertex tuples, largest class first.

    Ties keep first-appearance order, so the result is deterministic.
    """
    indices = end_indices(family.split.k, r, t)
    groups: dict[tuple[int, ...], list[BlueChainCert]] = {}
    for cert in family.entries:
        key = tuple(cert.vertices[i] for i in indices)
        groups.setdefault(key, []).append(cert)
    classes = [
        EndClass(indices=indices, end_vertices=key, members=tuple(members))
        for key, members in groups.items()
    ]
    classes.sort(key=lambda c: -len(c.members))
    return classes


def class_induced_poset(cls: EndClass) -> tuple[Poset, tuple[int, ...]]:
    """Poset induced by all member-chain vertices, with its mask table.

    Vertices shared between chains are deduplicated; element i of the poset
    is ``cls.masks[i]`` and the order is strict mask containment.
    """
    return inclusion_poset(cls.masks), cls.masks


def assemble_spindle(
    cls: EndClass, shape: SpindleSpec, g: GroundSplit
) -> SpindleCert | ChainCover:
    """Spindle from an s-antichain in the class poset, or its Dilworth cover.

    The class's fixed end vertices provide the lower and upper chains; any
    s-antichain consists of non-end vertices (ends are comparable to the
    whole class poset) and those sit strictly between the two chains.  When
    the maximum antichain is smaller than s the minimum chain cover comes
    back instead: it has at most s-1 chains, and ``distinctness_contradiction``
    checks the counting lemma on it.
    """
    if not cls.members:
        raise ValueError("class has no members")
    if cls.indices != end_indices(g.k, shape.r, shape.t):
        raise ValueError("class end indices do not match the requested shape")
    poset, masks = class_induced_poset(cls)
    lower = tuple(cls.end_vertices[: shape.r])
    upper = tuple(cls.end_vertices[shape.r :])
    if shape.s == 1:
        ends = set(cls.end_vertices)
        middle = next((m for m in masks if m not in ends), None)
        if middle is None:
            raise ValueError("no middle vertex available for a one-element layer")
        return SpindleCert(
            split=g, shape=shape, lower=lower, middle=(middle,), upper=upper
        )
    antichain = max_antichain(poset)
    if len(antichain) >= shape.s:
        middle = tuple(sorted(masks[i] for i in antichain)[: shape.s])
        return SpindleCert(
            split=g, shape=shape, lower=lower, middle=middle, upper=upper
        )
    return dilworth_cover(poset)


def distinctness_contradiction(cls: EndClass, cover: ChainCover) -> None:
    """The counting lemma on a class and a chain cover of its poset.

    Each member is labeled, level by level, by the cover chain that owns its
    vertex.  Two comparable masks with equally many Y bits have equal Y-parts,
    so members with one labeling share every Y-part and hence their ordering.
    Members of a family have distinct orderings, so the labeling is injective
    and a cover with c chains bounds the class by c^(k+1) members.  The first
    repeated labeling raises :class:`InvariantViolation`; a cover that does
    not partition the class poset raises ``ValueError``.
    """
    masks = cls.masks
    if sorted(e for chain in cover.chains for e in chain) != list(range(len(masks))):
        raise ValueError("cover does not partition the class poset")
    owner = {masks[e]: ci for ci, chain in enumerate(cover.chains) for e in chain}
    first_seen: dict[tuple[int, ...], int] = {}
    for j, cert in enumerate(cls.members):
        label = tuple(owner[v] for v in cert.vertices)
        if label in first_seen:
            raise InvariantViolation(
                f"class members {first_seen[label]} and {j} share the labeling {label}"
            )
        first_seen[label] = j


# ---------------------------------------------------------------------------
# Clear-vertex classification


def classify_clear(
    coloring: Coloring, g: GroundSplit, p1: Poset, p2: Poset
) -> ClearClassification:
    """Flag blue vertices that top no blue p1 copy / bottom no blue p2 copy.

    Requires p1 to have a unique maximum and p2 a unique minimum, since the
    flags anchor exactly those elements.
    """
    if coloring.dim != g.total:
        raise ValueError("coloring dimension differs from the ground split")
    for p in (p1, p2):
        _kernels.check_word_width(p.size, "anchored")
    p1_max = p1.maximal_elements()
    p2_min = p2.minimal_elements()
    if len(p1_max) != 1:
        raise ValueError("first poset must have a unique maximal element")
    if len(p2_min) != 1:
        raise ValueError("second poset must have a unique minimal element")
    # one host list for every anchored search: each is over the blue vertices
    blue = tuple(coloring.blue_vertices())

    def clear_flags(p: Poset, anchor: int) -> tuple[bool, ...]:
        if cannot_fit(p, coloring.dim):
            return (True,) * len(blue)
        return tuple(
            _kernels.find_induced_copy(p.down, p.up, blue, anchor, v) is None for v in blue
        )

    p1_clear = clear_flags(p1, p1_max[0])
    p2_clear = clear_flags(p2, p2_min[0])
    green = tuple(v for v, clear in zip(blue, p1_clear) if clear)
    green_set = set(green)
    yellow = tuple(
        v for v in range(coloring.vertex_count) if v not in green_set
    )
    return ClearClassification(
        blue=blue,
        p1_clear=p1_clear,
        p2_clear=p2_clear,
        green=green,
        yellow=yellow,
    )


# ---------------------------------------------------------------------------
# Independent checkers.  Chains, red cubes and spindles are checked from
# lattice primitives alone.  A witness claims that no copy exists, which only
# a search can show, so ``check_witness`` runs ``search.verify_witness``.


def check_blue_chain(cert: BlueChainCert, coloring: Coloring) -> list[str]:
    problems = []
    g = cert.split
    if coloring.dim != g.total:
        return ["coloring dimension differs from the certificate split"]
    if cert.ordering.split != g:
        problems.append("ordering belongs to a different ground split")
        return problems
    if len(cert.vertices) != g.k + 1:
        problems.append(f"expected {g.k + 1} vertices, got {len(cert.vertices)}")
        return problems
    for i, v in enumerate(cert.vertices):
        if v < 0 or v >> g.total:
            problems.append(f"vertex {i} outside the lattice")
            return problems
        if not coloring.is_blue(v):
            problems.append(f"vertex {i} is not blue")
        if v & g.y_mask != prefix_mask(cert.ordering, i):
            problems.append(f"vertex {i} has the wrong Y-part")
    for i in range(g.k):
        a, b = cert.vertices[i], cert.vertices[i + 1]
        if not (pair_leq(a, b) and a != b):
            problems.append(f"vertices {i} and {i + 1} do not ascend")
        if not pair_leq(a & g.x_mask, b & g.x_mask):
            problems.append(f"X-parts {i} and {i + 1} are not nested")
    return problems


def check_red_qn(cert: RedQnCert, coloring: Coloring) -> list[str]:
    """Red induced copy in d·2^(d-1) steps: f is monotone on cover pairs and no
    f({b}) lies below f(full - {b}).  That is enough: f(i) <= f(j) with b in i - j
    would give f({b}) <= f(i) <= f(j) <= f(full - {b}), so f is also injective."""
    if coloring.dim != cert.split.total:
        return ["coloring dimension differs from the certificate split"]
    if not 0 <= cert.dimension <= coloring.dim:
        return ["claimed lattice dimension does not fit inside the host"]
    images, full = cert.images, (1 << cert.dimension) - 1
    if len(images) != full + 1:
        return ["image count differs from target size"]
    problems = []
    for i, v in enumerate(images):
        if v < 0 or v >> coloring.dim:
            return problems + [f"image of {i} outside the lattice"]
        if coloring.is_blue(v):
            problems.append(f"image of {i} is not red")
    for x, top in enumerate(images):
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            if images[x ^ low] & ~top:
                problems.append(f"image of {x ^ low} is not below the image of {x}")
    for bit in (1 << b for b in range(cert.dimension)):
        if pair_leq(images[bit], images[full ^ bit]):
            problems.append(f"image of {bit} lies below the image of {full ^ bit}")
    return problems


def check_spindle(cert: SpindleCert, coloring: Coloring) -> list[str]:
    problems = []
    g = cert.split
    if coloring.dim != g.total:
        return ["coloring dimension differs from the certificate split"]
    shape = cert.shape
    if len(cert.lower) != shape.r:
        problems.append(f"expected {shape.r} lower vertices, got {len(cert.lower)}")
    if len(cert.middle) != shape.s:
        problems.append(f"expected {shape.s} middle vertices, got {len(cert.middle)}")
    if len(cert.upper) != shape.t:
        problems.append(f"expected {shape.t} upper vertices, got {len(cert.upper)}")
    if problems:
        return problems
    vertices = cert.all_vertices()
    for v in vertices:
        if v < 0 or v >> g.total:
            return [f"vertex {v} outside the lattice"]
        if not coloring.is_blue(v):
            problems.append(f"vertex {v} is not blue")
    if len(set(vertices)) != len(vertices):
        problems.append("vertices are not distinct")
    for chain in (cert.lower, cert.upper):
        for a, b in zip(chain, chain[1:]):
            if not (pair_leq(a, b) and a != b):
                problems.append(f"chain vertices {a} and {b} do not ascend")
    layers = {"lower": cert.lower, "middle": cert.middle, "upper": cert.upper}
    for low, high in (("lower", "middle"), ("middle", "upper"), ("lower", "upper")):
        for a in layers[low]:
            for b in layers[high]:
                if not (pair_leq(a, b) and a != b):
                    problems.append(f"{low} vertex {a} is not strictly below {high} {b}")
    for i, a in enumerate(cert.middle):
        for b in cert.middle[i + 1 :]:
            if pair_leq(a, b) or pair_leq(b, a):
                problems.append(f"middle vertices {a} and {b} are comparable")
    # these relations pin the induced order down to the spindle's: no search
    return problems


def check_witness(cert: WitnessCert, coloring: Coloring) -> list[str]:
    if coloring.dim != cert.dim:
        return ["coloring dimension differs from the certificate"]
    if not 0 <= cert.target_dimension <= coloring.dim:
        return ["claimed lattice dimension does not fit inside the host"]
    if max(cert.target.size, 1 << cert.target_dimension) > _kernels.MAX_TARGET_SIZE:
        return [f"target and lattice are capped at {_kernels.MAX_TARGET_SIZE} elements"]
    result = verify_witness(coloring, cert.target, cert.target_dimension)
    if result.ok:
        return []
    return [
        f"coloring contains a {result.violation_color} copy at "
        f"{list(result.violation.images)}"
    ]


# ---------------------------------------------------------------------------
# Certificate kinds: one JSON encoder and decoder each, and the table of kinds


def ground_to_json_dict(split: GroundSplit) -> dict:
    return {"n": split.n, "k": split.k}


def ground_from_json_dict(raw: object) -> GroundSplit:
    if not isinstance(raw, dict):
        raise ValueError("ground must be an object with n and k")
    n, k = raw.get("n"), raw.get("k")
    if not is_json_int(n) or not is_json_int(k):
        raise ValueError("ground must carry integer n and k")
    return GroundSplit(n, k)


def _require(data: dict, key: str, kind: str) -> object:
    if key not in data:
        raise ValueError(f"{kind} certificate is missing {key!r}")
    return data[key]


def _int_list(data: dict, key: str, kind: str) -> tuple[int, ...]:
    value = _require(data, key, kind)
    if not isinstance(value, list) or not all(is_json_int(v) for v in value):
        raise ValueError(f"{key} must be a list of integers")
    return tuple(value)


def _blue_chain_to_json(cert: BlueChainCert) -> dict:
    return {
        "ground": ground_to_json_dict(cert.split),
        "ordering": list(cert.ordering.order),
        "vertices": list(cert.vertices),
    }


def _blue_chain_from_json(data: dict, kind: str) -> BlueChainCert:
    g = ground_from_json_dict(_require(data, "ground", kind))
    ordering = YOrdering(g, _int_list(data, "ordering", kind))
    return BlueChainCert(split=g, ordering=ordering, vertices=_int_list(data, "vertices", kind))


def _red_qn_to_json(cert: RedQnCert) -> dict:
    return {
        "ground": ground_to_json_dict(cert.split),
        "target_dimension": cert.dimension,
        "images": list(cert.images),
    }


def _red_qn_from_json(data: dict, kind: str) -> RedQnCert:
    g = ground_from_json_dict(_require(data, "ground", kind))
    dim = _require(data, "target_dimension", kind)
    if not is_json_int(dim) or dim < 0:
        raise ValueError("target_dimension must be a nonnegative integer")
    return RedQnCert(split=g, dimension=dim, images=_int_list(data, "images", kind))


def _spindle_to_json(cert: SpindleCert) -> dict:
    return {
        "ground": ground_to_json_dict(cert.split),
        "shape": {"r": cert.shape.r, "s": cert.shape.s, "t": cert.shape.t},
        "lower": list(cert.lower),
        "middle": list(cert.middle),
        "upper": list(cert.upper),
    }


def _spindle_from_json(data: dict, kind: str) -> SpindleCert:
    g = ground_from_json_dict(_require(data, "ground", kind))
    raw_shape = _require(data, "shape", kind)
    if not isinstance(raw_shape, dict) or not all(
        is_json_int(raw_shape.get(f)) for f in ("r", "s", "t")
    ):
        raise ValueError("shape must carry integer r, s, t")
    shape = SpindleSpec(raw_shape["r"], raw_shape["s"], raw_shape["t"])
    lower, middle, upper = (_int_list(data, key, kind) for key in ("lower", "middle", "upper"))
    return SpindleCert(split=g, shape=shape, lower=lower, middle=middle, upper=upper)


def _witness_to_json(cert: WitnessCert) -> dict:
    return {
        "dim": cert.dim,
        "target_dimension": cert.target_dimension,
        "target": poset_to_json_dict(cert.target),
    }


def _witness_from_json(data: dict, kind: str) -> WitnessCert:
    dim = _require(data, "dim", kind)
    target_dim = _require(data, "target_dimension", kind)
    if not is_json_int(dim) or dim < 0:
        raise ValueError("dim must be a nonnegative integer")
    if not is_json_int(target_dim) or target_dim < 0:
        raise ValueError("target_dimension must be a nonnegative integer")
    target = poset_from_json_dict(_require(data, "target", kind))
    return WitnessCert(dim=dim, target_dimension=target_dim, target=target)


class CertificateKind(NamedTuple):
    """A kind's class, checker, and JSON form without the ``kind`` key; the
    decoder takes the kind name for its error messages."""

    cls: type
    check: Callable[[Any, Coloring], list[str]]
    encode: Callable[[Any], dict]
    decode: Callable[[dict, str], Certificate]


#: Every certificate kind, keyed by its JSON ``kind`` name.  A new kind is a
#: class, a checker, an encoder/decoder pair and one entry here.
CERTIFICATE_KINDS: dict[str, CertificateKind] = {
    "blue_chain": CertificateKind(BlueChainCert, check_blue_chain,
                                  _blue_chain_to_json, _blue_chain_from_json),
    "red_qn": CertificateKind(RedQnCert, check_red_qn, _red_qn_to_json, _red_qn_from_json),
    "spindle": CertificateKind(SpindleCert, check_spindle, _spindle_to_json, _spindle_from_json),
    "witness": CertificateKind(WitnessCert, check_witness, _witness_to_json, _witness_from_json),
}

_KIND_NAMES = {kind.cls: name for name, kind in CERTIFICATE_KINDS.items()}


def _kind_name(cert: object) -> str:
    name = _KIND_NAMES.get(type(cert))
    if name is None:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    return name


def verify_certificate(cert: Certificate, coloring: Coloring) -> list[str]:
    """Problems list from the checker matching the certificate type."""
    return CERTIFICATE_KINDS[_kind_name(cert)].check(cert, coloring)


def certificate_to_json_dict(cert: Certificate) -> dict:
    name = _kind_name(cert)
    return {"kind": name, **CERTIFICATE_KINDS[name].encode(cert)}


def certificate_from_json_dict(data: object) -> Certificate:
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    kind = data.get("kind")
    # a JSON list or object is unhashable, and unknown like any other value
    entry = CERTIFICATE_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    return entry.decode(data, kind)


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_json_dict(cert), indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_json_dict(json.loads(text))
