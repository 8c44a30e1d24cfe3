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
from dataclasses import dataclass
from typing import Sequence

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
    is_json_int,
    max_antichain,
    poset_from_json_dict,
    poset_to_json_dict,
)
from poset_ramsey.search import verify_witness


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
    entries: tuple[tuple[YOrdering, BlueChainCert], ...]


@dataclass(frozen=True)
class EndClass:
    """Sub-family of chains agreeing on the end vertices at the given indices.

    ``indices`` lists the fixed chain positions (low r and high t); the entry
    at ``end_vertices[j]`` is the shared mask at position ``indices[j]``.
    """

    indices: tuple[int, ...]
    end_vertices: tuple[int, ...]
    members: tuple[tuple[YOrdering, BlueChainCert], ...]


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

    dim: int
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


def find_blue_prefix_chain(
    coloring: Coloring, g: GroundSplit, pi: YOrdering
) -> BlueChainCert | None:
    """Least blue chain (X_0|Y(0)), ..., (X_k|Y(k)) with nested X-parts.

    Level sets are pruned top-down: an X-part survives at level i only if it
    is blue there and some superset survives at level i+1.  The surviving
    sets make the left-to-right smallest-first extraction backtrack-free, so
    the returned X-tuple is the lexicographic minimum among valid towers.
    """
    if coloring.dim != g.total:
        raise ValueError("coloring dimension differs from the ground split")
    if pi.split != g:
        raise ValueError("ordering belongs to a different ground split")
    x_count = 1 << g.n
    feasible: list[bytearray] = [bytearray(x_count) for _ in range(g.k + 1)]
    above: bytearray | None = None
    for level in range(g.k, -1, -1):
        y_part = prefix_mask(pi, level)
        cur = feasible[level]
        for x in range(x_count):
            if coloring.is_blue(x | y_part):
                cur[x] = 1
        if above is not None:
            # Superset reachability: closed[x] = some superset feasible above.
            closed = bytearray(above)
            for b in range(g.n):
                bit = 1 << b
                for x in range(x_count):
                    if not x & bit and closed[x | bit]:
                        closed[x] = 1
            for x in range(x_count):
                cur[x] &= closed[x]
        above = cur
    first = next((x for x in range(x_count) if feasible[0][x]), None)
    if first is None:
        return None
    xs = [first]
    for level in range(1, g.k + 1):
        cur = feasible[level]
        prev = xs[-1]
        xs.append(next(x for x in range(x_count) if (prev & x) == prev and cur[x]))
    vertices = tuple(x | prefix_mask(pi, i) for i, x in enumerate(xs))
    return BlueChainCert(split=g, ordering=pi, vertices=vertices)


def chain_or_red(
    coloring: Coloring, g: GroundSplit, pi: YOrdering
) -> BlueChainCert | RedQnCert:
    """Blue prefix chain for ``pi`` if one exists, else a red lattice copy.

    The red copy is built, not searched for.  Let h[X] be the length of the
    longest blue prefix chain whose X-parts all lie inside X.  Then
    h[X] = L + (the run of blue vertices X|Y(L), X|Y(L+1), ...), where L is
    the largest h[X - b] over b in X, so one pass over the X-parts in
    ascending mask order fills the table.  h is monotone and stays at most k
    when no blue chain exists; then X -> X|Y(h[X]) is an induced copy of the
    X-lattice, red because the run of blue vertices stopped there.  h
    reaching k+1 after all is impossible for a genuine coloring and raises
    :class:`InvariantViolation`.
    """
    chain = find_blue_prefix_chain(coloring, g, pi)
    if chain is not None:
        return chain
    prefixes = [prefix_mask(pi, i) for i in range(g.k + 1)]
    h = [0] * (1 << g.n)
    for x in range(1 << g.n):
        level = 0
        rest = x
        while rest:
            low = rest & -rest
            level = max(level, h[x ^ low])
            rest ^= low
        while level <= g.k and coloring.is_blue(x | prefixes[level]):
            level += 1
        if level > g.k:
            raise InvariantViolation(
                "no blue prefix chain, yet a blue chain ends inside X-part "
                f"{x}: corrupted coloring or implementation bug"
            )
        h[x] = level
    images = tuple(x | prefixes[level] for x, level in enumerate(h))
    return RedQnCert(split=g, dimension=g.n, images=images)


def collect_chain_family(
    coloring: Coloring, g: GroundSplit, orderings: Sequence[YOrdering]
) -> ChainFamily | RedQnCert:
    """One blue chain per ordering, short-circuiting on the first red copy.

    Orderings are evaluated in index order, so the red certificate (when any
    ordering produces one) is always the lowest-index one.
    """
    if len(set(o.order for o in orderings)) != len(orderings):
        raise ValueError("orderings must be pairwise distinct")
    entries = []
    for pi in orderings:
        cert = chain_or_red(coloring, g, pi)
        if isinstance(cert, RedQnCert):
            return cert
        entries.append((pi, cert))
    return ChainFamily(split=g, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Pigeonhole end classes and the spindle / cover dichotomy


def end_indices(k: int, r: int, t: int) -> tuple[int, ...]:
    """Chain positions fixed by a class: the bottom r and the top t plus one."""
    if r < 0 or t < 0:
        raise ValueError("r and t must be nonnegative")
    if r + t > k + 1:
        raise ValueError("r + t exceeds the chain length")
    return tuple(range(r)) + tuple(range(k - t + 1, k + 1))


def pigeonhole_end_classes(family: ChainFamily, r: int, t: int) -> list[EndClass]:
    """Partition of the family by end-vertex tuples, largest class first.

    Ties keep first-appearance order, so the result is deterministic.
    """
    indices = end_indices(family.split.k, r, t)
    groups: dict[tuple[int, ...], list[tuple[YOrdering, BlueChainCert]]] = {}
    for entry in family.entries:
        key = tuple(entry[1].vertices[i] for i in indices)
        groups.setdefault(key, []).append(entry)
    classes = [
        EndClass(indices=indices, end_vertices=key, members=tuple(members))
        for key, members in groups.items()
    ]
    classes.sort(key=lambda c: -len(c.members))
    return classes


def _class_masks(cls: EndClass) -> tuple[int, ...]:
    return tuple(sorted({v for _, cert in cls.members for v in cert.vertices}))


def class_induced_poset(cls: EndClass) -> tuple[Poset, tuple[int, ...]]:
    """Poset induced by all member-chain vertices, with its mask table.

    Vertices shared between chains are deduplicated; element i of the poset
    is ``masks[i]`` and the order is strict mask containment.
    """
    masks = _class_masks(cls)
    up = []
    for a in masks:
        bits = 0
        for j, b in enumerate(masks):
            if a != b and pair_leq(a, b):
                bits |= 1 << j
        up.append(bits)
    return Poset(len(masks), tuple(up)), masks


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
    masks = _class_masks(cls)
    if sorted(e for chain in cover.chains for e in chain) != list(range(len(masks))):
        raise ValueError("cover does not partition the class poset")
    owner = {masks[e]: ci for ci, chain in enumerate(cover.chains) for e in chain}
    first_seen: dict[tuple[int, ...], int] = {}
    for j, (_, cert) in enumerate(cls.members):
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
    p1_clear = tuple(
        _kernels.find_induced_copy(p1.down, p1.up, blue, p1_max[0], v) is None
        for v in blue
    )
    p2_clear = tuple(
        _kernels.find_induced_copy(p2.down, p2.up, blue, p2_min[0], v) is None
        for v in blue
    )
    green = tuple(v for v, clear in zip(blue, p1_clear) if clear)
    green_set = set(green)
    yellow = tuple(
        v for v in range(coloring.vertex_count) if v not in green_set
    )
    return ClearClassification(
        dim=coloring.dim,
        blue=blue,
        p1_clear=p1_clear,
        p2_clear=p2_clear,
        green=green,
        yellow=yellow,
    )


# ---------------------------------------------------------------------------
# Independent checkers (lattice primitives only, no search state)


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


def verify_certificate(cert: Certificate, coloring: Coloring) -> list[str]:
    """Problems list from the checker matching the certificate type."""
    if isinstance(cert, BlueChainCert):
        return check_blue_chain(cert, coloring)
    if isinstance(cert, RedQnCert):
        return check_red_qn(cert, coloring)
    if isinstance(cert, SpindleCert):
        return check_spindle(cert, coloring)
    if isinstance(cert, WitnessCert):
        return check_witness(cert, coloring)
    raise TypeError(f"not a certificate: {type(cert).__name__}")


# ---------------------------------------------------------------------------
# JSON round trip


def certificate_to_json_dict(cert: Certificate) -> dict:
    if isinstance(cert, BlueChainCert):
        return {
            "kind": "blue_chain",
            "ground": {"n": cert.split.n, "k": cert.split.k},
            "ordering": list(cert.ordering.order),
            "vertices": list(cert.vertices),
        }
    if isinstance(cert, RedQnCert):
        return {
            "kind": "red_qn",
            "ground": {"n": cert.split.n, "k": cert.split.k},
            "target_dimension": cert.dimension,
            "images": list(cert.images),
        }
    if isinstance(cert, SpindleCert):
        return {
            "kind": "spindle",
            "ground": {"n": cert.split.n, "k": cert.split.k},
            "shape": {"r": cert.shape.r, "s": cert.shape.s, "t": cert.shape.t},
            "lower": list(cert.lower),
            "middle": list(cert.middle),
            "upper": list(cert.upper),
        }
    if isinstance(cert, WitnessCert):
        return {
            "kind": "witness",
            "dim": cert.dim,
            "target_dimension": cert.target_dimension,
            "target": poset_to_json_dict(cert.target),
        }
    raise TypeError(f"not a certificate: {type(cert).__name__}")


def _require(data: dict, key: str, kind: str) -> object:
    if key not in data:
        raise ValueError(f"{kind} certificate is missing {key!r}")
    return data[key]


def _int_list(value: object, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(is_json_int(v) for v in value):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def _ground(data: dict, kind: str) -> GroundSplit:
    raw = _require(data, "ground", kind)
    if not isinstance(raw, dict):
        raise ValueError("ground must be an object with n and k")
    n, k = raw.get("n"), raw.get("k")
    if not is_json_int(n) or not is_json_int(k):
        raise ValueError("ground must carry integer n and k")
    return GroundSplit(n, k)


def certificate_from_json_dict(data: object) -> Certificate:
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    kind = data.get("kind")
    if kind == "blue_chain":
        g = _ground(data, kind)
        ordering = YOrdering(g, _int_list(_require(data, "ordering", kind), "ordering"))
        return BlueChainCert(
            split=g,
            ordering=ordering,
            vertices=_int_list(_require(data, "vertices", kind), "vertices"),
        )
    if kind == "red_qn":
        g = _ground(data, kind)
        dim = _require(data, "target_dimension", kind)
        if not is_json_int(dim) or dim < 0:
            raise ValueError("target_dimension must be a nonnegative integer")
        return RedQnCert(
            split=g,
            dimension=dim,
            images=_int_list(_require(data, "images", kind), "images"),
        )
    if kind == "spindle":
        g = _ground(data, kind)
        raw_shape = _require(data, "shape", kind)
        if not isinstance(raw_shape, dict) or not all(
            is_json_int(raw_shape.get(f)) for f in ("r", "s", "t")
        ):
            raise ValueError("shape must carry integer r, s, t")
        shape = SpindleSpec(raw_shape["r"], raw_shape["s"], raw_shape["t"])
        return SpindleCert(
            split=g,
            shape=shape,
            lower=_int_list(_require(data, "lower", kind), "lower"),
            middle=_int_list(_require(data, "middle", kind), "middle"),
            upper=_int_list(_require(data, "upper", kind), "upper"),
        )
    if kind == "witness":
        dim = _require(data, "dim", kind)
        target_dim = _require(data, "target_dimension", kind)
        if not is_json_int(dim) or dim < 0:
            raise ValueError("dim must be a nonnegative integer")
        if not is_json_int(target_dim) or target_dim < 0:
            raise ValueError("target_dimension must be a nonnegative integer")
        return WitnessCert(
            dim=dim,
            target_dimension=target_dim,
            target=poset_from_json_dict(_require(data, "target", kind)),
        )
    raise ValueError(f"unknown certificate kind: {kind!r}")


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_json_dict(cert), indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_json_dict(json.loads(text))
