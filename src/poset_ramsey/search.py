"""Colored-copy search, witness search, and exact Ramsey values at small scale.

A witness against R(P, Q_n) <= N is a coloring of the dimension-N lattice
with no blue induced copy of P and no red induced copy of the dimension-n
lattice.  ``ramsey_exact`` scans N upward from n; the first N admitting no
witness is the exact value, since a witness at N restricts to one at N-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Literal

from poset_ramsey import _kernels
from poset_ramsey.errors import SearchBudgetExceeded
from poset_ramsey.lattice import MAX_COLORING_DIMENSION, Coloring
from poset_ramsey.posets import Embedding, Poset, make_boolean_poset

#: Default cap on backtracking nodes per witness search.
DEFAULT_NODE_BUDGET = 1 << 26

#: Largest node budget: the compiled kernel counts nodes in a signed 64-bit
#: word.
MAX_NODE_BUDGET = (1 << 63) - 1

#: Ground-set permutation tables grow as N! * 2^N; past this they cost more
#: than the search they would prune.
MAX_SYMMETRY_DIMENSION = 6

Color = Literal["blue", "red"]


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock caps for one witness search."""

    max_nodes: int = DEFAULT_NODE_BUDGET
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("node budget must be positive")
        if self.max_nodes > MAX_NODE_BUDGET:
            raise ValueError(f"node budget must be at most {MAX_NODE_BUDGET}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time limit must be positive when given")


def _relation_arrays(p: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    _kernels.check_word_width(p.size, "target")
    return p.down, p.up


def cannot_fit(target: Poset, dim: int) -> bool:
    """Whether no copy of the target fits in the dimension-dim lattice: its
    longest chain has more than dim + 1 elements, or its widest antichain
    more than C(dim, dim // 2), the widest of the lattice (Sperner).  An
    antichain meets a longest chain at most once, so the width is at most
    the size minus the top height, and it is computed only when that bound
    exceeds the lattice's."""
    tallest = max(target.heights, default=0)
    widest = comb(dim, dim // 2)
    return tallest > dim or (target.size - tallest > widest and target.width > widest)


def find_colored_copy(target: Poset, coloring: Coloring, color: Color) -> Embedding | None:
    """First induced copy of ``target`` among the vertices of one color; the
    vertices are listed only once the target is known to fit."""
    below, above = _relation_arrays(target)
    if color not in ("blue", "red"):
        raise ValueError(f"color must be 'blue' or 'red', not {color!r}")
    if cannot_fit(target, coloring.dim):
        return None
    hosts = coloring.blue_vertices() if color == "blue" else coloring.red_vertices()
    images = _kernels.find_induced_copy(below, above, hosts)
    return None if images is None else Embedding(tuple(images))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of checking a would-be witness coloring."""

    ok: bool
    violation_color: Color | None = None
    violation: Embedding | None = None


def verify_witness(coloring: Coloring, p: Poset, n: int) -> VerifyResult:
    """Check that a coloring avoids blue copies of p and red dimension-n lattices."""
    blue_copy = find_colored_copy(p, coloring, "blue")
    if blue_copy is not None:
        return VerifyResult(False, "blue", blue_copy)
    # reject before building a lattice an untrusted n could inflate
    _kernels.check_word_width(1 << n, "lattice target")
    red_copy = find_colored_copy(make_boolean_poset(n), coloring, "red")
    if red_copy is not None:
        return VerifyResult(False, "red", red_copy)
    return VerifyResult(True)


@lru_cache(maxsize=None)
def ground_permutation_tables(num_bits: int) -> tuple[bytes, ...]:
    """Vertex relabeling maps induced by non-identity ground-set permutations.

    Each map is a ``bytes`` of 2^num_bits vertex images, about a sixth of
    the memory of a list of ints (vertex masks stay below 2^6 under the cap).
    The battery is closed under inversion, so the orientation of each table
    is immaterial to the lex-least pruning test.  The tables are built once
    per process and dimension; under the cap the cache stays below 90 KB.
    """
    if num_bits > MAX_SYMMETRY_DIMENSION:
        raise ValueError(
            f"symmetry reduction is capped at dimension {MAX_SYMMETRY_DIMENSION}"
        )
    tables = []
    identity = tuple(range(num_bits))
    for perm in permutations(range(num_bits)):
        if perm == identity:
            continue
        table = bytearray(1 << num_bits)
        for v in range(1, 1 << num_bits):
            low = v & -v
            table[v] = table[v ^ low] | 1 << perm[low.bit_length() - 1]
        tables.append(bytes(table))
    return tuple(tables)


@lru_cache(maxsize=None)
def lex_plan(num_bits: int) -> _kernels.LexPlan | None:
    """The lex-leader plan of ``ground_permutation_tables(num_bits)``, or None
    when the dimension has no non-identity permutation.

    Built once in Python per process and dimension, and read as it is by
    either kernel twin: 1,235 groups for the 719 tables at dimension 6, and
    1,487 in all under the cap.  The plan shares the tables' ``bytes``
    objects, so it adds about 30 KB at dimension 6 and 38 KB in all.
    """
    tables = ground_permutation_tables(num_bits)
    return _kernels.lex_groups(tables) if tables else None


def anchor_mask(target: Poset, num_bits: int) -> int:
    """The elements a witness search anchors its copy checks at, as a bitmask.

    When the search colors vertex v, it checks for copies of that color's
    target whose image of an anchor is v.  Every copy has its largest image
    at a maximal element, and every other image is colored by then, so
    anchoring at the maximal elements rules out every copy and a leaf needs
    no further check.  Maximal elements with equal down-sets are twins:
    swapping two is an automorphism of the target, so their checks agree,
    and the mask keeps the least of each class.  The top layer of
    K_{t_1,...,t_l} is one class.  A target too tall or too wide for the
    host lattice has no copy in it, so it gets no anchor at all.
    """
    if cannot_fit(target, num_bits):
        return 0
    firsts: dict[int, int] = {}
    for e in target.maximal_elements():
        firsts.setdefault(target.down[e], e)
    return sum(1 << e for e in firsts.values())


def witness_search_args(p: Poset, n: int, N: int, symmetry: bool) -> tuple:
    """The kernel arguments of one witness search of p against Q_n in Q_N,
    all but its budget: ``(N, p_below, p_above, p_anchors, q_below,
    q_above, q_anchors, lex_plan)``.  Either twin's ``witness_search``
    takes them, then ``max_nodes`` and ``time_limit``.
    """
    if p.size == 0:
        raise ValueError("target poset must be nonempty")
    if n < 0 or N < 0:
        raise ValueError("dimensions must be nonnegative")
    if N > MAX_COLORING_DIMENSION:
        raise ValueError(
            f"host dimension {N} exceeds the coloring cap {MAX_COLORING_DIMENSION}"
        )
    p_below, p_above = _relation_arrays(p)
    _kernels.check_word_width(1 << n, "lattice target")
    q = make_boolean_poset(n)
    plan = lex_plan(N) if symmetry else None
    return N, p_below, p_above, anchor_mask(p, N), q.down, q.up, anchor_mask(q, N), plan


def _find_witness_counted(
    p: Poset, n: int, N: int, symmetry: bool, budget: SearchBudget
) -> tuple[Coloring | None, int]:
    status, bits, nodes = _kernels.witness_search(
        *witness_search_args(p, n, N, symmetry), budget.max_nodes, budget.time_limit or 0.0
    )
    if status == _kernels.STATUS_BUDGET:
        raise SearchBudgetExceeded("nodes", nodes)
    if status == _kernels.STATUS_TIMEOUT:
        raise SearchBudgetExceeded("time", nodes)
    if status != _kernels.STATUS_FOUND:
        return None, nodes
    witness = Coloring(N, bits)
    if not verify_witness(witness, p, n).ok:
        raise AssertionError("search returned a coloring that fails verification")
    return witness, nodes


def find_witness(
    p: Poset,
    n: int,
    N: int,
    symmetry: bool = False,
    budget: SearchBudget | None = None,
) -> Coloring | None:
    """Least witness coloring of the dimension-N lattice, or None if none exists.

    "Least" orders colorings as color strings in vertex order with red below
    blue.  With ``symmetry`` the search skips colorings that are not minimal
    within their ground-set-permutation orbit; the verdict and the returned
    witness are unchanged because the least witness is orbit-minimal.
    The witness is re-verified before it is returned.
    Raises :class:`SearchBudgetExceeded` when the budget runs out first.
    """
    witness, _ = _find_witness_counted(p, n, N, symmetry, budget or SearchBudget())
    return witness


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of an upward scan for R(P, Q_n).

    status "exact": ``value`` is the Ramsey number and a verified witness is
    stored for every N from n up to value-1.  status "lower_bound": every
    scanned N had a witness, so R >= lower_bound.  status "inconclusive":
    the budget ran out at ``inconclusive_at`` before a verdict.
    """

    status: Literal["exact", "lower_bound", "inconclusive"]
    lower_bound: int
    value: int | None = None
    witnesses: dict[int, Coloring] = field(default_factory=dict)
    inconclusive_at: int | None = None
    nodes_used: int = 0


def ramsey_exact(
    p: Poset,
    n: int,
    n_max: int,
    symmetry: bool = False,
    budget: SearchBudget | None = None,
) -> RamseyResult:
    """Scan N = n, n+1, ..., n_max for the least witness-free dimension.

    Witnesses found along the way are re-verified before being stored, so an
    "exact" result carries a complete certificate trail.  With ``symmetry``
    the scan stops at ``MAX_SYMMETRY_DIMENSION`` (or at n, when larger); a
    "lower_bound" result's ``lower_bound - 1`` is the last dimension scanned.
    """
    if n_max < n:
        raise ValueError("scan ceiling must be at least n")
    if symmetry:
        # never below n: the search at n still refuses an n past the caps
        n_max = min(n_max, max(n, MAX_SYMMETRY_DIMENSION))
    budget = budget or SearchBudget()
    witnesses: dict[int, Coloring] = {}
    total_nodes = 0
    for N in range(n, n_max + 1):
        try:
            witness, nodes = _find_witness_counted(p, n, N, symmetry, budget)
        except SearchBudgetExceeded as exc:
            return RamseyResult(
                status="inconclusive",
                lower_bound=N,
                witnesses=witnesses,
                inconclusive_at=N,
                nodes_used=total_nodes + exc.nodes,
            )
        total_nodes += nodes
        if witness is None:
            return RamseyResult(
                status="exact",
                lower_bound=N,
                value=N,
                witnesses=witnesses,
                nodes_used=total_nodes,
            )
        witnesses[N] = witness
    return RamseyResult(
        status="lower_bound",
        lower_bound=n_max + 1,
        witnesses=witnesses,
        nodes_used=total_nodes,
    )
