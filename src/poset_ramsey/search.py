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
from typing import Literal

from poset_ramsey import _kernels
from poset_ramsey.errors import SearchBudgetExceeded
from poset_ramsey.lattice import MAX_COLORING_DIMENSION, Coloring
from poset_ramsey.posets import Embedding, Poset, make_boolean_poset

#: Default cap on backtracking nodes per witness search.
DEFAULT_NODE_BUDGET = 1 << 26

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
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive when given")


def _relation_arrays(p: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    _kernels.check_word_width(p.size, "target")
    return p.down, p.up


def _colored_hosts(coloring: Coloring, color: Color) -> list[int]:
    if color == "blue":
        return coloring.blue_vertices()
    if color == "red":
        return coloring.red_vertices()
    raise ValueError(f"color must be 'blue' or 'red', not {color!r}")


def find_colored_copy(
    target: Poset,
    coloring: Coloring,
    color: Color,
    anchor: tuple[int, int] | None = None,
) -> Embedding | None:
    """First induced copy of ``target`` among the vertices of one color.

    ``anchor`` fixes (target element index, vertex mask); the anchor vertex
    must already have the requested color.
    """
    below, above = _relation_arrays(target)
    anchor_idx, anchor_mask = -1, 0
    if anchor is not None:
        anchor_idx, anchor_mask = anchor
        if not 0 <= anchor_idx < target.size:
            raise ValueError(f"anchor element {anchor_idx} outside the target")
        is_blue = coloring.is_blue(anchor_mask)
        if (color == "blue") != is_blue:
            raise ValueError("anchor vertex does not have the requested color")
    hosts = _colored_hosts(coloring, color)
    images = _kernels.find_induced_copy(below, above, hosts, anchor_idx, anchor_mask)
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


def _find_witness_counted(
    p: Poset,
    n: int,
    N: int,
    symmetry: bool,
    budget: SearchBudget,
) -> tuple[Coloring | None, int]:
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
    tables = ground_permutation_tables(N) if symmetry else ()
    status, bits, nodes = _kernels.witness_search(
        N,
        p_below,
        p_above,
        p.maximal_elements(),
        q.down,
        q.up,
        (1 << n) - 1,
        tables,
        budget.max_nodes,
        budget.time_limit or 0.0,
    )
    if status == _kernels.STATUS_BUDGET:
        raise SearchBudgetExceeded("nodes", nodes)
    if status == _kernels.STATUS_TIMEOUT:
        raise SearchBudgetExceeded("time", nodes)
    if status == _kernels.STATUS_FOUND:
        return Coloring(N, bits), nodes
    return None, nodes


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
    "exact" result carries a complete certificate trail.
    """
    if n_max < n:
        raise ValueError("scan ceiling must be at least n")
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
        check = verify_witness(witness, p, n)
        if not check.ok:
            raise AssertionError("search returned a coloring that fails verification")
        witnesses[N] = witness
    return RamseyResult(
        status="lower_bound",
        lower_bound=n_max + 1,
        witnesses=witnesses,
        nodes_used=total_nodes,
    )
