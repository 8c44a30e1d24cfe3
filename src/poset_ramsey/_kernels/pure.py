"""Pure-Python search kernels; behavioral twin of the C extension ``_ckernels``.

Both backends implement the same two primitives with identical semantics,
visit order, and node accounting, so either can be selected at import time
and the test suite can compare them output-for-output.

Relation encoding: a target poset on m <= 64 elements arrives as two mask
arrays, below[i] (elements strictly under i) and above[i] (strictly over i).
Host vertices are lattice masks ordered by set inclusion; they must be
passed strictly ascending.

Embedding search works on bitsets of candidate images.  Each host h has a
row of three bitsets: the hosts strictly above h, strictly below h, and
apart from (incomparable with) h.  The candidates of a target element are
the AND, over the elements assigned before it, of the matching row of
their images; candidates are taken lowest bit first, which is ascending
host order.  ``find_induced_copy`` indexes bits by host position, in
windows of 16, 16, 32, 64, ... positions, and builds a row's part in a
window on first use, in one pass over that window's hosts.
``witness_search`` indexes bits by vertex mask, so a color class is one
integer and a vertex's row is built once per search, when the search first
reaches that vertex.

When ``witness_search`` colors vertex v, it checks for copies topped at v.
If the anchored element lies above every other target element (always the
top of Q_n, and the maximal element of P when it is P's unique maximum),
every other image lies below v, so the answer depends only on the color
class inside v's down-set.  That set alone is the key of a per-search memo
for each such check: v is above every vertex in it, so vertices whose
down-sets hold the same colored vertices share one entry.  A memo holds at
most ``_MEMO_ENTRIES`` answers and is cleared when full.  A P with several
maximal elements is checked afresh each time.

Symmetry breaking in ``witness_search`` is an incremental lex-leader test:
each permutation table keeps a pointer, and the positions before it compare
equal under the current partial coloring.  A table waits in the bucket of
the vertex that decides its next position; coloring that vertex advances
it, retires it once the permuted coloring is strictly greater, or prunes
the node when it is strictly less.  The tables that moved on when a vertex
was colored are its trail: on backtrack each is popped from its new bucket,
and its old pointer is recomputed rather than stored, since it is the
position the table maps onto that vertex when that position lies below the
vertex, else the vertex itself.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Sequence

BACKEND_NAME = "pure-python"

STATUS_NONE = 0
STATUS_FOUND = 1
STATUS_BUDGET = 2
STATUS_TIMEOUT = 3

# A row is (apart, above, below, empty): where an element's image may lie
# relative to the image of an element f assigned before it.  The slot is
# (f below e) | (f above e) << 1, so a malformed pair related both ways
# reads the empty slot.
_APART = 0
_ABOVE = 1
_BELOW = 2

#: Host positions of the first window of ``find_induced_copy``.  Windows
#: double after it, so a search that succeeds among the first hosts
#: classifies only those, and a long one classifies each host once per image.
_FIRST_WINDOW = 16

#: Entries in each anchored-check memo of ``witness_search``; a full memo is
#: cleared, which bounds a deep search's memory.
_MEMO_ENTRIES = 1 << 15


def _plan(below: Sequence[int], above: Sequence[int], order: Sequence[int]) -> list[tuple]:
    """For each position of ``order``: (earlier position, row slot) pairs."""
    plan = []
    for pos, e in enumerate(order):
        be = below[e]
        ae = above[e]
        plan.append(tuple(
            (q, ((be >> f) & 1) | ((ae >> f) & 1) << 1) for q, f in enumerate(order[:pos])
        ))
    return plan


def _is_top(below: Sequence[int], e: int) -> bool:
    """Does element e lie above every other element?"""
    return below[e] | 1 << e == (1 << len(below)) - 1


def _anchored_order(m: int, anchor_idx: int) -> list[int]:
    return [anchor_idx] + [i for i in range(m) if i != anchor_idx] if m else []


def _first_embedding(plan, windows, rows, images: list[int], start: int) -> bool:
    """Fill ``images[start:]`` with the first consistent bit indices.

    ``images[:start]`` are fixed already.  ``windows`` splits the bit
    indices into runs, lowest first, each a (first index, candidate mask)
    pair; ``rows[w][i]`` is the row of image i within window w, its bits
    counted from the window's first index.  The candidates at a position are
    the window mask ANDed with one row slot per earlier position; every slot
    excludes the image it belongs to, so images stay distinct.
    """
    depth = len(plan)
    if start >= depth:
        return True
    nwin = len(windows)
    rest = [0] * depth
    where = [0] * depth
    pos = start
    w = 0
    while True:
        if w < nwin:
            base, c = windows[w]
            window_rows = rows[w]
            for q, slot in plan[pos]:
                c &= window_rows[images[q]][slot]
                if not c:
                    break
        else:  # every window of this position is spent: back up one
            pos -= 1
            if pos < start:
                return False
            c = rest[pos]
            w = where[pos]
            base = windows[w][0]
        if not c:
            w += 1
            continue
        low = c & -c
        rest[pos] = c ^ low
        where[pos] = w
        images[pos] = base + low.bit_length() - 1
        pos += 1
        if pos == depth:
            return True
        w = 0


class _HostRows(dict):
    """Rows of host positions within one window, each built on first use."""

    def __init__(self, hosts: Sequence[int], window: Sequence[int]):
        super().__init__()
        self.hosts = hosts
        self.window = window

    def __missing__(self, j: int) -> tuple[int, int, int, int]:
        g = self.hosts[j]
        apart = up = down = 0
        bit = 1
        for h in self.window:
            if h != g:
                if h & g == g:
                    up |= bit
                elif h & g == h:
                    down |= bit
                else:
                    apart |= bit
            bit <<= 1
        row = self[j] = (apart, up, down, 0)
        return row


class _HostWindows(dict):
    """Windows of _FIRST_WINDOW, _FIRST_WINDOW, then doubling host positions.

    ``bounds`` holds each window's (first position, candidate mask); the
    window's rows are set up when the search first reaches it.
    """

    def __init__(self, hosts: Sequence[int]):
        super().__init__()
        self.hosts = hosts
        self.bounds = []
        lo = 0
        while lo < len(hosts):
            hi = min(len(hosts), lo + max(lo, _FIRST_WINDOW))
            self.bounds.append((lo, (1 << (hi - lo)) - 1))
            lo = hi

    def __missing__(self, w: int) -> _HostRows:
        lo, mask = self.bounds[w]
        rows = self[w] = _HostRows(self.hosts, self.hosts[lo:lo + mask.bit_length()])
        return rows


def find_induced_copy(
    below: Sequence[int],
    above: Sequence[int],
    hosts: Sequence[int],
    anchor_idx: int = -1,
    anchor_mask: int = 0,
) -> list[int] | None:
    """First induced embedding of the target into the host vertices, or None.

    Elements are assigned in index order (the anchored element, if any, is
    fixed first) and candidates are tried in ascending host order, so the
    returned image list is deterministic.
    """
    m = len(below)
    if m == 0:
        return []
    if len(hosts) < m:
        return None
    images = [0] * m
    start = 0
    if anchor_idx >= 0:
        pos = bisect_left(hosts, anchor_mask)
        if pos == len(hosts) or hosts[pos] != anchor_mask:
            return None
        images[0] = pos
        start = 1
        order = _anchored_order(m, anchor_idx)
    else:
        order = list(range(m))
    rows = _HostWindows(hosts)
    if not _first_embedding(_plan(below, above, order), rows.bounds, rows, images, start):
        return None
    result = [0] * m
    for pos, e in enumerate(order):
        result[e] = hosts[images[pos]]
    return result


def witness_search(
    num_bits: int,
    p_below: Sequence[int],
    p_above: Sequence[int],
    p_max_elems: Sequence[int],
    q_below: Sequence[int],
    q_above: Sequence[int],
    q_top: int,
    perm_tables: Sequence[Sequence[int]],
    max_nodes: int,
    time_limit: float,
) -> tuple[int, int, int]:
    """Exhaustive coloring search: (status, witness bits, nodes visited).

    Vertices are colored in ascending mask order, red before blue, so the
    first witness reached is the least color string.  On coloring a vertex,
    only copies whose top image is that vertex are checked (every newly
    completed copy has its largest mask there); a full verification still
    runs at each leaf.  Non-empty ``perm_tables`` (vertex relabelings from
    ground-set permutations, each a permutation of the vertices) restrict
    the search to colorings that are least within their orbit's explored
    prefix.  The search is a loop over
    an explicit stack of per-vertex states, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    volume = 1 << num_bits
    deadline = time.monotonic() + time_limit if time_limit > 0 else None
    pm = len(p_below)
    p_full = _plan(p_below, p_above, range(pm))
    p_tops = [_plan(p_below, p_above, _anchored_order(pm, e)) for e in p_max_elems]
    q_full = _plan(q_below, q_above, range(len(q_below)))
    q_top_plan = _plan(q_below, q_above, _anchored_order(len(q_below), q_top))
    images = [0] * max(pm, len(q_below), 1)

    # rows[g] = [apart, above, below, empty] over vertex masks, in a single
    # window; "apart" is a complement, so vertices not reached yet read as
    # apart until they are.
    rows: list[list[int]] = []
    window_rows = [rows]

    def has_copy(plan, universe: int, anchor: int) -> bool:
        if universe.bit_count() < len(plan):
            return False
        if anchor < 0:
            return _first_embedding(plan, [(0, universe)], window_rows, images, 0)
        images[0] = anchor
        return _first_embedding(plan, [(0, universe)], window_rows, images, 1)

    nperm = len(perm_tables)
    ptr = [0] * nperm
    # buckets[w]: the tables whose next undecided position is decided by
    # vertex w; moved[w]: those that moved on when w was colored, in order
    buckets = [[] for _ in range(volume)] if nperm else []
    moved = [[] for _ in range(volume)] if nperm else []
    for t, table in enumerate(perm_tables):
        buckets[table[0]].append(t)

    def leads(v: int) -> bool:
        """Advance the tables waiting on v; False if one permuted coloring is less."""
        trail = moved[v]
        for t in buckets[v]:
            table = perm_tables[t]
            p = ptr[t]
            while p <= v:
                u = table[p]
                if u > v:
                    break
                if colors[u] != colors[p]:
                    if colors[u] < colors[p]:
                        return False
                    break
                p += 1
            if p <= v:
                if u <= v:
                    continue  # the permuted coloring is greater for good: t retires
                w = u
            elif p < volume:
                u = table[p]
                w = p if p > u else u
            else:
                continue  # equal everywhere: nothing left to decide
            ptr[t] = p
            buckets[w].append(t)
            trail.append(t)
        return True

    def unlead(v: int) -> None:
        """Undo leads(v), last move first."""
        trail = moved[v]
        while trail:
            t = trail.pop()
            table = perm_tables[t]
            p = ptr[t]
            u = table[p]
            buckets[p if p > u else u].pop()
            # the old pointer waited on v: the position mapped onto v if that
            # lies below v (comparing it needed v), else v itself
            p = table.index(v)
            ptr[t] = p if p < v else v

    # checks[c]: the plans of the color-c copies topped at v; memos[c]: their
    # answers keyed by the color class below v when checks[c] is one plan
    # anchored at a top element (see the module docstring), else None
    checks = [[q_top_plan], p_tops]
    memos = [
        {} if _is_top(q_below, q_top) else None,
        {} if len(p_tops) == 1 and _is_top(p_below, p_max_elems[0]) else None,
    ]

    colors = [-1] * volume
    masks = [0, 0]  # red, blue vertex bitsets
    state = [0] * volume  # next color to try at each vertex on the stack
    nodes = 0
    status = STATUS_NONE
    v = 0
    while v >= 0:
        c = colors[v]
        if c >= 0:  # back at a vertex that passed its checks
            masks[c] ^= 1 << v
            colors[v] = -1
            if nperm:
                unlead(v)
        c = state[v]
        if c == 2:
            v -= 1
            continue
        state[v] = c + 1
        nodes += 1
        if nodes > max_nodes:
            status = STATUS_BUDGET
            break
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            status = STATUS_TIMEOUT
            break
        if v == len(rows):
            bit = 1 << v
            down = 0
            g = v
            while g:
                g = (g - 1) & v
                row = rows[g]
                row[_ABOVE] |= bit
                row[_APART] ^= bit
                down |= 1 << g
            rows.append([~(down | bit), 0, down, 0])
        colors[v] = c
        masks[c] |= 1 << v
        memo = memos[c]
        if memo is None:
            ok = not any(has_copy(plan, masks[c], v) for plan in checks[c])
        else:
            key = masks[c] & rows[v][_BELOW]
            ok = memo.get(key)
            if ok is None:
                if len(memo) >= _MEMO_ENTRIES:
                    memo.clear()
                ok = memo[key] = not has_copy(checks[c][0], key | 1 << v, v)
        if ok and nperm and not leads(v):
            unlead(v)
            ok = False
        if not ok:
            masks[c] ^= 1 << v
            colors[v] = -1
        elif v < volume - 1:
            v += 1
            state[v] = 0
        elif not has_copy(p_full, masks[1], -1) and not has_copy(q_full, masks[0], -1):
            status = STATUS_FOUND
            break
    return status, masks[1] if status == STATUS_FOUND else 0, nodes
