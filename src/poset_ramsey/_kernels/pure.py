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

The two colors go through one path: red avoids Q_n and blue avoids P, and
each is a plain target with an anchor mask.  When ``witness_search`` colors
vertex v, it checks for copies of that color's target whose image of an
anchor is v; the search layer picks the anchors (``search.anchor_mask``)
so that these checks rule out every copy, and a leaf needs no further
check.  When a target has one anchor and it lies above every other
element, every other image lies below v and the answer depends only on
the color class inside v's down-set.  That set alone is the key of a
per-search memo for the check: v is above every vertex in it, so vertices
whose down-sets hold the same colored vertices share one entry.  A memo
holds at most ``_MEMO_ENTRIES`` answers and is cleared when full.  Any
other target is checked afresh each time: with twin maximal elements, a
copy may put a twin of the anchor outside v's down-set, so the color
class below v does not decide it.

Symmetry breaking in ``witness_search`` is an incremental lex-leader test
(Crawford, Ginsberg, Luks & Roy, KR 1996) over a prefix tree of the
permutation tables: the plan that ``lex_groups`` builds once in Python,
which both twins read as it is.  A group is a run of the sorted tables that
agree on every position before its split, the first position where its
members differ, so they make the same comparisons up to there and advance
as one.  Each group keeps a pointer: the positions before it compare equal
under the current partial coloring.  A group waits in the bucket of the
vertex that decides its next position; coloring that vertex advances it,
retires it once the permuted coloring is strictly greater, or prunes the
node when it is strictly less.  A group whose pointer reaches its split
hands over to its subgroups, which advance from that position in the same
pass.  The groups that moved on when a vertex was colored are its trail,
each stored with its old pointer: on backtrack, or when the node is pruned,
each is popped from its new bucket, last first, and its old pointer
restored.  A group that retires or hands over keeps its pointer and is not
trailed: it stays in the bucket it was taken from, and its subgroups stay
at their starting positions unless they moved on themselves.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from typing import NamedTuple, Sequence

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

#: Backtracks between clock reads in an anchored check of a search with a
#: time limit.  The compiled twin reads it as often.
_CLOCK_BACKTRACKS = 1024


class _DeadlinePassed(Exception):
    """An anchored check ran past the search's deadline."""


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


def _anchored_order(m: int, anchor_idx: int) -> list[int]:
    return [anchor_idx] + [i for i in range(m) if i != anchor_idx]


def _first_embedding(
    plan, windows, rows, images: list[int], start: int, deadline: float | None = None
) -> bool:
    """Fill ``images[start:]`` with the first consistent bit indices.

    ``images[:start]`` are fixed already.  ``windows`` splits the bit
    indices into runs, lowest first, each a (first index, candidate mask)
    pair; ``rows[w][i]`` is the row of image i within window w, its bits
    counted from the window's first index.  The candidates at a position are
    the window mask ANDed with one row slot per earlier position; every slot
    excludes the image it belongs to, so images stay distinct.  With a
    ``deadline``, the clock is read every ``_CLOCK_BACKTRACKS`` backtracks,
    and :class:`_DeadlinePassed` is raised once it has passed.
    """
    depth = len(plan)
    if start >= depth:
        return True
    nwin = len(windows)
    rest = [0] * depth
    where = [0] * depth
    pos = start
    w = 0
    backtracks = 0
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
            if deadline is not None:
                backtracks += 1
                if not backtracks % _CLOCK_BACKTRACKS and time.monotonic() > deadline:
                    raise _DeadlinePassed
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


class LexPlan(NamedTuple):
    """Permutation tables as a prefix tree of groups (see the module docstring).

    Group g holds tables that agree on every position before ``split[g]``;
    ``table[g]`` is the least of them.  Group 0 holds every table and starts
    at position 0.  The groups ``kid[g]`` to ``kid[g] + nkids[g] - 1`` part
    g's tables by their entries from ``split[g]`` on and start there; a
    leaf's split is the table length, so its tables are equal, and it has no
    kids.  The first four columns are ``array('i')`` and the tables are the
    ``bytes`` objects passed in, so the compiled twin reads all of it in
    place.
    """

    start: array
    split: array
    kid: array
    nkids: array
    table: tuple[bytes, ...]


def lex_groups(perm_tables: Sequence[bytes]) -> LexPlan:
    """Group nonempty equal-length ``bytes`` tables by their shared prefixes."""
    volume = len(perm_tables[0])
    tables = sorted(perm_tables)
    # common[i]: the first position where tables i and i + 1 differ, read
    # off the highest bit of their XOR as big-endian integers
    ints = [int.from_bytes(table, "big") for table in tables]
    common = [(8 * volume - (a ^ b).bit_length()) // 8 for a, b in zip(ints, ints[1:])]
    lo, hi = [0], [len(tables)]
    start, split, kid, nkids = array("i", [0]), array("i"), array("i"), array("i")
    g = 0
    while g < len(lo):
        a, b = lo[g], hi[g]
        s = min(common[a:b - 1], default=volume)
        split.append(s)
        kid.append(len(lo))
        if s < volume:
            bounds = [a, *(i + 1 for i in range(a, b - 1) if common[i] == s), b]
            lo += bounds[:-1]
            hi += bounds[1:]
            start.extend([s] * (len(bounds) - 1))
        nkids.append(len(lo) - kid[g])
        g += 1
    return LexPlan(start, split, kid, nkids, tuple(tables[a] for a in lo))


def witness_search(
    num_bits: int,
    p_below: Sequence[int],
    p_above: Sequence[int],
    p_anchors: int,
    q_below: Sequence[int],
    q_above: Sequence[int],
    q_anchors: int,
    lex_plan: LexPlan | None,
    max_nodes: int,
    time_limit: float,
) -> tuple[int, int, int]:
    """Exhaustive coloring search: (status, witness bits, nodes visited).

    Vertices are colored in ascending mask order, red before blue, so the
    first witness reached is the least color string.  Blue must avoid the
    target P and red the target Q, both nonempty.  On coloring a vertex,
    only copies whose image of an anchor, a set bit of ``p_anchors`` or
    ``q_anchors``, is that vertex are checked.  A ``lex_plan``
    (the groups of vertex relabelings from ground-set permutations, each a
    permutation of the vertices, as ``lex_groups`` builds them) restricts
    the search to colorings that are least within their orbit's explored
    prefix; None searches every coloring.  The search is a loop over
    an explicit stack of per-vertex states, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    volume = 1 << num_bits
    deadline = time.monotonic() + time_limit if time_limit > 0 else None
    images = [0] * max(len(p_below), len(q_below))

    # checks[c]: the plans of the color-c copies anchored at v, one per
    # anchor of the color-c target; memos[c]: their answers keyed by the
    # color class below v when its one anchor lies above every other
    # element (see the module docstring), else None
    checks = []
    memos = []
    for below, above, anchors in ((q_below, q_above, q_anchors), (p_below, p_above, p_anchors)):
        m = len(below)
        anchored = [e for e in range(m) if anchors >> e & 1]
        checks.append([_plan(below, above, _anchored_order(m, e)) for e in anchored])
        top = len(anchored) == 1 and below[anchored[0]] | 1 << anchored[0] == (1 << m) - 1
        memos.append({} if top else None)

    # rows[g] = [apart, above, below, empty] over vertex masks, in a single
    # window; "apart" is a complement, so vertices not reached yet read as
    # apart until they are.
    rows: list[list[int]] = []
    window_rows = [rows]

    def has_copy(plan, universe: int, anchor: int) -> bool:
        if universe.bit_count() < len(plan):
            return False
        images[0] = anchor
        return _first_embedding(plan, [(0, universe)], window_rows, images, 1, deadline)

    symmetric = lex_plan is not None
    if symmetric:
        g_start, g_split, g_kid, g_nkids, g_table = lex_plan
        ptr = list(g_start)
        # buckets[w]: the groups whose next undecided position is decided
        # by vertex w; moved[w]: (group, old pointer) for each group that
        # moved on when w was colored, flattened, in order
        buckets = [[] for _ in range(volume)]
        moved = [[] for _ in range(volume)]
        # group 0 holds every table and waits on the vertex that decides
        # position 0 for its first table, the least there; if the tables
        # differ at position 0, its subgroups take over at that vertex
        buckets[g_table[0][0]].append(0)

    # colors and state grow as the search first descends to a vertex, so a
    # search that closes early never touches most of the 2^N vertices
    colors = [-1]
    masks = [0, 0]  # red, blue vertex bitsets
    state = [0]  # next color to try at each vertex on the stack
    nodes = 0
    status = STATUS_NONE
    v = 0
    while v >= 0:
        c = colors[v]
        if c >= 0:  # back at a colored vertex: uncolor it, undo its moves
            masks[c] ^= 1 << v
            colors[v] = -1
            if symmetric:
                trail = moved[v]
                while trail:
                    p = trail.pop()
                    g = trail.pop()
                    q = ptr[g]
                    u = g_table[g][q]
                    buckets[q if q > u else u].pop()
                    ptr[g] = p
        c = state[v]
        if c == 2:
            v -= 1
            continue
        state[v] = c + 1
        nodes += 1
        if nodes > max_nodes:
            status = STATUS_BUDGET
            break
        if deadline is not None and time.monotonic() > deadline:
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
        try:
            if memo is None:
                ok = not any(has_copy(plan, masks[c], v) for plan in checks[c])
            else:
                key = masks[c] & rows[v][_BELOW]
                ok = memo.get(key)
                if ok is None:
                    if len(memo) >= _MEMO_ENTRIES:
                        memo.clear()
                    ok = memo[key] = not has_copy(checks[c][0], key | 1 << v, v)
        except _DeadlinePassed:
            status = STATUS_TIMEOUT
            break
        if not ok:
            continue  # the loop's head uncolors v
        if symmetric:
            # advance the groups waiting on v; a permuted coloring that is
            # less prunes v, and the loop's head undoes the moves so far.
            # The bucket doubles as the pass's work list: the subgroups of a
            # group that compares equal up to its split are appended to it,
            # and cut off after the pass.
            bucket = buckets[v]
            trail = moved[v]
            cut = 0
            less = False
            for g in bucket:
                table = g_table[g]
                end = g_split[g]
                stop = end if end <= v else v + 1
                p = old = ptr[g]
                while p < stop:
                    u = table[p]
                    if u > v:
                        break
                    if colors[u] != colors[p]:
                        less = colors[u] < colors[p]
                        break
                    p += 1
                if p < stop:
                    if less:
                        break
                    if u <= v:
                        continue  # the permuted coloring is greater for good: g retires
                    w = u
                elif p < end:
                    u = table[p]
                    w = p if p > u else u
                else:  # equal up to the split: the subgroups take over
                    if g_nkids[g]:
                        if not cut:
                            cut = len(bucket)
                        k = g_kid[g]
                        bucket += range(k, k + g_nkids[g])
                    continue
                ptr[g] = p
                buckets[w].append(g)
                trail.append(g)
                trail.append(old)
            if cut:
                del bucket[cut:]
            if less:
                continue
        if v < volume - 1:
            v += 1
            if v < len(state):
                state[v] = 0
            else:
                state.append(0)
                colors.append(-1)
        else:
            status = STATUS_FOUND
            break
    return status, masks[1] if status == STATUS_FOUND else 0, nodes
