"""Search kernel backend selection.

The compiled twin is the C extension ``_ckernels``, which ``setup.py``
builds from the hand-written ``_ckernels.c`` when a C compiler is present.
It is preferred when importable; otherwise the pure-Python twin takes
over.  ``POSET_RAMSEY_BACKEND=pure`` forces the fallback (useful for
benchmarking and twin testing); ``=compiled`` makes a missing extension an
import error instead of a silent downgrade.

``find_induced_copy`` is the package's one induced-embedding search: blue
and red copies in a colored lattice, copies between explicit posets, poset
isomorphism and the spindle certificate check all go through it.

``witness_search`` treats its two colors alike: it takes the blue target P
and the red target Q as plain relation masks, each with an anchor mask,
and checks each newly colored vertex for copies that map an anchor onto
it.  Both twins take the masks from the search layer, which picks them
once in Python (``search.anchor_mask``) so that these checks rule out
every copy; a full coloring needs no further check, and ``search`` still
re-verifies every witness.

The two twins agree output for output, node counts included, but not in
method.  The pure twin takes the candidates of a target element as one
bitset: the AND, over the elements assigned before it, of the above, below
or apart row of their images; it tries them lowest bit first, which is the
compiled twin's ascending host order.  The pure ``witness_search`` also
memoizes the check for a copy anchored at the vertex just colored, when
the target's one anchor lies above every other element, keyed by the color
class inside that vertex's down-set; the compiled twin searches afresh
every time, with the same answers.

The lex-leader test is one design in both twins, and its plan is built
once in Python and read by both.  ``lex_groups`` sorts the permutation
tables into a prefix tree of groups, a ``LexPlan`` of flat ``array('i')``
columns and each group's least table as ``bytes``: the members of a group
agree on every position before its split, so they advance as one pointer
up to there, and its subgroups take over from the split.  The search layer
builds one plan per dimension and passes it, or None, as
``witness_search``'s ``lex_plan`` argument; neither twin groups, copies or
caches the tables.  A moved group is undone on backtrack from a trail that
holds its old pointer.  Both twins prune the same nodes.
"""

from __future__ import annotations

import os

from poset_ramsey._kernels import pure as _pure

STATUS_NONE = _pure.STATUS_NONE
STATUS_FOUND = _pure.STATUS_FOUND
STATUS_BUDGET = _pure.STATUS_BUDGET
STATUS_TIMEOUT = _pure.STATUS_TIMEOUT

_forced = os.environ.get("POSET_RAMSEY_BACKEND")
if _forced not in (None, "", "pure", "compiled"):
    raise ImportError(f"POSET_RAMSEY_BACKEND must be 'pure' or 'compiled', not {_forced!r}")

if _forced == "pure":
    _impl = _pure
else:
    try:
        from poset_ramsey._kernels import _ckernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _forced == "compiled":
            raise
        _impl = _pure

#: Relation masks and host vertices are 64-bit words in the compiled twin.
MAX_TARGET_SIZE = 64

BACKEND_NAME: str = _impl.BACKEND_NAME
LexPlan = _pure.LexPlan
lex_groups = _pure.lex_groups
find_induced_copy = _impl.find_induced_copy
witness_search = _impl.witness_search


def check_word_width(size: int, what: str) -> None:
    """Reject a poset too large for the kernels' 64-bit relation words."""
    if size > MAX_TARGET_SIZE:
        raise ValueError(f"{what} posets are capped at {MAX_TARGET_SIZE} elements")

