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

The two twins agree output for output, node counts included, but not in
method.  The pure twin takes the candidates of a target element as one
bitset: the AND, over the elements assigned before it, of the above, below
or apart row of their images; it tries them lowest bit first, which is the
compiled twin's ascending host order.  Its ``witness_search`` keeps one
pointer per permutation table for the lex-leader test and undoes pointer
moves from a trail on backtrack, instead of rescanning every table from
vertex 0 at each node as the compiled twin does; both prune the same nodes.
The pure ``witness_search`` also memoizes each check for a copy topped at
the vertex just colored, when the anchored element lies above every other
target element, keyed by the color class inside that vertex's down-set;
the compiled twin searches afresh every time, with the same answers.
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
find_induced_copy = _impl.find_induced_copy
witness_search = _impl.witness_search


def check_word_width(size: int, what: str) -> None:
    """Reject a poset too large for the kernels' 64-bit relation words."""
    if size > MAX_TARGET_SIZE:
        raise ValueError(f"{what} posets are capped at {MAX_TARGET_SIZE} elements")

