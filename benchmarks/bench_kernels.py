"""Compare the pure-Python and compiled search kernels on identical inputs.

Run from the repository root after an editable install:

    python benchmarks/bench_kernels.py

Each task runs the witness search through both backends (when the compiled
one is available) and reports wall time, node counts, and agreement.
"""

from __future__ import annotations

import time

from poset_ramsey._kernels import available_backends
from poset_ramsey.posets import make_antichain, make_boolean_poset, make_chain
from poset_ramsey.search import ground_permutation_tables


def _tasks():
    yield "chain3 vs dim2, N=4", make_chain(3), 2, 4, False
    yield "antichain2 vs dim2, N=4", make_antichain(2), 2, 4, False
    yield "antichain3 vs dim1, N=4", make_antichain(3), 1, 4, False
    yield "dim1 lattice vs dim2, N=3, symmetry", make_boolean_poset(1), 2, 3, True


def _run(module, p, n, N, symmetry):
    q = make_boolean_poset(n)
    tables = ground_permutation_tables(N) if symmetry else []
    start = time.perf_counter()
    status, bits, nodes = module.witness_search(
        N,
        p.down,
        p.up,
        p.maximal_elements(),
        q.down,
        q.up,
        (1 << n) - 1,
        tables,
        1 << 34,
        0.0,
    )
    elapsed = time.perf_counter() - start
    return status, bits, nodes, elapsed


def main() -> None:
    backends = available_backends()
    print("backends:", ", ".join(backends))
    for label, p, n, N, symmetry in _tasks():
        print(f"\n{label}")
        results = {}
        for name, module in backends.items():
            status, bits, nodes, elapsed = _run(module, p, n, N, symmetry)
            results[name] = (status, bits, nodes)
            print(f"  {name:14s} {elapsed * 1000:10.1f} ms   {nodes:12d} nodes")
        if len(set(results.values())) != 1:
            raise SystemExit(f"backends disagree on {label}: {results}")
        print("  agreement: ok")
    if len(backends) == 1:
        print("\ncompiled backend not built; only the fallback was timed")


if __name__ == "__main__":
    main()
