"""Acceptance gate: nine checks, one printed verdict line each.

Run with ``pytest -m acceptance -s`` to watch the lines appear; each test
also enforces its stated time budget where one applies.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from poset_ramsey.bounds import (
    SpindleBoundParams,
    antichain_alpha,
    claim_holds,
    multipartite_bound_report,
    multipartite_upper_bound,
    spindle_bound_report,
    spindle_upper_bound,
)
from poset_ramsey.errors import InvariantViolation
from poset_ramsey.extract import (
    BlueChainCert,
    ChainFamily,
    SpindleCert,
    assemble_spindle,
    chain_or_red,
    check_spindle,
    classify_clear,
    collect_chain_family,
    distinctness_contradiction,
    pigeonhole_end_classes,
    verify_certificate,
)
from poset_ramsey.lattice import Coloring, GroundSplit, YOrdering, all_orderings, random_coloring
from poset_ramsey.posets import (
    ChainCover,
    SpindleSpec,
    are_isomorphic,
    glue,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
)
from poset_ramsey.search import find_colored_copy, ramsey_exact

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {desc}")
        raise
    print(f"criterion {num}: PASS  {desc}")


def test_criterion_1_lattice_against_lattice():
    with criterion(1, "one-cube values n+1 at n=1,2"):
        q1 = make_boolean_poset(1)
        start = time.monotonic()
        r1 = ramsey_exact(q1, 1, 4)
        assert time.monotonic() - start < 1.0
        assert r1.status == "exact" and r1.value == 2

        start = time.monotonic()
        r2 = ramsey_exact(q1, 2, 4, symmetry=True)
        assert time.monotonic() - start < 300.0
        assert r2.status == "exact" and r2.value == 3


def test_criterion_2_chain_formula():
    with criterion(2, "chains hit n+L-1 on the sample grid"):
        start = time.monotonic()
        for ell, n in ((1, 1), (2, 1), (3, 1), (2, 2)):
            r = ramsey_exact(make_chain(ell), n, n + ell + 2)
            assert r.status == "exact"
            assert r.value == n + ell - 1, (ell, n)
        assert time.monotonic() - start < 300.0


def test_criterion_3_antichain_sandwich():
    with criterion(3, "antichain values within the alpha window"):
        for t, n in ((2, 1), (2, 2), (3, 1)):
            r = ramsey_exact(make_antichain(t), n, n + antichain_alpha(t))
            assert r.status == "exact"
            assert n <= r.value <= n + antichain_alpha(t), (t, n)


def test_criterion_4_chain_or_red_totality():
    with criterion(4, "chain-or-red certificate on every input tried"):
        start = time.monotonic()
        g = GroundSplit(2, 1)
        orderings = list(all_orderings(g))
        for bits in range(1 << 8):
            c = Coloring(3, bits)
            for pi in orderings:
                cert = chain_or_red(c, g, pi)
                assert verify_certificate(cert, c) == [], bits

        g = GroundSplit(3, 2)
        orderings = list(all_orderings(g))
        for seed in range(10_000):
            c = random_coloring(g, seed)
            pi = orderings[seed % len(orderings)]
            cert = chain_or_red(c, g, pi)
            assert verify_certificate(cert, c) == [], seed
        assert time.monotonic() - start < 300.0


def test_criterion_5_claim_matches_closed_form():
    with criterion(5, "least winning k sits under the closed-form ceiling"):
        start = time.monotonic()
        for n in (1 << 10, 1 << 14):
            report = spindle_bound_report(n, 1, 2, 1)
            k_star = report.k_star
            assert claim_holds(n, k_star, 1, 1, 2)
            assert not claim_holds(n, k_star - 1, 1, 1, 2)
            params = SpindleBoundParams(n, 1, 2, 1)
            lo, hi = params.k_formula()
            # k* below the ceiling of the interval's low end certifies the
            # same for the true formula value, wherever it lands inside
            ceiling = -((-lo.numerator) // lo.denominator)
            assert k_star <= ceiling, (n, k_star, ceiling)
        assert time.monotonic() - start < 300.0


def test_criterion_6_two_layer_composition():
    with criterion(6, "two-layer bound equals nested one-layer bounds"):
        n = 1 << 14
        report = multipartite_bound_report(n, (2, 2))
        step1 = spindle_upper_bound(n, 1, 2, 1)
        step2 = spindle_upper_bound(step1, 1, 2, 1)
        assert report.value == step2 == multipartite_upper_bound(n, (2, 2))

        # realized per-step overhead: eps_i brackets k_i log2(n_i)/n_i - 2
        lo1, hi1 = report.steps[0].realized
        assert lo1 == hi1  # n is a power of two, so eps_1 is exact
        eps1 = lo1 - 2
        hi2 = report.steps[1].realized[1] - 2
        assert hi2 <= eps1  # the first step dominates, certified
        rhs = n * (1 + (2 + eps1) / 14) ** 2
        assert Fraction(report.value) <= rhs


def test_criterion_7_gluing_isomorphisms():
    with criterion(7, "glued diamonds and the two-cube line up"):
        k121 = make_complete_multipartite((1, 2, 1))
        assert are_isomorphic(glue(k121, k121), make_complete_multipartite((1, 2, 1, 2, 1)))
        assert are_isomorphic(make_boolean_poset(2), k121)


def test_criterion_8_clear_disjunction():
    with criterion(8, "no glued chain means every blue vertex clears a side"):
        g = GroundSplit(3, 0)
        chain2 = make_chain(2)
        blocked = glue(chain2, chain2)  # three-element chain
        checked = 0
        seed = 0
        while checked < 1000:
            c = random_coloring(g, seed)
            seed += 1
            if find_colored_copy(blocked, c, "blue") is not None:
                continue
            checked += 1
            out = classify_clear(c, g, chain2, chain2)
            for idx in range(len(out.blue)):
                assert out.p1_clear[idx] or out.p2_clear[idx], (seed - 1, idx)
        assert checked == 1000


def _repeated_ordering_family(rng: random.Random, k: int, s: int, r: int, t: int):
    """Synthetic chain family of one ordering listed many times, with shared
    ends and more members than the counting lemma allows whenever the
    antichain comes up short."""
    g = GroundSplit(2, k)
    pi = YOrdering(g, tuple(g.y_positions()))
    members = 2 if s == 1 else (s - 1) ** (k + 1) + 1
    entries = []
    for _ in range(members):
        xs = [0]
        for _ in range(k - 1):
            xs.append(xs[-1] | rng.randrange(4))
        xs.append(g.x_mask)
        vertices = []
        y_prefix = 0
        for i, x in enumerate(xs):
            if i > 0:
                y_prefix |= 1 << pi.order[i - 1]
            vertices.append(x | y_prefix)
        entries.append((pi, BlueChainCert(g, pi, tuple(vertices))))
    return g, ChainFamily(g, tuple(entries))


def test_criterion_9_synthetic_pipeline_dichotomy():
    with criterion(9, "spindle, or a cover within the counting lemma, on every class"):
        shapes = [(k, s, r, t)
                  for k in (1, 2, 3)
                  for s in (1, 2, 3)
                  for r, t in ((1, 1), (0, 1), (1, 0))
                  if r + t <= k + 1 and not (s == 1 and k < r + t)]
        shared_covers = 0
        for k, s, r, t in shapes:
            g = GroundSplit(2, k)
            orderings = list(all_orderings(g))
            for seed in range(20):
                density = Fraction(3, 4) if seed % 2 else Fraction(7, 8)
                coloring = random_coloring(g, seed, density)
                fam = collect_chain_family(coloring, g, orderings)
                if not isinstance(fam, ChainFamily):
                    continue
                for cls in pigeonhole_end_classes(fam, r, t):
                    out = assemble_spindle(cls, SpindleSpec(r, s, t), g)
                    if isinstance(out, SpindleCert):
                        assert check_spindle(out, coloring) == [], (k, s, r, t, seed)
                        continue
                    assert isinstance(out, ChainCover)
                    distinctness_contradiction(cls, out)
                    assert len(cls.members) <= len(out.chains) ** (k + 1)
                    shared_covers += len(cls.members) > 1
        assert shared_covers > 0
        # one ordering repeated: every cover trips the lemma check
        rng = random.Random(2024)
        for k, s, r, t in shapes:
            for _ in range(20):
                g, fam = _repeated_ordering_family(rng, k, s, r, t)
                cls = pigeonhole_end_classes(fam, r, t)[0]
                out = assemble_spindle(cls, SpindleSpec(r, s, t), g)
                if isinstance(out, ChainCover):
                    with pytest.raises(InvariantViolation):
                        distinctness_contradiction(cls, out)
