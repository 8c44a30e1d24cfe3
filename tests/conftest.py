"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the package's
search code: embeddings by trying every injection, witnesses by enumerating
every coloring.  Slow on purpose; keep the sizes tiny.

The ``kernel_backends`` and ``compiled_kernels`` fixtures give the kernel
twins to compare; they build the compiled twin from ``_ckernels.c`` with
``setup.py build_ext``, as ``pip`` does, into a temporary directory.
``_splitmix64`` is the frozen scalar reference for ``random_coloring``,
``check_colored_embedding`` re-verifies an embedding from first principles,
and ``check_chain_cover`` is the oracle for ``dilworth_cover``.
"""

from __future__ import annotations

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from itertools import permutations, product
from pathlib import Path

import pytest

from poset_ramsey._kernels import pure
from poset_ramsey.lattice import Coloring
from poset_ramsey.posets import ChainCover, Embedding, Poset

REPO_ROOT = Path(__file__).resolve().parent.parent
CKERNELS_MODULE = "poset_ramsey._kernels._ckernels"
#: A compiler warning in the kernel fails the suite.
CKERNELS_CFLAGS = "-std=c99 -Wall -Wextra -Werror"


def _build_compiled(workdir: Path) -> object:
    """Build the C twin with ``setup.py build_ext`` into ``workdir`` and load it.

    Returns the reason when no C compiler exists.  The module is dropped
    from ``sys.modules`` after loading, so nothing under ``src/`` changes and
    the backend that ``poset_ramsey._kernels`` selected at import stays
    selected.
    """
    compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if not compiler or shutil.which(compiler[0]) is None:
        return "no C compiler to build the compiled kernel twin"
    env = dict(os.environ, CFLAGS=CKERNELS_CFLAGS)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "-b", str(workdir), "-t", str(workdir)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = workdir / "poset_ramsey" / "_kernels" / f"_ckernels{suffix}"
    # optional=True turns a compile error into a warning and exit status 0
    if proc.returncode != 0 or not built.exists():
        pytest.fail(f"building the compiled kernel twin failed:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location(CKERNELS_MODULE, built)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(CKERNELS_MODULE, None)
    return module


@pytest.fixture(scope="session")
def compiled_build(tmp_path_factory) -> object:
    """The compiled twin built from source here, or why it cannot be built."""
    return _build_compiled(tmp_path_factory.mktemp("ckernels"))


@pytest.fixture(scope="session")
def kernel_backends(compiled_build) -> dict[str, object]:
    """Kernel twins by name: always "pure-python", "compiled" when buildable."""
    backends: dict[str, object] = {"pure-python": pure}
    if not isinstance(compiled_build, str):
        backends["compiled"] = compiled_build
    return backends


@pytest.fixture(scope="session")
def compiled_kernels(compiled_build) -> object:
    """The compiled twin; skips only when no C compiler exists."""
    if isinstance(compiled_build, str):
        pytest.skip(compiled_build)
    return compiled_build


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 stream: returns (output, next state).

    The generator is fixed so that seeds reproduce across implementations:
    state advances by 0x9E3779B97F4A7C15; the output mixes the new state by
    xor-shift 30 / multiply 0xBF58476D1CE4E5B9, xor-shift 27 / multiply
    0x94D049BB133111EB, xor-shift 31.  All arithmetic is modulo 2^64.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def check_colored_embedding(
    target: Poset, coloring: Coloring, color: str, embedding: Embedding
) -> list[str]:
    """Re-verification from first principles: colors, injectivity, induced order."""
    problems = []
    images = embedding.images
    if len(images) != target.size:
        problems.append("image count differs from target size")
        return problems
    want_blue = color == "blue"
    for i, v in enumerate(images):
        if v < 0 or v >> coloring.dim:
            problems.append(f"image of {i} outside the lattice")
            return problems
        if coloring.is_blue(v) != want_blue:
            problems.append(f"image of {i} is not {color}")
    if len(set(images)) != len(images):
        problems.append("images are not distinct")
    for i in range(target.size):
        for j in range(target.size):
            if i == j:
                continue
            want = target.lt(i, j)
            got = (images[i] & images[j]) == images[i] and images[i] != images[j]
            if want != got:
                problems.append(f"pair ({i}, {j}) breaks induced order")
    return problems


def check_chain_cover(p: Poset, cover: ChainCover) -> list[str]:
    """Problems list (empty = valid): disjoint, covering, chains ascending."""
    problems = []
    seen: set[int] = set()
    for ci, chain in enumerate(cover.chains):
        if not chain:
            problems.append(f"chain {ci} is empty")
        for e in chain:
            if e in seen:
                problems.append(f"element {e} appears in more than one chain")
            seen.add(e)
        for a, b in zip(chain, chain[1:]):
            if not p.lt(a, b):
                problems.append(f"chain {ci} is not ascending at ({a}, {b})")
    if seen != set(range(p.size)):
        problems.append("chains do not cover every element")
    return problems


def brute_has_copy_in_masks(target: Poset, hosts: list[int]) -> bool:
    """Does any injection of the target into the host masks preserve and
    reflect strict containment?  Tries every permutation, no pruning."""
    for images in permutations(hosts, target.size):
        ok = True
        for i in range(target.size):
            for j in range(target.size):
                if i == j:
                    continue
                want = target.lt(i, j)
                got = images[i] != images[j] and (images[i] & images[j]) == images[i]
                if want != got:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_has_colored_copy(target: Poset, coloring: Coloring, blue: bool) -> bool:
    hosts = coloring.blue_vertices() if blue else coloring.red_vertices()
    return brute_has_copy_in_masks(target, hosts)


def brute_is_witness(coloring: Coloring, p: Poset, q: Poset) -> bool:
    if brute_has_colored_copy(p, coloring, blue=True):
        return False
    return not brute_has_colored_copy(q, coloring, blue=False)


def all_colorings_lex(dim: int):
    """Every coloring of the dimension-dim lattice, least color string first.

    The color string reads vertex 0 leftmost with red (0) below blue (1), so
    itertools.product with vertex 0 as the slowest position enumerates in
    exactly that order.
    """
    volume = 1 << dim
    for colors in product((0, 1), repeat=volume):
        bits = 0
        for v, c in enumerate(colors):
            bits |= c << v
        yield Coloring(dim, bits)


def brute_first_witness(p: Poset, q: Poset, dim: int) -> Coloring | None:
    for coloring in all_colorings_lex(dim):
        if brute_is_witness(coloring, p, q):
            return coloring
    return None


def brute_ramsey(p: Poset, q_of, n: int, n_max: int) -> int | None:
    """Least N in n..n_max admitting no witness; q_of(n) builds the red target."""
    q = q_of(n)
    for N in range(n, n_max + 1):
        if brute_first_witness(p, q, N) is None:
            return N
    return None


def random_poset(rng: random.Random, size: int) -> Poset:
    """Random partial order on ``size`` elements via a random DAG's closure."""
    labels = list(range(size))
    rng.shuffle(labels)
    up = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                up[labels[i]] |= 1 << labels[j]
    # transitive closure, iterated until stable
    changed = True
    while changed:
        changed = False
        for i in range(size):
            acc = up[i]
            rest = up[i]
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return Poset(size, tuple(up))
