"""The three benchmark workloads: seeded inputs, the argv of every op, and
the oracle that judges each op's output.

Every op is issued the way a user issues it: an in-process call of
``poset_ramsey.cli.main(argv)`` with stdout and stderr captured.  Inputs come
only from the workload seed.  A run is a sequence of passes; each pass issues
every op of the workload's fixed pool once, in a seeded order, so the op mix
of a run does not depend on how many passes fit in its time.

Oracles never raise: ``check`` returns the list of problems it found, and an
op with any problem counts as failed.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import poset_ramsey
from poset_ramsey import cli

#: Exit codes of the ``ramsey`` command.
EXIT_OK, EXIT_VERIFY, EXIT_BUDGET = 0, 1, 3

#: The golden ratio's fractional part: consecutive multiples of it spread
#: evenly over [0, 1) for any prefix length (a Kronecker sequence).
_PHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Call:
    """One captured ``cli.main`` invocation; ``code`` is None if it raised."""

    argv: tuple[str, ...]
    code: int | None
    out: str
    err: str


def call_cli(argv: list[str] | tuple[str, ...]) -> Call:
    """Run ``ramsey <argv>`` in process with both streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else EXIT_VERIFY
        except Exception:  # an op that crashes is a failed op, not a crashed run
            code = None
            err.write(traceback.format_exc())
    return Call(tuple(argv), code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Op:
    """One user-level operation.

    ``key`` names the op's inputs: two ops with one key must do identical
    work, which is how work-count drift is caught within a run.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    data: dict = field(default_factory=dict, compare=False)


def _parse_json(call: Call, problems: list[str]) -> dict | None:
    try:
        data = json.loads(call.out)
    except json.JSONDecodeError as exc:
        problems.append(f"{' '.join(call.argv[:1])}: output is not JSON ({exc.msg})")
        return None
    if not isinstance(data, dict):
        problems.append("output is not a JSON object")
        return None
    return data


def _expect_code(call: Call, want: int, problems: list[str]) -> bool:
    if call.code != want:
        tail = call.err.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {call.code}, expected {want}: {tail[0]}")
        return False
    return True


class Workload:
    """Base: a seeded pool of ops, issued pass after pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Generate inputs and write the files ops read."""

    def warmup_argvs(self) -> list[list[str]]:
        return []

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> list[Call]:
        return [call_cli(op.argv)]

    def check(self, op: Op, calls: list[Call]) -> tuple[list[str], dict[str, int]]:
        """(problems, work counts) for one completed op."""
        raise NotImplementedError

    def _shuffled(self, ops: list[Op], index: int) -> list[Op]:
        order = random.Random(f"{self.name}:{self.seed}:pass{index}")
        ops = list(ops)
        order.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# exact_scan


#: Exact-value pool: (target flags, n, R(target, Q_n), provenance, modes).
#: "formula": R(C_L, Q_n) = n + L - 1.  "literature": R(Q_2, Q_2) = 4 (the
#: 1,2,1 spindle is Q_2).  "pinned": value of this package at the commit that
#: introduced the benchmark, where --symmetry on and off gave the same value.
#: modes lists the --symmetry settings in the pool; ops whose other setting
#: takes seconds in the pure backend are kept to the fast one.
_BOTH = (False, True)
_SYM = (True,)
EXACT_POOL: list[tuple[tuple[str, ...], int, int, str, tuple[bool, ...]]] = [
    *[(("--chain", str(L)), n, n + L - 1, "formula", _BOTH)
      for L, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1))],
    (("--chain", "4"), 2, 5, "formula", _SYM),
    (("--antichain", "2"), 1, 3, "pinned", _BOTH),
    (("--antichain", "2"), 2, 4, "pinned", _BOTH),
    (("--antichain", "2"), 3, 5, "pinned", _BOTH),
    (("--antichain", "3"), 1, 4, "pinned", _BOTH),
    (("--antichain", "3"), 2, 5, "pinned", _BOTH),
    (("--antichain", "4"), 1, 4, "pinned", _BOTH),
    (("--antichain", "4"), 2, 5, "pinned", _SYM),
    (("--spindle", "0,2,0"), 1, 3, "pinned", _BOTH),
    (("--spindle", "0,2,0"), 2, 4, "pinned", _BOTH),
    (("--spindle", "0,2,0"), 3, 5, "pinned", _SYM),
    (("--spindle", "1,2,1"), 1, 3, "pinned", _BOTH),
    (("--spindle", "1,2,1"), 2, 4, "literature", _BOTH),
    (("--multipartite", "1,2"), 1, 3, "pinned", _BOTH),
    (("--multipartite", "1,2"), 2, 4, "pinned", _BOTH),
    (("--multipartite", "1,2"), 3, 5, "pinned", _SYM),
    (("--boolean", "1"), 1, 2, "formula", _BOTH),
    (("--boolean", "1"), 2, 3, "formula", _BOTH),
    (("--boolean", "1"), 3, 4, "formula", _BOTH),
    (("--boolean", "2"), 1, 3, "pinned", _BOTH),
    (("--boolean", "2"), 2, 4, "literature", _SYM),
]

#: Budgeted N = 6 witness searches: (target flags, n, base node budget).
#: R(target, Q_n) = 6 for each, so no witness exists at N = 6 and the search
#: runs out of budget long before it could prove that.  (Targets with R < 6,
#: such as Q_2 against Q_2, close N = 6 within a few thousand nodes.)
WITNESS_POOL: list[tuple[tuple[str, ...], int, int]] = [
    (("--chain", "5"), 2, 500),
    (("--chain", "4"), 3, 400),
]

WITNESS_DIMENSION = 6

_BUDGET_LINE = re.compile(r"budget exhausted after (\d+) nodes")


class ExactScan(Workload):
    """``ramsey exact --json`` and budgeted ``ramsey witness --N 6`` ops."""

    name = "exact_scan"

    def setup(self) -> None:
        ops = []
        for flags, n, value, source, modes in EXACT_POOL:
            for sym in modes:
                argv = ("exact", *flags, "--n", str(n), "--json") + (("--symmetry",) if sym else ())
                ops.append(Op(" ".join(argv), "exact", argv, {"n": n, "value": value, "source": source}))
        for flags, n, base in WITNESS_POOL:
            for sym in _BOTH:
                # a small seeded jitter keeps budgets from being one fixed constant
                budget = base + self.rng.randrange(base // 20 + 1)
                argv = (
                    "witness", *flags, "--n", str(n), "--N", str(WITNESS_DIMENSION),
                    "--max-nodes", str(budget),
                ) + (("--symmetry",) if sym else ())
                ops.append(Op(" ".join(argv), "witness", argv, {"budget": budget}))
        self.ops = ops

    def warmup_argvs(self) -> list[list[str]]:
        return [
            ["exact", "--chain", "2", "--n", "1", "--json"],
            ["witness", "--chain", "5", "--n", "2", "--N", "6", "--max-nodes", "20", "--symmetry"],
        ]

    def pass_ops(self, index: int) -> list[Op]:
        return self._shuffled(self.ops, index)

    def check(self, op: Op, calls: list[Call]) -> tuple[list[str], dict[str, int]]:
        problems: list[str] = []
        call = calls[0]
        if op.kind == "witness":
            if not _expect_code(call, EXIT_BUDGET, problems):
                return problems, {}
            match = _BUDGET_LINE.search(call.err)
            if match is None:
                return ["no node count in the budget message"], {}
            nodes = int(match.group(1))
            budget = op.data["budget"]
            if not budget <= nodes <= budget + 1:
                problems.append(f"stopped at {nodes} nodes, budget {budget}")
            return problems, {"nodes": nodes}
        if not _expect_code(call, EXIT_OK, problems):
            return problems, {}
        data = _parse_json(call, problems)
        if data is None:
            return problems, {}
        n, value = op.data["n"], op.data["value"]
        if data.get("status") != "exact" or data.get("value") != value:
            problems.append(
                f"got {data.get('status')} {data.get('value')}, "
                f"expected exact {value} ({op.data['source']})"
            )
        if data.get("witness_dims") != list(range(n, value)):
            problems.append(f"witness dimensions {data.get('witness_dims')}")
        nodes = data.get("nodes_used")
        if not isinstance(nodes, int) or nodes < 1:
            problems.append(f"nodes_used {nodes!r}")
            nodes = 0
        return problems, {"nodes": nodes}


# ---------------------------------------------------------------------------
# bound_eval


LOG2_FLOOR = 10
LOG2_CEILING = 18

#: (r, s, t) for every r, t in {0, 1, 2} and s in {2, 3, 4}.
SPINDLE_SHAPES = [(r, s, t) for r in (0, 1, 2) for t in (0, 1, 2) for s in (2, 3, 4)]
MULTIPARTITE_SHAPES = [(1, 2), (2, 3), (1, 2, 2), (2, 3, 4)]
#: (family, shape, n is a power of two) for every op of a pass.
BOUND_CELLS = [
    (family, shape, power)
    for family, shapes in (("spindle", SPINDLE_SHAPES), ("multipartite", MULTIPARTITE_SHAPES))
    for shape in shapes
    for power in (True, False)
]


def bound_ceiling(shape: tuple[int, ...], multipartite: bool) -> int:
    """log2 of the largest n drawn for a shape.

    The upward scan costs about n^2 (r+t) big-integer work, so the ceiling
    drops one octave per unit of r + t and per multipartite layer; this keeps
    each op under about half a second in the pure-Python bound code while
    r + t <= 1 spindles still reach n = 2^18.
    """
    if multipartite:
        return LOG2_CEILING - 1 - len(shape)
    r, _, t = shape
    return LOG2_CEILING - (r + t)


class BoundEval(Workload):
    """``ramsey bound --spindle|--multipartite ... --n N --json`` ops.

    n is log-uniform on [2^10, 2^ceiling]; half the cells round it to a power
    of two and half keep it off one, which is what sends ``log2_interval``
    through its large integer power.
    """

    name = "bound_eval"

    def setup(self) -> None:
        self.offset = self.rng.random()

    def warmup_argvs(self) -> list[list[str]]:
        return [
            ["bound", "--spindle", "1,2,1", "--n", "1000", "--json"],
            ["bound", "--multipartite", "1,2", "--n", "1024", "--json"],
        ]

    def pass_ops(self, index: int) -> list[Op]:
        ops = []
        for c, (family, shape, power) in enumerate(BOUND_CELLS):
            top = bound_ceiling(shape, family == "multipartite")
            # one sequence over all ops of the run, so any number of passes
            # covers [0, 1) evenly and the seed only shifts it
            u = (self.offset + (index * len(BOUND_CELLS) + c) * _PHI) % 1.0
            x = LOG2_FLOOR + (top - LOG2_FLOOR) * u
            if power:
                n = 1 << round(x)
            else:
                n = max(int(2.0 ** x), (1 << LOG2_FLOOR) + 1)
                if n & (n - 1) == 0:
                    n += 1
            argv = ("bound", f"--{family}", ",".join(map(str, shape)), "--n", str(n), "--json")
            ops.append(Op(" ".join(argv), family, argv, {"n": n, "shape": shape}))
        return self._shuffled(ops, index)

    def check(self, op: Op, calls: list[Call]) -> tuple[list[str], dict[str, int]]:
        problems: list[str] = []
        call = calls[0]
        if not _expect_code(call, EXIT_OK, problems):
            return problems, {}
        data = _parse_json(call, problems)
        if data is None:
            return problems, {}
        n = op.data["n"]
        if op.kind == "spindle":
            r, s, t = op.data["shape"]
            k_star = _check_spindle_step(data, n, r, s, t, problems)
            return problems, {"k_star": k_star}
        layers = op.data["shape"]
        width = max(layers)
        steps = data.get("steps")
        if not isinstance(steps, list) or len(steps) != len(layers):
            return problems + [f"expected {len(layers)} steps"], {}
        total = 0
        value = n
        for step in steps:
            total += _check_spindle_step(step, value, 1, width, 1, problems)
            value = step.get("bound")
        if data.get("value") != value:
            problems.append(f"value {data.get('value')} is not the last step's bound {value}")
        return problems, {"k_star": total}


def _check_spindle_step(data: dict, n: int, r: int, s: int, t: int, problems: list[str]) -> int:
    """k* must be the least k where the claim holds: true at k*, false at k*-1."""
    if (data.get("n"), data.get("r"), data.get("s"), data.get("t")) != (n, r, s, t):
        problems.append(f"report is for {data.get('n')} {data.get('r')},{data.get('s')},{data.get('t')}")
        return 0
    k_star, bound = data.get("k_star"), data.get("bound")
    if not isinstance(k_star, int) or k_star < 1 or bound != n + k_star:
        problems.append(f"k* {k_star!r} and bound {bound!r} disagree at n={n}")
        return 0
    if not poset_ramsey.claim_holds(n, k_star, r, t, s):
        problems.append(f"claim fails at k*={k_star}, n={n}")
    if poset_ramsey.claim_holds(n, k_star - 1, r, t, s):
        problems.append(f"claim already holds at k*-1={k_star - 1}, n={n}")
    return k_star


# ---------------------------------------------------------------------------
# certify


_CERT_KINDS = ("blue_chain", "red_qn", "spindle", "contradiction")

#: Coloring cells: (what, n, k, blue density, shape or (p1, p2) chain lengths).
#: Densities 1/8 reach the red-cube path, 1/2 mixes red cubes and spindles,
#: 3/4 and 7/8 give spindles and, with r + t = k + 1, the Dilworth cover
#: path.  The unanchored red Q_n search behind a missing blue chain has a
#: heavy tail: seeded colorings at n = 4 with density 1/2 or 3/4, and at
#: n = 6 with density 1/8, took minutes.  So chain and spindle cells keep
#: densities 1/2 and 3/4 to n = 3 and n = 6 (where 64 X-parts per level
#: make a missing blue chain unlikely) and density 1/8 to n <= 4, where red
#: is dense and a red cube turns up at once.  The contradiction path stays
#: idle: it needs two family members with one ordering, which the CLI never
#: builds.
CERTIFY_CELLS: list[tuple[str, int, int, Fraction, tuple[int, ...]]] = [
    *[("chain", n, k, Fraction(d), ()) for n, k, d in (
        (3, 3, "1/8"), (3, 5, "7/8"), (3, 6, "1/2"), (3, 4, "3/4"), (4, 5, "7/8"),
        (4, 6, "1/8"), (5, 3, "7/8"), (5, 5, "7/8"), (6, 4, "7/8"), (6, 6, "3/4"),
        # single orderings at total dimension 14 to 16
        (7, 7, "7/8"), (8, 8, "7/8"), (10, 6, "7/8"), (12, 4, "7/8"),
    )],
    *[("spindle", n, k, Fraction(d), shape) for n, k, d, shape in (
        (3, 3, "1/8", (1, 2, 1)), (4, 4, "1/8", (1, 3, 1)), (3, 6, "1/8", (1, 2, 1)),
        (3, 4, "1/2", (1, 2, 1)), (4, 4, "7/8", (1, 3, 1)), (3, 5, "1/2", (2, 3, 1)),
        (4, 5, "7/8", (1, 2, 1)), (5, 5, "7/8", (1, 3, 1)), (5, 6, "7/8", (1, 2, 1)),
        (6, 5, "7/8", (2, 3, 1)), (6, 6, "3/4", (1, 2, 1)), (3, 6, "7/8", (1, 2, 1)),
        (6, 3, "3/4", (1, 2, 1)), (5, 4, "7/8", (0, 4, 0)),
        (3, 3, "7/8", (2, 3, 2)), (4, 3, "7/8", (2, 2, 2)),
    )],
    *[("clear", n, k, Fraction(d), chains) for n, k, d, chains in (
        (3, 3, "1/2", (2, 2)), (3, 5, "7/8", (3, 2)), (4, 4, "3/4", (2, 3)),
        (4, 5, "1/8", (2, 2)), (5, 4, "7/8", (2, 2)), (6, 4, "3/4", (2, 2)),
        (5, 5, "1/2", (2, 2)), (6, 3, "7/8", (3, 3)), (3, 6, "3/4", (2, 2)),
        (4, 6, "1/2", (2, 2)),
    )],
]


#: Seeded colorings drawn per cell.  Outcomes (red cube or spindle, and so
#: cost) turn on the coloring, so a run cycles through several per cell to
#: keep its op mix close to the same from seed to seed.
COLORINGS_PER_CELL = 4


@dataclass(frozen=True)
class _Input:
    path: Path
    dim: int
    bits: int


class Certify(Workload):
    """``ramsey extract --what chain|spindle|clear`` on seeded colorings.

    A certificate is then re-checked twice with ``ramsey verify-cert``: on
    the coloring it came from (must exit 0) and on a copy with one of its
    vertices recolored (must exit 1).
    """

    name = "certify"

    def setup(self) -> None:
        self.inputs: dict[str, _Input] = {}
        self.variants: list[list[Op]] = []
        for i, (what, n, k, density, extra) in enumerate(CERTIFY_CELLS):
            split = poset_ramsey.GroundSplit(n, k)
            variants = []
            for v in range(COLORINGS_PER_CELL):
                coloring = poset_ramsey.random_coloring(split, self.rng.getrandbits(64), density)
                path = self.workdir / f"coloring{i:02d}v{v}.txt"
                path.write_text(poset_ramsey.coloring_to_text(coloring), encoding="ascii")
                self.inputs[str(path)] = _Input(path, split.total, coloring.bits)
                argv = ["extract", "--what", what, "--n", str(n), "--k", str(k), "--coloring", str(path)]
                if what == "chain":
                    order = list(range(n, n + k))
                    self.rng.shuffle(order)
                    argv += ["--ordering", ",".join(map(str, order))]
                elif what == "spindle":
                    argv += ["--shape", ",".join(map(str, extra))]
                else:
                    argv += ["--p1-chain", str(extra[0]), "--p2-chain", str(extra[1])]
                key = f"{what} n={n} k={k} p={density} {extra} #{i}.{v}"
                variants.append(Op(key, what, tuple(argv), {"coloring": str(path), "n": n, "k": k}))
            self.variants.append(variants)
        self.cert_path = self.workdir / "cert.json"
        self.tampered_path = self.workdir / "tampered.txt"

    def warmup_argvs(self) -> list[list[str]]:
        return [list(self.variants[0][0].argv)]

    def pass_ops(self, index: int) -> list[Op]:
        # cells take turns over their colorings, so every pass mixes variants
        ops = [variants[(index + i) % len(variants)] for i, variants in enumerate(self.variants)]
        return self._shuffled(ops, index)

    def run(self, op: Op) -> list[Call]:
        extract = call_cli(op.argv)
        calls = [extract]
        cert = _certificate(extract)
        if cert is None:
            return calls
        self.cert_path.write_text(extract.out, encoding="utf-8")
        source = self.inputs[op.data["coloring"]]
        calls.append(call_cli(["verify-cert", "--cert", str(self.cert_path), "--coloring", str(source.path)]))
        tampered = poset_ramsey.Coloring(source.dim, source.bits ^ (1 << tamper_vertex(cert)))
        self.tampered_path.write_text(poset_ramsey.coloring_to_text(tampered), encoding="ascii")
        calls.append(
            call_cli(["verify-cert", "--cert", str(self.cert_path), "--coloring", str(self.tampered_path)])
        )
        return calls

    def check(self, op: Op, calls: list[Call]) -> tuple[list[str], dict[str, int]]:
        problems: list[str] = []
        extract = calls[0]
        if not _expect_code(extract, EXIT_OK, problems):
            return problems, {}
        data = _parse_json(extract, problems)
        if data is None:
            return problems, {}
        kind = data.get("kind")
        source = self.inputs[op.data["coloring"]]
        work = {"orderings": 0, "certificates": 0}
        if kind in _OUTCOMES:
            work[f"outcome.{_OUTCOMES[kind]}"] = 1
        allowed = {
            "chain": ("blue_chain", "red_qn"),
            "spindle": ("spindle", "red_qn", "contradiction", "chain_cover"),
            "clear": ("clear_classification",),
        }[op.kind]
        if kind not in allowed:
            return problems + [f"unexpected output kind {kind!r}"], {}
        if kind in _CERT_KINDS:
            work["certificates"] = 1
            if len(calls) != 3:
                return problems + ["certificate was not re-checked"], {}
            _expect_code(calls[1], EXIT_OK, problems)
            _expect_code(calls[2], EXIT_VERIFY, problems)
        if kind == "chain_cover":
            problems += _check_cover(data, source)
        if kind == "clear_classification":
            problems += check_clear(data, source.dim, source.bits)
        if op.kind == "chain":
            work["orderings"] = 1
        elif op.kind == "spindle":
            work["orderings"] = self._orderings_processed(op, kind, source)
        return problems, work

    def _orderings_processed(self, op: Op, kind: str, source: _Input) -> int:
        split = poset_ramsey.GroundSplit(op.data["n"], op.data["k"])
        if kind != "red_qn":
            return math.factorial(split.k)
        # the family stops at the first ordering without a blue chain
        coloring = poset_ramsey.Coloring(source.dim, source.bits)
        for count, pi in enumerate(poset_ramsey.all_orderings(split), 1):
            if isinstance(poset_ramsey.chain_or_red(coloring, split, pi), poset_ramsey.RedQnCert):
                return count
        return 0


_OUTCOMES = {
    "spindle": "spindle",
    "contradiction": "contradiction",
    "chain_cover": "cover",
    "red_qn": "red",
}


def _certificate(call: Call) -> dict | None:
    """The certificate an extract op printed, or None if it printed none."""
    if call.code != EXIT_OK:
        return None
    try:
        data = json.loads(call.out)
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) and data.get("kind") in _CERT_KINDS else None


def tamper_vertex(cert: dict) -> int:
    """A vertex the certificate relies on, whose recoloring must break it."""
    kind = cert["kind"]
    if kind == "blue_chain":
        vertices = cert["vertices"]
    elif kind == "red_qn":
        vertices = cert["images"]
    elif kind == "spindle":
        vertices = cert["lower"] + cert["middle"] + cert["upper"]
    else:
        vertices = cert["member_chains"][0]
    return vertices[len(vertices) // 2]


def _blue(dim: int, bits: int) -> list[int]:
    return [v for v in range(1 << dim) if bits >> v & 1]


def check_clear(data: dict, dim: int, bits: int) -> list[str]:
    """Green within blue, green and yellow covering every vertex once, and
    one flag per blue vertex."""
    problems = []
    blue = _blue(dim, bits)
    if data.get("blue") != blue:
        problems.append("blue list differs from the coloring")
    p1, p2 = data.get("p1_clear", []), data.get("p2_clear", [])
    if len(p1) != len(blue) or len(p2) != len(blue):
        problems.append("flag lengths differ from the blue count")
        return problems
    green, yellow = data.get("green", []), data.get("yellow", [])
    if green != [v for v, clear in zip(blue, p1) if clear]:
        problems.append("green is not the p1-clear blue vertices")
    if not set(green) <= set(blue):
        problems.append("green is not within blue")
    if sorted(green + yellow) != list(range(1 << dim)):
        problems.append("green and yellow do not partition the vertices")
    return problems


def _check_cover(data: dict, source: _Input) -> list[str]:
    problems = []
    for chain in data.get("chains", []):
        for a, b in zip(chain, chain[1:]):
            if a & b != a or a == b:
                problems.append(f"cover chain does not ascend at {a}, {b}")
        for v in chain:
            if not source.bits >> v & 1:
                problems.append(f"cover vertex {v} is not blue")
    if not data.get("chains"):
        problems.append("empty chain cover")
    return problems


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ExactScan, BoundEval, Certify)}
