"""Command-line surface: one binary, seven subcommands, reproducible runs.

Exit codes: 0 success, 1 verification failure, 2 usage or malformed input,
3 search budget exhausted before a verdict.

Handlers raise ``ValueError`` on bad input; ``main`` alone turns it, or an
``OSError`` from a file, into exit 2.  Size caps live in the library code that
owns them; the CLI checks only a builder flag's element count, before building.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from poset_ramsey import _kernels, bounds, extract
from poset_ramsey.errors import SearchBudgetExceeded
from poset_ramsey.lattice import (
    MAX_COLORING_DIMENSION,
    Coloring,
    GroundSplit,
    YOrdering,
    all_orderings,
    coloring_from_text,
    coloring_to_text,
    random_coloring,
    write_coloring,
)
from poset_ramsey.posets import (
    DEFAULT_RELATION_BUDGET,
    Poset,
    SpindleSpec,
    make_antichain,
    make_boolean_poset,
    make_chain,
    make_complete_multipartite,
    make_spindle,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from poset_ramsey.search import SearchBudget, find_witness, ramsey_exact

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# Shared flag groups and input loading


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _csv_triple(text: str) -> tuple[int, ...]:
    values = _csv_ints(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"wants exactly R,S,T: {text!r}")
    return values


_T = TypeVar("_T")


def _load(path: str, parse: Callable[[str], _T]) -> _T:
    """Parse a file with an existing text parser, naming the file on failure.

    ``json`` decodes nested arrays recursively, so a deep file raises
    ``RecursionError``; it is bad input like any other.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _boolean_size(n: int) -> int:
    # 2^N elements: any N past the word width is over it, and cheap to shift
    return 1 << min(n, _kernels.MAX_TARGET_SIZE) if n >= 0 else 0


class _Target(NamedTuple):
    type: Callable[[str], Any] | None
    metavar: str
    help: str
    size: Callable[[Any], int]  # element count; 0 for --poset (its parser checks)
    build: Callable[[Any], Poset]


#: The target flags, keyed by dest, in ``--help`` order.  The builders are
#: looked up when called, so a test can swap a module-level builder.
_TARGETS = {
    "poset": _Target(None, "FILE", "poset JSON file",
                     lambda path: 0, lambda path: _load(path, poset_from_json)),
    "chain": _Target(int, "L", "chain on L elements", lambda L: L, lambda L: make_chain(L)),
    "antichain": _Target(int, "T", "antichain on T elements",
                         lambda T: T, lambda T: make_antichain(T)),
    "multipartite": _Target(_csv_ints, "T1,T2,...",
                            "complete multipartite poset with the given layer sizes",
                            sum, lambda ts: make_complete_multipartite(ts)),
    "spindle": _Target(_csv_triple, "R,S,T", "r-chain under an s-antichain under a t-chain",
                       sum, lambda rst: make_spindle(rst)),
    "boolean": _Target(int, "N", "subset lattice of an N-set",
                       _boolean_size, lambda N: make_boolean_poset(N)),
}


def _add_poset_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for dest, target in _TARGETS.items():
        group.add_argument(f"--{dest}", type=target.type, metavar=target.metavar,
                           help=target.help)


def _target_flag(args: argparse.Namespace) -> tuple[_Target, Any]:
    """The one target flag given (the group is required) and its value."""
    dest = next(dest for dest in _TARGETS if getattr(args, dest) is not None)
    return _TARGETS[dest], getattr(args, dest)


def _flag_size(args: argparse.Namespace) -> int:
    target, value = _target_flag(args)
    return target.size(value)


def _load_poset(args: argparse.Namespace) -> Poset:
    target, value = _target_flag(args)
    # building is not linear (make_chain(1024) takes about 0.5 s): refuse first
    if target.size(value) ** 2 > DEFAULT_RELATION_BUDGET:
        raise ValueError(f"target exceeds the relation budget: size^2 > {DEFAULT_RELATION_BUDGET}")
    return target.build(value)


def _add_coloring_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--coloring", metavar="FILE", help="coloring file")
    group.add_argument(
        "--random-seed",
        type=int,
        metavar="SEED",
        help="fair random coloring from this seed",
    )
    group.add_argument("--all-blue", action="store_true", help="every vertex blue")
    group.add_argument("--all-red", action="store_true", help="every vertex red")


def _load_coloring(args: argparse.Namespace, split: GroundSplit) -> Coloring:
    # every source holds 2^(n+k) bits, so the dimension is checked first
    if split.total > MAX_COLORING_DIMENSION:
        raise ValueError(f"n+k={split.total} exceeds the coloring cap {MAX_COLORING_DIMENSION}")
    if args.coloring is not None:
        coloring = _load(args.coloring, coloring_from_text)
        if coloring.dim != split.total:
            raise ValueError(
                f"coloring dimension {coloring.dim} does not match n+k={split.total}"
            )
        return coloring
    if args.random_seed is not None:
        return random_coloring(split, args.random_seed)
    bits = (1 << (1 << split.total)) - 1 if args.all_blue else 0
    return Coloring(split.total, bits)


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=SearchBudget().max_nodes,
        help="search node budget (default %(default)s)",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per search",
    )


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing a file at ``path`` would, unwritten.

    ``path`` is the user's string, as ``_emit`` opens it: ``Path`` would drop
    a trailing slash and check a file where the user named a directory.
    """
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# construct / export-dot


def _cmd_construct(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    _emit(poset_to_json(poset), args.out)
    return EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    poset = _load_poset(args)
    _emit(poset_to_dot(poset), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


def _spindle_report_json(report: bounds.SpindleBoundReport) -> dict:
    data: dict = {
        "n": report.n,
        "r": report.r,
        "s": report.s,
        "t": report.t,
        "bound": report.bound,
        "k_star": report.k_star,
    }
    if report.k_star is not None:
        data["lhs"] = bounds.format_sci(report.lhs)
        data["rhs"] = bounds.format_sci(report.rhs)
        data["tail_certified"] = report.tail_certified
        data["realized"] = [float(end) for end in report.realized]
    return data


def _spindle_report_text(data: dict) -> str:
    head = f"n = {data['n']}, spindle r={data['r']} s={data['s']} t={data['t']}"
    if data["k_star"] is None:
        return f"{head}\ndegenerate one-column shape: chain rule gives {data['bound']}"
    lo, hi = data["realized"]
    return "\n".join([
        head,
        f"k* = {data['k_star']}",
        f"bound = n + k* = {data['bound']}",
        f"realized factor k*·log n/n in [{lo:.6f}, {hi:.6f}]",
        f"claim left side  k! = {data['lhs']}",
        f"claim right side     {data['rhs']}",
        f"monotone tail certified: {data['tail_certified']}",
    ])


def _step_line(i: int, step: dict) -> str:
    k_star = "" if step["k_star"] is None else f" (k* = {step['k_star']})"
    return f"step {i}: {step['n']} -> {step['bound']}{k_star}"


def _warn_asymptotics(reason: str) -> None:
    print(f"warning: {reason}; the asymptotic regime does not apply", file=sys.stderr)


def _cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    if args.spindle is not None:
        r, s, t = args.spindle
        data = _spindle_report_json(bounds.spindle_bound_report(n, r, s, t))
        text = _spindle_report_text(data)
        if s >= 2 and s * s > n:
            _warn_asymptotics("middle layer is large next to n (log s/log n > 1/2)")
    elif args.multipartite is not None:
        layers = args.multipartite
        report = bounds.multipartite_bound_report(n, layers)
        if (1 << len(layers)) > n:
            _warn_asymptotics("more layers than log n")
        data = {
            "n": report.n,
            "layer_sizes": list(report.layer_sizes),
            "t": report.t,
            "value": report.value,
            "steps": [_spindle_report_json(s) for s in report.steps],
        }
        text = "\n".join([
            f"n = {report.n}, layers {report.layer_sizes}, t = {report.t}",
            *(_step_line(i, step) for i, step in enumerate(data["steps"], 1)),
            f"bound = {report.value}",
        ])
    elif args.chain_length is not None:
        value = bounds.chain_bound(args.chain_length, n)
        data = {"n": n, "chain": args.chain_length, "bound": value}
        text = f"bound = n + L - 1 = {value}"
    else:
        alpha = bounds.antichain_alpha(args.antichain_size)
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        data = {"n": n, "antichain": args.antichain_size, "alpha": alpha, "bound": n + alpha}
        text = f"alpha = {alpha}\nbound = n + alpha = {n + alpha}"
    _emit(json.dumps(data, indent=2) if args.json else text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact / witness


def _cmd_exact(args: argparse.Namespace) -> int:
    _kernels.check_word_width(_flag_size(args), "target")
    poset = _load_poset(args)
    n_max = args.nmax if args.nmax is not None else args.n + poset.size
    result = ramsey_exact(poset, args.n, n_max, symmetry=args.symmetry, budget=_budget(args))
    # every output path is checked before any file is written, so a refused
    # run leaves no file behind
    if args.out is not None:
        _check_writable(args.out)
    witness_files = {}
    if args.witness_dir is not None:
        out_dir = Path(args.witness_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        witness_files = {N: str(out_dir / f"witness_N{N}.txt") for N in sorted(result.witnesses)}
        for path in witness_files.values():
            _check_writable(path)
    data = {
        "status": result.status,
        "value": result.value,
        "lower_bound": result.lower_bound,
        "witness_dims": sorted(result.witnesses),
        "witness_files": {str(k): v for k, v in witness_files.items()},
        "nodes_used": result.nodes_used,
    }
    if result.status == "exact":
        text = str(result.value)
    elif result.status == "lower_bound":
        # the scanned ceiling, which symmetry may hold below n_max
        text = f"no verdict up to {result.lower_bound - 1}: value is at least {result.lower_bound}"
    else:
        text = (f"budget exhausted at dimension {result.inconclusive_at}; "
                f"value is at least {result.lower_bound}")
    _emit(json.dumps(data, indent=2) if args.json else text, args.out)
    for N, path in witness_files.items():
        write_coloring(path, result.witnesses[N])
        if not args.json:
            print(f"witness for dimension {N}: {path}", file=sys.stderr)
    return EXIT_BUDGET if result.status == "inconclusive" else EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    _kernels.check_word_width(_flag_size(args), "target")
    poset = _load_poset(args)
    try:
        witness = find_witness(
            poset, args.n, args.N, symmetry=args.symmetry, budget=_budget(args)
        )
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted after {exc.nodes} nodes", file=sys.stderr)
        return EXIT_BUDGET
    if witness is None:
        data = {"found": False, "dim": args.N}
        text = f"no witness at dimension {args.N}"
    else:
        text = coloring_to_text(witness)
        data = {"found": True, "dim": args.N, "coloring": text}
    _emit(json.dumps(data, indent=2) if args.json else text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract / verify-cert


def _spindle_or_cover(family: extract.ChainFamily, spec: SpindleSpec,
                      split: GroundSplit) -> str:
    cls = extract.pigeonhole_end_classes(family, spec.r, spec.t)[0]
    outcome = extract.assemble_spindle(cls, spec, split)
    if isinstance(outcome, extract.SpindleCert):
        return extract.certificate_to_json(outcome)
    extract.distinctness_contradiction(cls, outcome)
    _, masks = extract.class_induced_poset(cls)
    return json.dumps({
        "kind": "chain_cover",
        "ground": extract.ground_to_json_dict(split),
        "chains": [[masks[e] for e in chain] for chain in outcome.chains],
        "class_size": len(cls.members),
        "note": (
            "largest end class is too small for the pigeonhole step; "
            "no spindle and no contradiction at this scale"
        ),
    }, indent=2)


def _cmd_extract(args: argparse.Namespace) -> int:
    split = GroundSplit(args.n, args.k)
    orderings = math.factorial(split.k)
    if args.what in ("family", "spindle") and orderings > extract.MAX_FAMILY_ORDERINGS:
        raise ValueError(
            f"--what {args.what} lists all k! = {orderings} orderings, "
            f"past the cap of {extract.MAX_FAMILY_ORDERINGS}"
        )
    if args.what == "spindle":
        # the shape is checked against k before the coloring and the family
        if args.shape is None:
            raise ValueError("--what spindle requires --shape R,S,T")
        spec = SpindleSpec(*args.shape)
        extract.end_indices(split.k, spec.r, spec.t)
    coloring = _load_coloring(args, split)
    ground = extract.ground_to_json_dict(split)

    if args.what == "chain":
        order = args.ordering if args.ordering is not None else tuple(split.y_positions())
        cert = extract.chain_or_red(coloring, split, YOrdering(split, order))
        text = extract.certificate_to_json(cert)
    elif args.what == "clear":
        _kernels.check_word_width(args.p1_chain, "--p1-chain")
        _kernels.check_word_width(args.p2_chain, "--p2-chain")
        p1 = make_chain(args.p1_chain)
        p2 = make_chain(args.p2_chain)
        result = extract.classify_clear(coloring, split, p1, p2)
        data = {"kind": "clear_classification", "ground": ground}
        data.update((f.name, list(getattr(result, f.name))) for f in fields(result))
        text = json.dumps(data, indent=2)
    else:
        family = extract.collect_chain_family(coloring, split, list(all_orderings(split)))
        if isinstance(family, extract.RedQnCert):
            text = extract.certificate_to_json(family)
        elif args.what == "family":
            text = json.dumps({
                "kind": "chain_family",
                "ground": ground,
                "entries": [
                    extract.certificate_to_json_dict(cert) for cert in family.entries
                ],
            }, indent=2)
        else:
            text = _spindle_or_cover(family, spec, split)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    cert = _load(args.cert, extract.certificate_from_json)
    coloring = _load(args.coloring, coloring_from_text)
    problems = extract.verify_certificate(cert, coloring)
    _emit("\n".join(f"FAIL: {problem}" for problem in problems) if problems
          else "certificate OK", None)
    return EXIT_VERIFY if problems else EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ramsey`` parser, built once per process.

    Building the argparse tree costs about twenty times a parse, and parsing
    leaves the parser unchanged, so every ``main`` call shares one.
    """
    parser = argparse.ArgumentParser(
        prog="ramsey",
        description="Exact small-scale Ramsey values, bound formulas, and "
        "certificate extraction on blue/red colorings of subset lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a poset and save JSON")
    _add_poset_source(p_construct)
    p_construct.add_argument("--out", metavar="FILE", help="output path (default stdout)")

    p_bound = sub.add_parser("bound", help="evaluate an upper-bound formula")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--spindle", type=_csv_triple, metavar="R,S,T")
    group.add_argument("--multipartite", type=_csv_ints, metavar="T1,T2,...")
    group.add_argument("--chain", dest="chain_length", type=int, metavar="L")
    group.add_argument("--antichain", dest="antichain_size", type=int, metavar="T")
    p_bound.add_argument("--n", type=int, required=True, help="lattice dimension")
    p_bound.add_argument("--json", action="store_true")
    p_bound.add_argument("--out", metavar="FILE")

    p_exact = sub.add_parser("exact", help="exact Ramsey value by upward scan")
    _add_poset_source(p_exact)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument("--nmax", type=int, help="scan ceiling (default n + poset size)")
    p_exact.add_argument("--symmetry", action="store_true")
    _add_budget_flags(p_exact)
    p_exact.add_argument("--witness-dir", metavar="DIR", help="persist witness colorings")
    p_exact.add_argument("--json", action="store_true")
    p_exact.add_argument("--out", metavar="FILE")

    p_witness = sub.add_parser("witness", help="find a witness coloring at one dimension")
    _add_poset_source(p_witness)
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--N", type=int, required=True, help="host dimension")
    p_witness.add_argument("--symmetry", action="store_true")
    _add_budget_flags(p_witness)
    p_witness.add_argument("--json", action="store_true")
    p_witness.add_argument("--out", metavar="FILE")

    p_extract = sub.add_parser(
        "extract", help="run a certificate pipeline on a coloring"
    )
    p_extract.add_argument(
        "--what",
        choices=("chain", "family", "spindle", "clear"),
        required=True,
    )
    p_extract.add_argument("--n", type=int, required=True, help="X part size")
    p_extract.add_argument("--k", type=int, required=True, help="Y part size")
    _add_coloring_source(p_extract)
    p_extract.add_argument(
        "--ordering", type=_csv_ints, metavar="Y1,Y2,...", help="Y positions for --what chain"
    )
    p_extract.add_argument("--shape", type=_csv_triple, metavar="R,S,T")
    p_extract.add_argument("--p1-chain", type=int, default=2, metavar="L")
    p_extract.add_argument("--p2-chain", type=int, default=2, metavar="L")
    p_extract.add_argument("--out", metavar="FILE")

    p_verify = sub.add_parser("verify-cert", help="re-check a certificate file")
    p_verify.add_argument("--cert", required=True, metavar="FILE")
    p_verify.add_argument("--coloring", required=True, metavar="FILE")

    p_dot = sub.add_parser("export-dot", help="render a poset as Graphviz DOT")
    _add_poset_source(p_dot)
    p_dot.add_argument("--out", metavar="FILE")

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "bound": _cmd_bound,
    "exact": _cmd_exact,
    "witness": _cmd_witness,
    "extract": _cmd_extract,
    "verify-cert": _cmd_verify_cert,
    "export-dot": _cmd_export_dot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
