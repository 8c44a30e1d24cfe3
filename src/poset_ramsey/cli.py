"""Command-line surface: one binary, seven subcommands, reproducible runs.

Exit codes: 0 success, 1 verification failure, 2 usage or malformed input,
3 search budget exhausted before a verdict.

Handlers raise ``ValueError`` on bad input; ``main`` alone turns it, or an
``OSError`` from a file, into exit 2.  Size caps live in the library code that
owns them; the CLI checks only a builder flag's element count, before building.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence, TypeVar

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
from poset_ramsey.search import SearchBudget, find_witness, ramsey_exact, verify_witness

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


def _add_poset_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--poset", metavar="FILE", help="poset JSON file")
    group.add_argument("--chain", type=int, metavar="L", help="chain on L elements")
    group.add_argument(
        "--antichain", type=int, metavar="T", help="antichain on T elements"
    )
    group.add_argument(
        "--multipartite",
        type=_csv_ints,
        metavar="T1,T2,...",
        help="complete multipartite poset with the given layer sizes",
    )
    group.add_argument(
        "--spindle",
        type=_csv_triple,
        metavar="R,S,T",
        help="r-chain under an s-antichain under a t-chain",
    )
    group.add_argument(
        "--boolean", type=int, metavar="N", help="subset lattice of an N-set"
    )


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


def _load_poset(args: argparse.Namespace) -> Poset:
    # building is not linear (make_chain(1024) takes about 0.5 s): refuse first
    if _flag_size(args) ** 2 > DEFAULT_RELATION_BUDGET:
        raise ValueError(f"target exceeds the relation budget: size^2 > {DEFAULT_RELATION_BUDGET}")
    if args.poset is not None:
        return _load(args.poset, poset_from_json)
    if args.chain is not None:
        return make_chain(args.chain)
    if args.antichain is not None:
        return make_antichain(args.antichain)
    if args.multipartite is not None:
        return make_complete_multipartite(args.multipartite)
    if args.spindle is not None:
        return make_spindle(args.spindle)
    return make_boolean_poset(args.boolean)


def _flag_size(args: argparse.Namespace) -> int:
    """Element count the builder flags ask for; 0 for ``--poset`` (its parser checks)."""
    if args.chain is not None:
        return args.chain
    if args.antichain is not None:
        return args.antichain
    if args.multipartite is not None:
        return sum(args.multipartite)
    if args.spindle is not None:
        return sum(args.spindle)
    if args.boolean is not None and args.boolean >= 0:
        # 2^N elements: any N past the word width is over it, and cheap to shift
        return 1 << min(args.boolean, _kernels.MAX_TARGET_SIZE)
    return 0


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


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


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


def _frac_pair(pair: tuple[Fraction, Fraction]) -> list[float]:
    return [float(pair[0]), float(pair[1])]


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
        data["realized"] = _frac_pair(report.realized)
    return data


def _print_spindle_report(report: bounds.SpindleBoundReport) -> None:
    print(f"n = {report.n}, spindle r={report.r} s={report.s} t={report.t}")
    if report.k_star is None:
        print(f"degenerate one-column shape: chain rule gives {report.bound}")
        return
    print(f"k* = {report.k_star}")
    print(f"bound = n + k* = {report.bound}")
    lo, hi = report.realized
    print(f"realized factor k*·log n/n in [{float(lo):.6f}, {float(hi):.6f}]")
    print(f"claim left side  k! = {bounds.format_sci(report.lhs)}")
    print(f"claim right side     {bounds.format_sci(report.rhs)}")
    print(f"monotone tail certified: {report.tail_certified}")


def _cmd_bound(args: argparse.Namespace) -> int:
    n = args.n
    if args.spindle is not None:
        r, s, t = args.spindle
        if s >= 2 and s * s > n:
            print(
                "warning: middle layer is large next to n (log s/log n > 1/2); "
                "the asymptotic regime does not apply",
                file=sys.stderr,
            )
        report = bounds.spindle_bound_report(n, r, s, t)
        if args.json:
            _emit(json.dumps(_spindle_report_json(report), indent=2), args.out)
        else:
            _print_spindle_report(report)
    elif args.multipartite is not None:
        layers = args.multipartite
        if (1 << len(layers)) > n:
            print(
                "warning: more layers than log n; "
                "the asymptotic regime does not apply",
                file=sys.stderr,
            )
        report = bounds.multipartite_bound_report(n, layers)
        if args.json:
            data = {
                "n": report.n,
                "layer_sizes": list(report.layer_sizes),
                "t": report.t,
                "value": report.value,
                "steps": [_spindle_report_json(s) for s in report.steps],
            }
            _emit(json.dumps(data, indent=2), args.out)
        else:
            print(f"n = {report.n}, layers {report.layer_sizes}, t = {report.t}")
            for i, step in enumerate(report.steps, 1):
                tag = f"step {i}: {step.n} -> {step.bound}"
                if step.k_star is not None:
                    tag += f" (k* = {step.k_star})"
                print(tag)
            print(f"bound = {report.value}")
    elif args.chain_length is not None:
        value = bounds.chain_bound(args.chain_length, n)
        if args.json:
            _emit(
                json.dumps(
                    {"n": n, "chain": args.chain_length, "bound": value}, indent=2
                ),
                args.out,
            )
        else:
            print(f"bound = n + L - 1 = {value}")
    else:
        alpha = bounds.antichain_alpha(args.antichain_size)
        value = n + alpha
        if args.json:
            _emit(
                json.dumps(
                    {
                        "n": n,
                        "antichain": args.antichain_size,
                        "alpha": alpha,
                        "bound": value,
                    },
                    indent=2,
                ),
                args.out,
            )
        else:
            print(f"alpha = {alpha}")
            print(f"bound = n + alpha = {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# exact / witness


def _cmd_exact(args: argparse.Namespace) -> int:
    _kernels.check_word_width(_flag_size(args), "target")
    poset = _load_poset(args)
    n_max = args.nmax if args.nmax is not None else args.n + poset.size
    result = ramsey_exact(poset, args.n, n_max, symmetry=args.symmetry, budget=_budget(args))
    witness_files = {}
    if args.witness_dir is not None:
        out_dir = Path(args.witness_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for N, coloring in sorted(result.witnesses.items()):
            path = out_dir / f"witness_N{N}.txt"
            path.write_text(coloring_to_text(coloring), encoding="utf-8")
            witness_files[N] = str(path)
    if args.json:
        data = {
            "status": result.status,
            "value": result.value,
            "lower_bound": result.lower_bound,
            "witness_dims": sorted(result.witnesses),
            "witness_files": {str(k): v for k, v in sorted(witness_files.items())},
            "nodes_used": result.nodes_used,
        }
        _emit(json.dumps(data, indent=2), args.out)
    else:
        if result.status == "exact":
            print(result.value)
        elif result.status == "lower_bound":
            print(f"no verdict up to {n_max}: value is at least {result.lower_bound}")
        else:
            print(
                f"budget exhausted at dimension {result.inconclusive_at}; "
                f"value is at least {result.lower_bound}"
            )
        for N, path in sorted(witness_files.items()):
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
        if args.json:
            _emit(json.dumps({"found": False, "dim": args.N}, indent=2), args.out)
        else:
            print(f"no witness at dimension {args.N}")
        return EXIT_OK
    check = verify_witness(witness, poset, args.n)
    if not check.ok:
        print("internal error: witness failed re-verification", file=sys.stderr)
        return EXIT_VERIFY
    text = coloring_to_text(witness)
    if args.json:
        _emit(
            json.dumps(
                {"found": True, "dim": args.N, "coloring": text}, indent=2
            ),
            args.out,
        )
    else:
        _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract / verify-cert


def _cmd_extract(args: argparse.Namespace) -> int:
    split = GroundSplit(args.n, args.k)
    coloring = _load_coloring(args, split)

    if args.what == "chain":
        order = args.ordering if args.ordering is not None else tuple(split.y_positions())
        pi = YOrdering(split, order)
        cert = extract.chain_or_red(coloring, split, pi)
        _emit(extract.certificate_to_json(cert), args.out)
        return EXIT_OK

    if args.what == "family":
        orderings = list(all_orderings(split))
        result = extract.collect_chain_family(coloring, split, orderings)
        if isinstance(result, extract.RedQnCert):
            _emit(extract.certificate_to_json(result), args.out)
            return EXIT_OK
        data = {
            "kind": "chain_family",
            "ground": {"n": split.n, "k": split.k},
            "entries": [
                extract.certificate_to_json_dict(cert) for _, cert in result.entries
            ],
        }
        _emit(json.dumps(data, indent=2), args.out)
        return EXIT_OK

    if args.what == "spindle":
        if args.shape is None:
            raise ValueError("--what spindle requires --shape R,S,T")
        r, s, t = args.shape
        orderings = list(all_orderings(split))
        family = extract.collect_chain_family(coloring, split, orderings)
        if isinstance(family, extract.RedQnCert):
            _emit(extract.certificate_to_json(family), args.out)
            return EXIT_OK
        shape = SpindleSpec(r, s, t)
        cls = extract.pigeonhole_end_classes(family, r, t)[0]
        outcome = extract.assemble_spindle(cls, shape, split)
        if isinstance(outcome, extract.SpindleCert):
            _emit(extract.certificate_to_json(outcome), args.out)
            return EXIT_OK
        extract.distinctness_contradiction(cls, outcome)
        _, masks = extract.class_induced_poset(cls)
        data = {
            "kind": "chain_cover",
            "ground": {"n": split.n, "k": split.k},
            "chains": [[masks[e] for e in chain] for chain in outcome.chains],
            "class_size": len(cls.members),
            "note": (
                "largest end class is too small for the pigeonhole step; "
                "no spindle and no contradiction at this scale"
            ),
        }
        _emit(json.dumps(data, indent=2), args.out)
        return EXIT_OK

    # clear-vertex classification
    _kernels.check_word_width(args.p1_chain, "--p1-chain")
    _kernels.check_word_width(args.p2_chain, "--p2-chain")
    p1 = make_chain(args.p1_chain)
    p2 = make_chain(args.p2_chain)
    result = extract.classify_clear(coloring, split, p1, p2)
    data = {
        "kind": "clear_classification",
        "ground": {"n": split.n, "k": split.k},
        "blue": list(result.blue),
        "p1_clear": list(result.p1_clear),
        "p2_clear": list(result.p2_clear),
        "green": list(result.green),
        "yellow": list(result.yellow),
    }
    _emit(json.dumps(data, indent=2), args.out)
    return EXIT_OK


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    cert = _load(args.cert, extract.certificate_from_json)
    coloring = _load(args.coloring, coloring_from_text)
    problems = extract.verify_certificate(cert, coloring)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return EXIT_VERIFY
    print("certificate OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
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
