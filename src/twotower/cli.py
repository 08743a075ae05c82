"""Command line interface.

Exit codes: `analyze` returns 0 when the tower is proven infinite, 10
when the verdict is open, and 2 on input errors; other commands return 0
on success, 1 when a verification sweep reports violations, and 2 on
input errors.  Negative discriminants go after `--` or inside --discs=.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import search as search_mod
from . import splitlab
from .arith import QuadFieldSpec, prime_disc_factorization
from .errors import TwoTowerError
from .quadforms import narrow_class_group, wide_class_group
from .redei import catalog_text
from .tower import analyze, cl2_order

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_OPEN = 10


def _parse_discs(text: str) -> QuadFieldSpec:
    values = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    return QuadFieldSpec.from_disc_values(values)


def _spec_from_args(args) -> QuadFieldSpec:
    if args.discs:
        return _parse_discs(args.discs)
    if args.discriminant is None:
        raise TwoTowerError("give a discriminant or --discs=")
    return prime_disc_factorization(args.discriminant)


def _cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    report = analyze(spec)
    if args.format == "human":
        print(f"K = Q(sqrt({report.spec.discriminant})), discs {list(spec.values())}")
        print(f"d2 = {report.d2}, d4 = {report.d4}, case {report.case.tag}")
        print(f"verdict: {report.verdict}")
        if report.certificate:
            cert = report.certificate
            print(f"  criterion {cert.criterion}, F discs {list(cert.base_field_discs)}")
            print(f"  |Cl_2(F)| = {cert.cl2_order}, check {cert.threshold_check.to_json_dict()}")
        for d in report.diagnostics:
            print(f"  miss {d.criterion}: {d.achieved} vs {d.required} needed  {d.detail}")
    else:
        print(report.to_json())
    return EXIT_OK if report.verdict == "InfiniteProven" else EXIT_OPEN


def _cmd_classgroup(args) -> int:
    group = (narrow_class_group if args.narrow else wide_class_group)(args.discriminant)
    print(group.describe())
    ranks = []
    k = 1
    while group.rank(2, k):
        ranks.append(f"d_{2 ** k} = {group.rank(2, k)}")
        k += 1
    print("; ".join(ranks) if ranks else "odd class number (all 2-power ranks 0)")
    return EXIT_OK


def _search_json(spec: QuadFieldSpec, case: str | None, cl2: int | None) -> str:
    return json.dumps(
        {
            "discriminant": spec.discriminant,
            "discs": list(spec.values()),
            "case": case,
            "cl2_order": cl2,
            "certificate": None,
        }
    )


def _cmd_search(args) -> int:
    if args.search_cmd == "complete":
        partial = [None if tok.strip() == "_" else int(tok) for tok in args.partial.split(",")]
        specs = search_mod.complete_tuple(args.case, partial, args.bound, args.count)
        for spec in specs:
            print(_search_json(spec, args.case, None))
    else:
        specs = search_mod.find_base_fields(
            args.template, args.min_cl2, args.rank_max, args.bound
        )
        for spec in specs:
            print(_search_json(spec, None, cl2_order(spec)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    wide = not args.narrow
    if args.verify_cmd == "real-pair":
        report = splitlab.verify_real_pair(args.l1, args.l2, args.bound, wide=wide)
    else:
        report = splitlab.verify_imag_triple(args.l1, args.l2, args.l3, args.bound, wide=wide)
    print(report.describe())
    for p, why in report.violations:
        print(f"  p = {p}: {why}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_explore(args) -> int:
    spec = _parse_discs(args.discs)
    wide = not args.narrow

    def rows():
        for row in splitlab.iter_rows(spec, args.bound, wide=wide):
            if not args.summary_only:
                print(row.tsv())
            yield row

    summary = {
        "discs": list(spec.values()),
        "bound": args.bound,
        "group": "wide" if wide else "narrow",
        "vectors": splitlab.summarize_rows(rows()),
    }
    print("# summary\t" + json.dumps(summary))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    print(catalog_text(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotower",
        description="2-class field tower criteria for imaginary quadratic fields",
        epilog="TWO_TOWER_MAX_DISC sets the discriminant bound (default 1e8).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="verdict for one field")
    p.add_argument("discriminant", type=int, nargs="?", help="fundamental discriminant")
    p.add_argument("--discs", help="comma list of prime discriminants, e.g. -7,-3,-8,+29,+5")
    p.add_argument("--format", choices=("json", "human"), default="json")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("classgroup", help="class group structure")
    p.add_argument("discriminant", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--narrow", action="store_true")
    mode.add_argument("--wide", action="store_true", help="default")
    p.set_defaults(fn=_cmd_classgroup)

    p = sub.add_parser("search", help="constructive searches")
    ssub = p.add_subparsers(dest="search_cmd", required=True)
    pc = ssub.add_parser("complete", help="fill holes in a disc tuple")
    pc.add_argument("--case", required=True)
    pc.add_argument("--partial", required=True, help="e.g. -3,-11,_,-7,-31")
    pc.add_argument("--bound", type=int, default=1000)
    pc.add_argument("--count", type=int, default=5)
    pb = ssub.add_parser("base-fields", help="base fields with prescribed 2-class size")
    pb.add_argument("--template", required=True, choices=sorted(search_mod._TEMPLATES))
    pb.add_argument("--min-cl2", type=int, required=True)
    pb.add_argument("--rank-max", type=int, default=1)
    pb.add_argument("--bound", type=int, default=3000)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="sweep the proved splitting statements")
    vsub = p.add_subparsers(dest="verify_cmd", required=True)
    vr = vsub.add_parser("real-pair")
    vr.add_argument("l1", type=int)
    vr.add_argument("l2", type=int)
    vr.add_argument("--bound", type=int, default=10000)
    vr.add_argument("--narrow", action="store_true")
    vi = vsub.add_parser("imag-triple")
    vi.add_argument("l1", type=int)
    vi.add_argument("l2", type=int)
    vi.add_argument("l3", type=int)
    vi.add_argument("--bound", type=int, default=10000)
    vi.add_argument("--narrow", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("explore", help="symbol-vector splitting experiment")
    p.add_argument("--discs", required=True)
    p.add_argument("--bound", type=int, default=100000)
    p.add_argument("--narrow", action="store_true")
    p.add_argument("--summary-only", action="store_true")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("catalog", help="dump the open-matrix catalog")
    p.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TwoTowerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
