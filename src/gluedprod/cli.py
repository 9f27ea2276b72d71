"""Command-line entry point wiring all modules together."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cubes, dynamics, lef
from .core import PvContext
from .errors import GluedError, GroupSpecError, WordParseError
from .finite import classify, full_order, glued_order
from .groups import parse_group
from .pointed import check_absorbed
from .suites import SuiteConfig, run_suite


def _load_spec(text: str) -> dict:
    text = text.strip()
    try:
        return json.loads(text if text.startswith("{") else Path(text).read_text())
    except OSError as exc:
        raise GroupSpecError(f"cannot read the spec file {text!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise GroupSpecError(f"malformed group spec {text!r}: {exc}") from None


def _context(args, **kwargs) -> PvContext:
    return PvContext(parse_group(_load_spec(args.left)),
                     parse_group(_load_spec(args.right)), **kwargs)


def _add_factor_args(parser, default_left='{"type": "integers"}',
                     default_right='{"type": "integers"}'):
    parser.add_argument("--left", default=default_left,
                        help="left factor: inline JSON or a path to a spec file")
    parser.add_argument("--right", default=default_right,
                        help="right factor: inline JSON or a path to a spec file")


def _parse_vertex(ctx: PvContext, text: str) -> cubes.CubeVertex:
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise WordParseError(f"malformed vertex {text!r}: {exc}") from None
    if not isinstance(data, dict):
        raise WordParseError(f"a vertex is a JSON object, got {text!r}")
    sides = [data.get("removed", []), data.get("added", [])]
    if not all(isinstance(side, list) and all(isinstance(t, str) for t in side) for side in sides):
        raise WordParseError("vertex fields 'removed' and 'added' must be lists of point strings")
    return cubes.CubeVertex(*(frozenset(map(ctx.union.parse_point, side)) for side in sides))


def _vertex_record(ctx: PvContext, v: cubes.CubeVertex) -> dict:
    return {
        "removed": [ctx.union.format_point(p) for p in ctx.union.sorted_points(v.removed)],
        "added": [ctx.union.format_point(p) for p in ctx.union.sorted_points(v.added)],
        "s": cubes.s_invariant(v),
    }


def cmd_eval(args) -> int:
    ctx = _context(args)
    print(ctx.format_element(ctx.eval_word(args.word)))
    return 0


def cmd_classify(args) -> int:
    G = parse_group(_load_spec(args.left))
    H = parse_group(_load_spec(args.right))
    kind = classify(G, H)
    n = G.order() + H.order() - 1
    if args.verify:
        order = glued_order(G, H)
        expected = full_order(kind, n)
        if order != expected:
            print(f"{kind}({n}) MISMATCH: order {order} != {expected}")
            return 1
        print(f"{kind}({n}) order={order} verified")
    else:
        print(f"{kind}({n})")
    return 0


def cmd_cube_ball(args) -> int:
    ctx = _context(args)
    bound = args.radius if args.payload_bound is None else args.payload_bound
    vertices = cubes.vertex_ball(ctx, args.radius, bound)
    if args.format == "jsonl":
        for v in vertices:
            print(json.dumps(_vertex_record(ctx, v), sort_keys=True))
        return 0
    print("graph cube {")
    for i, v in enumerate(vertices):
        print(f'  v{i} [label="s={cubes.s_invariant(v)}"];')
    for i, j in cubes.edges(vertices):
        print(f"  v{i} -- v{j};")
    print("}")
    return 0


def cmd_cube_transport(args) -> int:
    ctx = _context(args)
    v = _parse_vertex(ctx, getattr(args, "from"))
    w = _parse_vertex(ctx, args.to)
    t = cubes.transporter(ctx, v, w)
    print(ctx.format_element(t))
    return 0


def cmd_lef(args) -> int:
    ctx = _context(args)
    mode, _, count = args.mode.partition(":")
    sample = 10**5
    if mode == "sample" and count.isdecimal() and int(count) > 0:
        sample = int(count)
    elif args.mode != "exhaustive":
        raise GluedError(f"bad mode {args.mode!r}; use exhaustive or sample:K with K >= 1")
    approx = lef.Approximation(ctx, args.n, modulus=args.modulus)
    reports = approx.check_pairs(mode=mode, sample=sample, seed=args.seed)
    reports.append(approx.check_injectivity(samples=min(sample, 10**5), seed=args.seed))
    failures = 0
    for report in reports:
        print(json.dumps(report.to_json(), sort_keys=True))
        failures += not report.ok
    return 1 if failures else 0


def cmd_pong(args) -> int:
    ctx = _context(args)
    report = dynamics.free_semigroup_check(ctx, args.g, args.h, args.length)
    if report.ok:
        print(f"ok {report.words_checked} words pairwise distinct")
        return 0
    print(f"COLLISION {report.first_collision[0]} = {report.first_collision[1]}")
    return 1


def cmd_folner(args) -> int:
    ctx = _context(args)
    F = dynamics.folner_set(ctx, args.n)
    s = ctx.eval_word(args.test)
    ratio = dynamics.folner_ratio(ctx, F, s)
    print(f"{ratio.numerator}/{ratio.denominator}")
    return 0


def cmd_suite(args) -> int:
    left, right = _load_spec(args.left), _load_spec(args.right)
    for spec in (left, right):
        check_absorbed(parse_group(spec))  # a bad spec is an error, not a reason to skip
    cfg = SuiteConfig(seed=args.seed, budget=args.budget, left=left, right=right,
                      fmt=args.format)
    code, lines = run_suite(args.name, cfg, only=args.only)
    for line in lines:
        print(line)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gluedprod",
        description="Exact computation in the group glued from two factors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="normalise a word of letters")
    _add_factor_args(p)
    p.add_argument("word", help='e.g. "G:1 H:1 G:-1 H:-1"')
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("classify", help="Alt/Sym classification of two finite factors")
    _add_factor_args(p, '{"type": "cyclic", "n": 2}', '{"type": "cyclic", "n": 2}')
    p.add_argument("--verify", action="store_true",
                   help="verify against the exact group order")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("cube", help="cubical complex operations")
    cube_sub = p.add_subparsers(dest="cube_command", required=True)
    pb = cube_sub.add_parser("ball", help="enumerate a vertex ball")
    _add_factor_args(pb)
    pb.add_argument("--radius", type=int, required=True)
    pb.add_argument("--payload-bound", type=int, default=None)
    pb.add_argument("--format", choices=("dot", "jsonl"), default="dot")
    pb.set_defaults(fn=cmd_cube_ball)
    pt = cube_sub.add_parser("transport", help="move one vertex to another")
    _add_factor_args(pt)
    pt.add_argument("--from", required=True, help='vertex JSON, e.g. {"removed": ["g:1"]}')
    pt.add_argument("--to", required=True)
    pt.set_defaults(fn=cmd_cube_transport)

    p = sub.add_parser("lef", help="finite approximation checks")
    lef_sub = p.add_subparsers(dest="lef_command", required=True)
    pc = lef_sub.add_parser("check", help="multiplicativity/injectivity harness")
    _add_factor_args(pc)
    pc.add_argument("-n", type=int, default=1)
    pc.add_argument("--mode", default="sample:10000",
                    help="exhaustive or sample:K")
    pc.add_argument("--modulus", type=int, default=None)
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(fn=cmd_lef)

    p = sub.add_parser("pong", help="free-semigroup verifier")
    _add_factor_args(p)
    p.add_argument("--g", required=True)
    p.add_argument("--h", dest="h", required=True)
    p.add_argument("-L", "--length", type=int, default=8)
    p.set_defaults(fn=cmd_pong)

    p = sub.add_parser("folner", help="exact boundary ratio of a Folner set")
    _add_factor_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--test", required=True, help="word acting on the set")
    p.set_defaults(fn=cmd_folner)

    p = sub.add_parser("suite", help="run a property suite")
    _add_factor_args(p)
    p.add_argument("name", help="core|finite|cube|lef|dynamics|all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--only", default=None, help="run a single named check")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GluedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
