"""Command line interface: qloop <group> <command> [flags].

Groups: sl2, rep, qchar, cluster, verify.  Output goes to stdout in
text, json, or latex form.  Exit codes: 0 success, 1 verification
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import CartanData
from .errors import (CapExceededError, ConsistencyError, InvalidInputError,
                     QloopError, SingularityError)
from .ymono import (YMonomial, YPolynomial, poly_to_json, render_latex,
                    render_text, render_vpoly_text, vpoly_to_json)


def _rational(text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational {text!r}: {exc}")


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad integer list {text!r}: {exc}")


def _triples(text: str, what: str) -> list:
    """A JSON list of [i, s, e] triples of ints (a bool is not an int)."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad {what} JSON {text!r}: {exc}")
    if not isinstance(data, list) or not all(
            isinstance(t, list) and len(t) == 3
            and all(type(x) is int for x in t) for t in data):
        raise InvalidInputError(
            f"bad {what} JSON {text!r}: need a list of integer triples")
    return [tuple(t) for t in data]


def _emit_poly(p: YPolynomial, fmt: str):
    """Write p to stdout term by term, so no whole rendering is held."""
    render = {"json": poly_to_json, "latex": render_latex}.get(fmt,
                                                                 render_text)
    render(p, sys.stdout)
    sys.stdout.write("\n")


def _report_exit(report, fmt: str) -> int:
    if fmt == "json":
        out = [{"case": e["case"], "pass": e["pass"],
                "lhs": vpoly_to_json(e["lhs"]),
                "rhs": vpoly_to_json(e["rhs"])}
               for e in report]
        print(json.dumps(out))
    else:
        for e in report:
            status = "pass" if e["pass"] else "FAIL"
            print(f"[{status}] {e['case']}")
            if not e["pass"]:
                print(f"    lhs: {render_vpoly_text(e['lhs'])}")
                print(f"    rhs: {render_vpoly_text(e['rhs'])}")
    return 0 if all(e["pass"] for e in report) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "latex"),
                        default="text")
    common.add_argument("--seed-cap", type=int, default=100000)

    parser = argparse.ArgumentParser(prog="qloop", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    g_sl2 = groups.add_parser("sl2").add_subparsers(dest="command",
                                                    required=True)
    p = g_sl2.add_parser("kr", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p = g_sl2.add_parser("factor", parents=[common])
    p.add_argument("--monomial", required=True)
    p = g_sl2.add_parser("ybe", parents=[common])
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--q", required=True)

    g_rep = groups.add_parser("rep").add_subparsers(dest="command",
                                                    required=True)
    p = g_rep.add_parser("roots", parents=[common])
    p.add_argument("--type", required=True)
    p = g_rep.add_parser("euler", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--nu", required=True)

    g_qchar = groups.add_parser("qchar").add_subparsers(dest="command",
                                                        required=True)
    p = g_qchar.add_parser("fundamental", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--shift", type=int, required=True)
    p = g_qchar.add_parser("standard", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--w", required=True)
    p = g_qchar.add_parser("kr", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    g_cluster = groups.add_parser("cluster").add_subparsers(dest="command",
                                                            required=True)
    p = g_cluster.add_parser("enumerate", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, required=True)
    p = g_cluster.add_parser("fpoly", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--beta", required=True)
    p = g_cluster.add_parser("classify", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, required=True)

    g_verify = groups.add_parser("verify").add_subparsers(dest="command",
                                                          required=True)
    p = g_verify.add_parser("l1", parents=[common])
    p.add_argument("--type", required=True)
    p = g_verify.add_parser("tsystem", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p = g_verify.add_parser("iota", parents=[common])
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int, required=True)

    return parser


def _cartan(label: str) -> CartanData:
    return CartanData.from_label(label)


def _run(args) -> int:
    fmt = args.format
    cap = args.seed_cap
    if cap < 1:
        raise InvalidInputError(f"--seed-cap must be at least 1, not {cap}")
    if args.group == "sl2":
        from . import sl2
        if args.command == "kr":
            _emit_poly(sl2.kr_qchar_sl2(args.k, args.s), fmt)
            return 0
        if args.command == "factor":
            segs = sl2.canonical_segments(YMonomial.from_triples(
                _triples(args.monomial, "monomial")))
            data = [{"origin": s.origin, "length": s.length} for s in segs]
            print(json.dumps(data) if fmt == "json"
                  else " ".join(f"segment(origin={s.origin},length={s.length})"
                                for s in segs) or "empty")
            return 0
        if args.command == "ybe":
            ok = sl2.verify_yang_baxter(_rational(args.u), _rational(args.v),
                                        _rational(args.q))
            print(json.dumps({"pass": ok}) if fmt == "json" else
                  ("pass" if ok else "FAIL"))
            return 0 if ok else 1
    if args.group == "rep":
        c = _cartan(args.type)
        if args.command == "roots":
            roots = c.positive_roots()
            print(json.dumps([list(r) for r in roots]) if fmt == "json"
                  else "\n".join(",".join(map(str, r)) for r in roots))
            return 0
        if args.command == "euler":
            from . import quiverrep
            beta = _csv_ints(args.beta)
            nu = _csv_ints(args.nu)
            if len(beta) != c.n or len(nu) != c.n:
                raise InvalidInputError("beta and nu need one entry per node")
            rep = quiverrep.indecomposable_rep(c, beta)
            chi = quiverrep.grassmannian_euler(rep, nu)
            print(json.dumps({"euler": chi}) if fmt == "json" else chi)
            return 0
    if args.group == "qchar":
        c = _cartan(args.type)
        if args.command == "fundamental":
            from . import preproj
            _emit_poly(preproj.fundamental_qchar(c, args.node, args.shift), fmt)
            return 0
        if args.command == "standard":
            from . import preproj
            # a repeated (i, r) adds its multiplicities, as in `sl2 factor`
            w = YMonomial.from_triples(_triples(args.w, "W")).exps()
            _emit_poly(preproj.standard_qchar(c, w), fmt)
            return 0
        if args.command == "kr":
            from . import engine
            _emit_poly(engine.kr_qchar(
                c, engine.KRLabel(args.node, args.k, args.s)), fmt)
            return 0
    if args.group == "cluster":
        c = _cartan(args.type)
        if args.command == "enumerate":
            from . import cluster
            graph = cluster.enumerate_exchange_graph(
                cluster.gamma_seed(c, args.level), cap)
            return _emit_graph(c, graph, fmt)
        if args.command == "fpoly":
            from . import engine
            if args.level != 1:
                raise InvalidInputError("fpoly is a level-1 command")
            beta = _csv_ints(args.beta)
            fpoly = engine.cluster_fpoly(c, beta, cap)
            print(json.dumps({"beta": list(beta),
                              "F": vpoly_to_json(fpoly)})
                  if fmt == "json" else render_vpoly_text(fpoly))
            return 0
        if args.command == "classify":
            from . import cluster
            label = cluster.classify_finite_type(c, args.level, cap)
            print(json.dumps({"type": label}) if fmt == "json" else label)
            return 0
    if args.group == "verify":
        from . import engine
        c = _cartan(args.type)
        if args.command == "l1":
            return _report_exit(engine.verify_l1(c, cap), fmt)
        if args.command == "tsystem":
            ok = engine.verify_tsystem(c, args.node, args.k, args.s)
            print(json.dumps({"pass": ok}) if fmt == "json" else
                  ("pass" if ok else "FAIL"))
            return 0 if ok else 1
        if args.command == "iota":
            return _report_exit(engine.verify_iota(c, args.level, cap), fmt)
    raise InvalidInputError("unknown command")


def _emit_graph(c, graph, fmt: str) -> int:
    from . import cluster
    counts = {"clusters": graph.n_clusters(),
              "variables": graph.n_variables(),
              "frozen": len(graph.seed.frozen)}
    if fmt != "json":
        print(f"clusters: {counts['clusters']}  variables: "
              f"{counts['variables']}  frozen: {counts['frozen']}")
        return 0
    table = {}
    for ident, cv in sorted(graph.variables.items()):
        fpoly, g = cluster.f_polynomial_and_gvector(graph.seed, cv)
        table[ident] = {
            "denominator": list(cv.dvector),
            "F": vpoly_to_json(fpoly.map_keys(lambda v: v[0])),
            "g": list(g),
        }
    out = {
        "counts": counts,
        "clusters": [sorted(cl) for cl in graph.clusters],
        "variables": table,
    }
    print(json.dumps(out))
    return 0


def _join_list_values(argv) -> list:
    """Join `--beta X` into `--beta=X`, and so for --nu, --u, --v and
    --q, so that a value that starts with a minus sign reaches the value
    checks instead of being read as a flag."""
    out = []
    for token in argv:
        if out and out[-1] in ("--beta", "--nu", "--u", "--v", "--q"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return _run(args)
    except (InvalidInputError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
