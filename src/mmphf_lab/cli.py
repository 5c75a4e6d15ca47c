"""Batch experiment runner: every module surface as a subcommand.

Outputs are JSON (default) or CSV with fixed per-subcommand columns;
rationals are emitted as "p/q" strings, never floats, except Monte-Carlo
estimates which always carry explicit confidence-interval columns.  Every
artifact embeds {tool version, seed, config} and runs are byte-identical
for identical (flags, seed).  Exit codes: 0 ok, 2 usage or cap errors.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__, coloring, graphs, harddist, mmphf, windowtree
from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded, MmphfLabError
from .serialize import frac_str, parse_frac
from .tower import parse_tower

PROG = "mmphf-lab"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except EnumerationCapExceeded as e:
        print(f"{PROG}: {e}", file=sys.stderr)
        return 2
    except (MmphfLabError, ValueError) as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=PROG,
        description="exact experiments on conflict graphs, fractional coloring "
        "certificates, the hard tuple distribution, window trees and rank indexes",
    )
    p.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, columns=None):
        sp = sub.add_parser(
            name,
            help=help_text,
            description=help_text
            + (f"  CSV columns: {', '.join(columns)}." if columns else ""),
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        sp.add_argument("--max-vertices", type=int, default=DEFAULT_CAPS.max_vertices)
        sp.add_argument(
            "--max-label-functions", type=int, default=DEFAULT_CAPS.max_label_functions
        )
        sp.add_argument("--max-outcomes", type=int, default=DEFAULT_CAPS.max_outcomes)
        return sp

    sp = add("graph", "build a graph family member and export it", ["key", "value"])
    _graph_flags(sp)
    sp.add_argument("--export", choices=("summary", "dimacs", "json"), default="summary")
    sp.set_defaults(func=_cmd_graph)

    sp = add("chi", "exact chromatic number with a proper coloring witness", ["key", "value"])
    _graph_flags(sp)
    sp.set_defaults(func=_cmd_chi)

    sp = add(
        "chif",
        "exact fractional chromatic number with primal/dual certificates",
        ["key", "value"],
    )
    _graph_flags(sp)
    sp.add_argument("--skip-chi", action="store_true", help="skip the integral solve")
    sp.set_defaults(func=_cmd_chif)

    sp = add(
        "sample",
        "draw hard-distribution traces and verify their invariants",
        ["trial", "seed", "verified", "y*", "z*", "x*", "s*"],
    )
    _params_flags(sp)
    sp.add_argument("--trials", type=int, default=1)
    sp.set_defaults(func=_cmd_sample)

    sp = add(
        "enumerate",
        "exact law of the tuple distribution at tiny parameters",
        ["tuple", "probability"],
    )
    _params_flags(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = add(
        "adversary",
        "exhaustive best-response label function on an explicit tuple distribution",
        ["key", "value"],
    )
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--tuples",
        help='inline distribution like "1,2=1/2;2,3=1/2"',
    )
    group.add_argument(
        "--dist-file", help="JSON file in the format written by `enumerate`"
    )
    sp.add_argument("--universe", type=int, help="universe size (default: max element)")
    sp.set_defaults(func=_cmd_adversary)

    sp = add(
        "prune",
        "prune a window tree for a label sequence and report level fractions",
        ["level", "total", "kept", "directly_pruned", "indirectly_pruned", "p"],
    )
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--labels", required=True, help="comma-separated labels of the root window")
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--tau", required=True, help='sparsity threshold as "p/q"')
    sp.set_defaults(func=_cmd_prune)

    sp = add(
        "case1-sweep",
        "randomized sweep of the sparse-case density bound and leaf identity",
        [
            "instance",
            "arity",
            "depth",
            "tau",
            "delta",
            "survival",
            "root_density",
            "fired",
            "holds",
            "leaf_identity",
        ],
    )
    sp.add_argument("--instances", type=int, default=100)
    sp.add_argument("--max-arity", type=int, default=4)
    sp.add_argument("--max-depth", type=int, default=2)
    sp.set_defaults(func=_cmd_case1_sweep)

    sp = add(
        "mmphf-verify",
        "build an index and verify member ranks are 0..n-1",
        ["element", "rank", "ok"],
    )
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--keys", help="comma-separated increasing keys")
    group.add_argument("--keys-file", help="file with a u= header then one key per line")
    sp.add_argument("--u", type=int, help="universe size (with --keys)")
    sp.set_defaults(func=_cmd_mmphf_verify)

    sp = add(
        "bound-report",
        "measured index sizes against exact chi and chi_f on a conflict graph",
        ["key", "value"],
    )
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.set_defaults(func=_cmd_bound_report)

    sp = add(
        "sx-roundtrip",
        "round-trip every bit string up to a length through anchored key sets",
        ["d", "strings", "distinct_payloads", "max_payload_bits", "ok"],
    )
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, default=mmphf.SCHEME_EXPLICIT_SET)
    sp.add_argument("--max-d", type=int, default=10)
    sp.set_defaults(func=_cmd_sx_roundtrip)

    sp = add(
        "parameterize",
        "exact block-decomposition parameters for (n, u); u may be a 2^2^... tower",
        ["key", "value"],
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u", required=True, help='integer or tower like "2^2^64"')
    sp.set_defaults(func=_cmd_parameterize)

    return p


def _graph_flags(sp):
    sp.add_argument("--graph", choices=("conflict", "shift"), required=True)
    sp.add_argument("--m", type=int, help="tuple size (conflict)")
    sp.add_argument("--M", type=int, help="universe width (conflict)")
    sp.add_argument("--offset", type=int, default=0)
    sp.add_argument("--n", type=int, help="tuple size (shift)")
    sp.add_argument("--u", type=int, help="universe size (shift)")


def _params_flags(sp):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, help="step granularity (>= 2)")
    sp.add_argument("--s0", type=int, help="initial exponent")
    sp.add_argument(
        "--defaults",
        action="store_true",
        help="use the canonical parameters k = m^m, s0 = k^(m+1)",
    )


def _caps(args) -> EnumerationCaps:
    return EnumerationCaps(
        max_vertices=args.max_vertices,
        max_label_functions=args.max_label_functions,
        max_outcomes=args.max_outcomes,
    )


def _spec(args) -> graphs.GraphSpec:
    if args.graph == "conflict":
        if args.m is None or args.M is None:
            raise ValueError("conflict graphs need --m and --M")
        return graphs.ConflictSpec(args.m, args.M, args.offset)
    if args.n is None or args.u is None:
        raise ValueError("shift graphs need --n and --u")
    return graphs.ShiftSpec(args.n, args.u)


def _params(args) -> harddist.SamplerParams:
    if args.defaults:
        return harddist.SamplerParams.canonical(args.m)
    if args.k is None or args.s0 is None:
        raise ValueError("need --k and --s0, or --defaults")
    return harddist.SamplerParams(args.m, args.k, args.s0)


def _metadata(args) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format") and v is not None
    }
    return {"tool": PROG, "version": __version__, "seed": args.seed, "config": config}


def _emit(args, payload: dict, rows: list, columns: list) -> int:
    if args.format == "json":
        text = json.dumps({"meta": _metadata(args), **payload}, indent=2, sort_keys=True)
        text += "\n"
    else:
        buf = io.StringIO()
        meta = _metadata(args)
        buf.write(f"# {meta['tool']} {meta['version']} seed={meta['seed']} "
                  f"config={json.dumps(meta['config'], sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


def _kv_rows(d: dict, prefix="") -> list:
    rows = []
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_kv_rows(v, prefix=key + "."))
        else:
            rows.append([key, json.dumps(v) if isinstance(v, list) else v])
    return rows


# -- subcommand bodies -------------------------------------------------------


def _cmd_graph(args) -> int:
    g = graphs.build_graph(_spec(args), _caps(args))
    if args.export == "dimacs":
        text = graphs.to_dimacs(g, comment=f"{PROG} {args.graph} graph")
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        return 0
    payload = {"vertices": g.n, "edges": len(g.edges)}
    if args.export == "json":
        payload["vertex_list"] = [list(v) for v in g.vertices]
        payload["edge_list"] = [[i, j] for (i, j) in g.edges]
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


def _cmd_chi(args) -> int:
    g = graphs.build_graph(_spec(args), _caps(args))
    chi, witness = coloring.chromatic_number(g, _caps(args))
    payload = {"chi": chi, "coloring": witness}
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


def _cmd_chif(args) -> int:
    g = graphs.build_graph(_spec(args), _caps(args))
    report = coloring.fractional_chromatic_number(
        g, _caps(args), include_chi=not args.skip_chi
    )
    payload = report.to_json_dict()
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


def _cmd_sample(args) -> int:
    params = _params(args)
    records = []
    rows = []
    for t in range(args.trials):
        trace = harddist.sample(params, harddist.derive_seed(args.seed, t))
        ok, bad = harddist.verify_trace(trace)
        rec = trace.to_json_dict()
        rec["trial"] = t
        rec["verified"] = ok
        if bad:
            rec["violations"] = bad
        records.append(rec)
        row = [t, trace.seed, ok]
        for field in ("y", "z", "x", "s"):
            row.append(";".join(it[field] for it in rec["iterations"]))
        rows.append(row)
    payload = {"params": {"m": params.m, "k": params.k, "s0": params.s0}, "traces": records}
    return _emit(args, payload, rows, ["trial", "seed", "verified", "y", "z", "x", "s"])


def _cmd_enumerate(args) -> int:
    dist = harddist.enumerate_distribution(_params(args), _caps(args))
    payload = {
        "m": dist.m,
        "universe_size": dist.universe_size,
        "outcomes": [[list(t), frac_str(p)] for t, p in dist.outcomes],
    }
    rows = [[";".join(map(str, t)), frac_str(p)] for t, p in dist.outcomes]
    return _emit(args, payload, rows, ["tuple", "probability"])


def _parse_distribution(args) -> harddist.ExplicitTupleDistribution:
    if args.tuples is not None:
        outcomes = []
        for part in args.tuples.split(";"):
            tup, _, prob = part.partition("=")
            outcomes.append(
                (tuple(int(x) for x in tup.split(",")), parse_frac(prob))
            )
    else:
        with open(args.dist_file) as fh:
            data = json.load(fh)
        outcomes = [(tuple(t), parse_frac(p)) for t, p in data["outcomes"]]
    m = len(outcomes[0][0])
    universe = args.universe or max(t[-1] for t, _ in outcomes)
    return harddist.ExplicitTupleDistribution(
        m=m, universe_size=universe, outcomes=tuple(sorted(outcomes))
    )


def _cmd_adversary(args) -> int:
    dist = _parse_distribution(args)
    best, f = harddist.adversary_bound_exact(dist, _caps(args))
    payload = {
        "max_probability": frac_str(best),
        "argmax_labels": [f[e] for e in range(1, dist.universe_size + 1)],
        "universe_size": dist.universe_size,
    }
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


def _cmd_prune(args) -> int:
    labels = [int(x) for x in args.labels.split(",")]
    spec = windowtree.WindowTreeSpec(
        arity=args.arity, depth=args.depth, start=args.start, length=len(labels)
    )
    tree = windowtree.build_tree(spec, _caps(args))
    f = {args.start + i: v for i, v in enumerate(labels)}
    result = windowtree.prune(tree, f, args.index, parse_frac(args.tau))
    payload = result.to_json_dict()
    rows = [
        [lvl["level"], lvl["total"], lvl["kept"], lvl["directly_pruned"],
         lvl["indirectly_pruned"], lvl["p"]]
        for lvl in payload["levels"]
    ]
    return _emit(
        args, payload, rows,
        ["level", "total", "kept", "directly_pruned", "indirectly_pruned", "p"],
    )


def _cmd_case1_sweep(args) -> int:
    from .rng import BitSampler, derive_seed

    rows = []
    records = []
    all_hold = True
    for inst in range(args.instances):
        rng = BitSampler(derive_seed(args.seed, inst))
        arity = 2 + rng.choice_index(max(args.max_arity - 1, 1))
        depth = 1 + rng.choice_index(max(args.max_depth, 1))
        leaf = 1 + rng.choice_index(3)
        length = leaf * arity**depth
        spec = windowtree.WindowTreeSpec(arity=arity, depth=depth, start=1, length=length)
        tree = windowtree.build_tree(spec, _caps(args))
        index = 1
        f = {e: 1 + rng.choice_index(3) for e in range(1, length + 1)}
        tau = Fraction(1 + rng.choice_index(8), 10)
        result = windowtree.prune(tree, f, index, tau)
        survival = result.survival_product
        # draw delta at or above the survival product so the hypothesis fires
        delta = min(survival + Fraction(rng.choice_index(10), 10), Fraction(1))
        holds = windowtree.case1_inequality_check(tree, f, index, tau, delta)
        fired = survival <= delta
        leaf_ok = result.kept_leaf_fraction == survival
        all_hold = all_hold and holds and leaf_ok
        root_density = windowtree.density(tree.window(0, 0), f, index)
        rows.append(
            [inst, arity, depth, frac_str(tau), frac_str(delta), frac_str(survival),
             frac_str(root_density), fired, holds, leaf_ok]
        )
        records.append(
            {
                "instance": inst,
                "arity": arity,
                "depth": depth,
                "tau": frac_str(tau),
                "delta": frac_str(delta),
                "survival": frac_str(survival),
                "root_density": frac_str(root_density),
                "fired": fired,
                "holds": holds,
                "leaf_identity": leaf_ok,
            }
        )
    payload = {"instances": records, "all_hold": all_hold}
    code = 0 if all_hold else 2
    _emit(
        args, payload, rows,
        ["instance", "arity", "depth", "tau", "delta", "survival", "root_density",
         "fired", "holds", "leaf_identity"],
    )
    return code


def _cmd_mmphf_verify(args) -> int:
    if args.keys is not None:
        if args.u is None:
            raise ValueError("--keys needs --u")
        keys = mmphf.KeySet(
            elements=tuple(int(x) for x in args.keys.split(",")), u=args.u
        )
    else:
        with open(args.keys_file) as fh:
            keys = mmphf.keyset_from_text(fh.read())
    idx = mmphf.build(args.scheme, keys, seed=args.seed)
    rows = []
    ok_all = True
    for j, e in enumerate(keys.elements):
        r = mmphf.query(idx, e)
        ok = r == j
        ok_all = ok_all and ok
        rows.append([e, r, ok])
    payload = {
        "scheme": args.scheme,
        "n": keys.n,
        "u": keys.u,
        "payload_bits": idx.size_bits,
        "total_bits": idx.total_bits,
        "answers": [[e, r] for e, r, _ in rows],
        "ok": ok_all,
    }
    _emit(args, payload, rows, ["element", "rank", "ok"])
    return 0 if ok_all else 2


def _cmd_bound_report(args) -> int:
    report = mmphf.bound_report(
        args.scheme, graphs.ConflictSpec(args.m, args.M), seed=args.seed, caps=_caps(args)
    )
    payload = report.to_json_dict()
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


def _cmd_sx_roundtrip(args) -> int:
    from itertools import product as iproduct

    rows = []
    records = []
    ok_all = True
    for d in range(1, args.max_d + 1):
        payloads = set()
        max_bits = 0
        ok = True
        for bits in iproduct((0, 1), repeat=d):
            idx = mmphf.build(args.scheme, mmphf.encode_bitstring(bits), seed=args.seed)
            payloads.add(idx.payload)
            max_bits = max(max_bits, idx.size_bits)
            if mmphf.decode_bitstring(idx, d) != bits:
                ok = False
        ok = ok and len(payloads) == 1 << d and max_bits >= d
        ok_all = ok_all and ok
        rows.append([d, 1 << d, len(payloads), max_bits, ok])
        records.append(
            {
                "d": d,
                "strings": 1 << d,
                "distinct_payloads": len(payloads),
                "max_payload_bits": max_bits,
                "ok": ok,
            }
        )
    payload = {"scheme": args.scheme, "rounds": records, "ok": ok_all}
    _emit(args, payload, rows, ["d", "strings", "distinct_payloads", "max_payload_bits", "ok"])
    return 0 if ok_all else 2


def _cmd_parameterize(args) -> int:
    fp = mmphf.parameterize(args.n, parse_tower(args.u))
    payload = fp.to_json_dict()
    return _emit(args, payload, _kv_rows(payload), ["key", "value"])


if __name__ == "__main__":
    raise SystemExit(main())
