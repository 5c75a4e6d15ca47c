"""Batch experiment runner: every module surface as a subcommand.

Outputs are JSON (default) or CSV with fixed per-subcommand columns;
rationals are emitted as "p/q" strings, never floats, except Monte-Carlo
estimates which always carry explicit confidence-interval columns.  Every
artifact embeds {tool version, seed, config} and runs are byte-identical
for identical (flags, seed).  Exit codes: 0 ok; 2 for usage errors,
exceeded caps, I/O errors, and a failed verification (`case1-sweep`,
`mmphf-verify`, `sx-roundtrip`), whose artifact is still written.

Each subcommand is one `COMMANDS` entry: help text, CSV columns, a
function adding its flags, and a body returning (payload, rows, ok).
`main` parses, renders, writes and picks the exit code for all of them.
"""

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from . import __version__, coloring, graphs, harddist, mmphf, windowtree
from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded, MmphfLabError
from .rng import BitSampler, derive_seed
from .serialize import frac_str, parse_frac
from .tower import parse_tower

PROG = "mmphf-lab"
KV = ("key", "value")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    _, columns, _, body = COMMANDS[args.command]
    try:
        payload, rows, ok = body(args)
        _write(args.out, _render(args, columns, payload, rows))
    except EnumerationCapExceeded as e:
        print(f"{PROG}: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (MmphfLabError, ValueError, OSError) as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog=PROG,
        description="exact experiments on conflict graphs, fractional coloring "
        "certificates, the hard tuple distribution, window trees and rank indexes",
    )
    p.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, columns, flags, _) in COMMANDS.items():
        sp = sub.add_parser(
            name, help=help_text, description=f"{help_text}  CSV columns: {', '.join(columns)}."
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        sp.add_argument("--seed", type=_int_in(0, 1 << 64), default=0, help="64-bit master seed")
        sp.add_argument("--max-vertices", type=int, default=DEFAULT_CAPS.max_vertices)
        sp.add_argument(
            "--max-label-functions", type=int, default=DEFAULT_CAPS.max_label_functions
        )
        sp.add_argument("--max-outcomes", type=int, default=DEFAULT_CAPS.max_outcomes)
        flags(sp)
    return p


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi), or at least lo when hi is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value >= hi):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi})"
            raise argparse.ArgumentTypeError(f"must be {bound}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _metadata(args) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("out", "format") and v is not None
    }
    return {"tool": PROG, "version": __version__, "seed": args.seed, "config": config}


def _render(args, columns, payload, rows) -> str:
    """The artifact text: a raw string payload as is, else JSON or CSV.

    CSV rows default to the payload's flattened key/value pairs; a row
    given as a dict is projected onto the columns.
    """
    if isinstance(payload, str):
        return payload
    meta = _metadata(args)
    if args.format == "json":
        return json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    buf.write(f"# {meta['tool']} {meta['version']} seed={meta['seed']} "
              f"config={json.dumps(meta['config'], sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in _kv_rows(payload) if rows is None else rows:
        writer.writerow([row[c] for c in columns] if isinstance(row, dict) else row)
    return buf.getvalue()


def _write(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _kv_rows(d: dict, prefix="") -> list:
    rows = []
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_kv_rows(v, prefix=key + "."))
        else:
            rows.append([key, json.dumps(v) if isinstance(v, list) else v])
    return rows


def _caps(args) -> EnumerationCaps:
    return EnumerationCaps(
        max_vertices=args.max_vertices,
        max_label_functions=args.max_label_functions,
        max_outcomes=args.max_outcomes,
    )


# -- graphs and colorings ----------------------------------------------------


def _graph_flags(sp):
    sp.add_argument("--graph", choices=("conflict", "shift"), required=True)
    sp.add_argument("--m", type=int, help="tuple size (conflict)")
    sp.add_argument("--M", type=int, help="universe width (conflict)")
    sp.add_argument("--offset", type=int, default=0)
    sp.add_argument("--n", type=int, help="tuple size (shift)")
    sp.add_argument("--u", type=int, help="universe size (shift)")


def _build_graph(args) -> graphs.Graph:
    if args.graph == "conflict":
        _refuse_flags("conflict", {"--n": args.n, "--u": args.u})
        if args.m is None or args.M is None:
            raise ValueError("conflict graphs need --m and --M")
        spec = graphs.ConflictSpec(args.m, args.M, args.offset)
    else:
        # a shift graph keeps the default offset 0 in its artifact
        _refuse_flags("shift", {"--m": args.m, "--M": args.M, "--offset": args.offset or None})
        if args.n is None or args.u is None:
            raise ValueError("shift graphs need --n and --u")
        spec = graphs.ShiftSpec(args.n, args.u)
    return graphs.build_graph(spec, _caps(args))


def _refuse_flags(family: str, flags: dict) -> None:
    """A usage error naming the given flags of the other family, if any."""
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        raise ValueError(f"{family} graphs take no {', '.join(given)}")


def _graph_export_flags(sp):
    _graph_flags(sp)
    sp.add_argument("--export", choices=("summary", "dimacs", "json"), default="summary")


def _graph(args):
    g = _build_graph(args)
    if args.export == "dimacs":
        return graphs.to_dimacs(g, comment=f"{PROG} {args.graph} graph"), None, True
    payload = {"vertices": g.n, "edges": g.edge_count()}
    if args.export == "json":
        payload["vertex_list"] = [list(v) for v in g.vertices]
        payload["edge_list"] = [[i, j] for (i, j) in g.edges()]
    return payload, None, True


def _chi(args):
    chi, witness = coloring.chromatic_number(_build_graph(args), _caps(args))
    return {"chi": chi, "coloring": witness}, None, True


def _chif_flags(sp):
    _graph_flags(sp)
    sp.add_argument("--skip-chi", action="store_true", help="skip the integral solve")


def _chif(args):
    report = coloring.fractional_chromatic_number(
        _build_graph(args), _caps(args), include_chi=not args.skip_chi
    )
    return report.to_json_dict(), None, True


# -- the hard distribution ---------------------------------------------------


def _params_flags(sp):
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, help="step granularity (>= 2)")
    sp.add_argument("--s0", type=int, help="initial exponent")
    sp.add_argument(
        "--defaults",
        action="store_true",
        help="use the canonical parameters k = m^m, s0 = k^(m+1)",
    )


def _params(args) -> harddist.SamplerParams:
    if args.defaults:
        return harddist.SamplerParams.canonical(args.m)
    if args.k is None or args.s0 is None:
        raise ValueError("need --k and --s0, or --defaults")
    return harddist.SamplerParams(args.m, args.k, args.s0)


def _sample_flags(sp):
    _params_flags(sp)
    sp.add_argument("--trials", type=_int_in(1), default=1)


def _sample(args):
    params = _params(args)
    records = []
    for t in range(args.trials):
        trace = harddist.sample(params, derive_seed(args.seed, t))
        ok, bad = harddist.verify_trace(trace)
        rec = trace.to_json_dict()
        rec["trial"] = t
        rec["verified"] = ok
        if bad:
            rec["violations"] = bad
        records.append(rec)
    rows = [
        dict(rec, **{f: ";".join(it[f] for it in rec["iterations"]) for f in "yzxs"})
        for rec in records
    ]
    payload = {"params": {"m": params.m, "k": params.k, "s0": params.s0}, "traces": records}
    return payload, rows, True


def _enumerate(args):
    dist = harddist.enumerate_distribution(_params(args), _caps(args))
    outcomes = [[list(t), frac_str(p)] for t, p in dist.outcomes]
    payload = {"m": dist.m, "universe_size": dist.universe_size, "outcomes": outcomes}
    return payload, [[";".join(map(str, t)), p] for t, p in outcomes], True


def _adversary_flags(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--tuples",
        help='inline distribution like "1,2=1/2;2,3=1/2"',
    )
    group.add_argument(
        "--dist-file", help="JSON file in the format written by `enumerate`"
    )
    sp.add_argument("--universe", type=int, help="universe size (default: max element)")


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
        pairs = data.get("outcomes") if isinstance(data, dict) else None
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list)
            and len(pair) == 2
            and isinstance(pair[0], list)
            and len(pair[0]) > 0
            and all(type(e) is int for e in pair[0])
            and isinstance(pair[1], str)
            for pair in pairs
        ):
            raise ValueError(
                f'{args.dist_file}: expected {{"outcomes": [[[int, ...], "p/q"], ...]}}'
            )
        outcomes = [(tuple(t), parse_frac(p)) for t, p in pairs]
    if not outcomes:
        raise ValueError("the distribution has no outcomes")
    m = len(outcomes[0][0])
    universe = max(t[-1] for t, _ in outcomes) if args.universe is None else args.universe
    return harddist.ExplicitTupleDistribution(
        m=m, universe_size=universe, outcomes=tuple(sorted(outcomes))
    )


def _adversary(args):
    dist = _parse_distribution(args)
    best, f = harddist.adversary_bound_exact(dist, _caps(args))
    payload = {
        "max_probability": frac_str(best),
        "argmax_labels": [f[e] for e in range(1, dist.universe_size + 1)],
        "universe_size": dist.universe_size,
    }
    return payload, None, True


# -- window trees ------------------------------------------------------------


def _prune_flags(sp):
    sp.add_argument("--arity", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--start", type=int, default=1)
    sp.add_argument("--labels", required=True, help="comma-separated labels of the root window")
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--tau", required=True, help='sparsity threshold as "p/q"')


def _prune(args):
    labels = [int(x) for x in args.labels.split(",")]
    spec = windowtree.WindowTreeSpec(
        arity=args.arity, depth=args.depth, start=args.start, length=len(labels)
    )
    tree = windowtree.build_tree(spec, _caps(args))
    f = {args.start + i: v for i, v in enumerate(labels)}
    payload = windowtree.prune(tree, f, args.index, parse_frac(args.tau)).to_json_dict()
    return payload, payload["levels"], True


def _case1_flags(sp):
    sp.add_argument("--instances", type=_int_in(1), default=100)
    sp.add_argument("--max-arity", type=_int_in(2), default=4)
    sp.add_argument("--max-depth", type=_int_in(1), default=2)


def _case1_sweep(args):
    records = []
    for inst in range(args.instances):
        rng = BitSampler(derive_seed(args.seed, inst))
        arity = 2 + rng.choice_index(args.max_arity - 1)
        depth = 1 + rng.choice_index(args.max_depth)
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
        root_density = windowtree.density(tree.window(0, 0), f, index)
        holds = windowtree.case1_inequality_check(result, root_density, delta)
        records.append(
            {
                "instance": inst,
                "arity": arity,
                "depth": depth,
                "tau": frac_str(tau),
                "delta": frac_str(delta),
                "survival": frac_str(survival),
                "root_density": frac_str(root_density),
                "fired": survival <= delta,
                "holds": holds,
                "leaf_identity": result.kept_leaf_fraction == survival,
            }
        )
    all_hold = all(rec["holds"] and rec["leaf_identity"] for rec in records)
    return {"instances": records, "all_hold": all_hold}, records, all_hold


# -- rank indexes ------------------------------------------------------------


def _mmphf_verify_flags(sp):
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--keys", help="comma-separated increasing keys")
    group.add_argument("--keys-file", help="file with a u= header then one key per line")
    sp.add_argument("--u", type=int, help="universe size (with --keys)")


def _mmphf_verify(args):
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
    answers = [[e, mmphf.query(idx, e)] for e in keys.elements]
    rows = [[e, r, r == j] for j, (e, r) in enumerate(answers)]
    ok = all(row[2] for row in rows)
    payload = {
        "scheme": args.scheme,
        "n": keys.n,
        "u": keys.u,
        "payload_bits": idx.size_bits,
        "total_bits": idx.total_bits,
        "answers": answers,
        "ok": ok,
    }
    return payload, rows, ok


def _bound_report_flags(sp):
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)


def _bound_report(args):
    report = mmphf.bound_report(
        args.scheme, graphs.ConflictSpec(args.m, args.M), seed=args.seed, caps=_caps(args)
    )
    return report.to_json_dict(), None, True


def _sx_flags(sp):
    sp.add_argument("--scheme", choices=mmphf.SCHEMES, default=mmphf.SCHEME_EXPLICIT_SET)
    sp.add_argument("--max-d", type=_int_in(1), default=10)


def _sx_roundtrip(args):
    # round d builds 2^d indexes, so the sweep builds 2^(max_d+1) - 2
    _caps(args).check("max_outcomes", (1 << args.max_d + 1) - 2)
    records = [
        mmphf.bitstring_roundtrip(args.scheme, d, args.seed) for d in range(1, args.max_d + 1)
    ]
    ok_all = all(rec["ok"] for rec in records)
    return {"scheme": args.scheme, "rounds": records, "ok": ok_all}, records, ok_all


def _parameterize_flags(sp):
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--u", required=True, help='integer or tower like "2^2^64"')


def _parameterize(args):
    fp = mmphf.parameterize(args.n, parse_tower(args.u), _caps(args))
    return fp.to_json_dict(), None, True


# name -> (help, CSV columns, flags, body); bodies return (payload, rows, ok),
# where rows is None for the payload's key/value pairs and a str payload is
# written raw.
COMMANDS = {
    "graph": ("build a graph family member and export it", KV, _graph_export_flags, _graph),
    "chi": ("exact chromatic number with a proper coloring witness", KV, _graph_flags, _chi),
    "chif": (
        "exact fractional chromatic number with primal/dual certificates",
        KV, _chif_flags, _chif,
    ),
    "sample": (
        "draw hard-distribution traces and verify their invariants",
        ("trial", "seed", "verified", "y", "z", "x", "s"), _sample_flags, _sample,
    ),
    "enumerate": (
        "exact law of the tuple distribution at tiny parameters",
        ("tuple", "probability"), _params_flags, _enumerate,
    ),
    "adversary": (
        "exhaustive best-response label function on an explicit tuple distribution",
        KV, _adversary_flags, _adversary,
    ),
    "prune": (
        "prune a window tree for a label sequence and report level fractions",
        ("level", "total", "kept", "directly_pruned", "indirectly_pruned", "p"),
        _prune_flags, _prune,
    ),
    "case1-sweep": (
        "randomized sweep of the sparse-case density bound and leaf identity",
        ("instance", "arity", "depth", "tau", "delta", "survival", "root_density",
         "fired", "holds", "leaf_identity"),
        _case1_flags, _case1_sweep,
    ),
    "mmphf-verify": (
        "build an index and verify member ranks are 0..n-1",
        ("element", "rank", "ok"), _mmphf_verify_flags, _mmphf_verify,
    ),
    "bound-report": (
        "measured index sizes against exact chi and chi_f on a conflict graph",
        KV, _bound_report_flags, _bound_report,
    ),
    "sx-roundtrip": (
        "round-trip every bit string up to a length through anchored key sets",
        ("d", "strings", "distinct_payloads", "max_payload_bits", "ok"), _sx_flags, _sx_roundtrip,
    ),
    "parameterize": (
        "exact block-decomposition parameters for (n, u); u may be a 2^2^... tower",
        KV, _parameterize_flags, _parameterize,
    ),
}


if __name__ == "__main__":
    raise SystemExit(main())
