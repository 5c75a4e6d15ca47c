"""Independent checks of mmphf-lab outputs.

Every checker takes the parsed JSON artifact of one subcommand (or the raw
text, for DIMACS) plus the inputs the benchmark generated, and raises
CheckError when the output is wrong.  None of them calls the package: the
graphs are rebuilt here from their definitions, maximal independent sets
come from networkx, chi_f is cross-checked against HiGHS, and laws,
optima and pruning fractions are recomputed by brute force.
"""

import json
import math
import sys
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
from scipy.optimize import linprog

LP_TOLERANCE = 1e-9


class CheckError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckError(message)


def parse_json(text):
    try:
        return json.loads(text)
    except ValueError as e:
        raise CheckError(f"output is not JSON: {e}") from None


# -- graphs -------------------------------------------------------------------


def build_graph(kind, size, width, offset=0):
    """shift(size, width) or conflict(size, width, offset), canonical vertex order."""
    if kind == "shift":
        vertices = list(combinations(range(1, width + 1), size))

        def adjacent(v, w):
            return v[1:] == w[:-1] or w[1:] == v[:-1]
    else:
        vertices = list(combinations(range(offset + 1, offset + width + 1), size))

        def adjacent(v, w):
            pos = {e: i for i, e in enumerate(v)}
            return any(pos.get(e, j) != j for j, e in enumerate(w))

    g = nx.Graph()
    g.add_nodes_from(range(len(vertices)))
    for i, j in combinations(range(len(vertices)), 2):
        if adjacent(vertices[i], vertices[j]):
            g.add_edge(i, j)
    return g


def maximal_independent_sets(g):
    return [frozenset(c) for c in nx.find_cliques(nx.complement(g))]


def highs_chi_f(g, mis):
    """Float chi_f from HiGHS over the maximal independent sets."""
    n = g.number_of_nodes()
    a_ub = [[-1.0 if v in s else 0.0 for s in mis] for v in range(n)]
    res = linprog([1.0] * len(mis), A_ub=a_ub, b_ub=[-1.0] * n, bounds=(0, None),
                  method="highs")
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return res.fun


def check_coloring(g, colors, chi, shift_u=None):
    require(len(colors) == g.number_of_nodes(), "coloring length differs from vertex count")
    require(all(0 <= c < chi for c in colors), f"colours outside range({chi})")
    require(len(set(colors)) == chi, f"coloring uses {len(set(colors))} colours, chi={chi}")
    require(all(colors[i] != colors[j] for i, j in g.edges), "coloring is not proper")
    if shift_u is not None:
        expected = (shift_u - 1).bit_length()  # ceil(log2 u)
        require(chi == expected, f"chi(shift(2,{shift_u})) = {chi}, expected {expected}")


def check_chif(p, kind, size, width, offset=0):
    """Certificates of `chif`: feasible primal and dual of equal value chi_f."""
    g = build_graph(kind, size, width, offset)
    n = g.number_of_nodes()
    chi_f = Fraction(p["chi_f"])
    sets = p["primal"]["sets"]
    weights = [Fraction(w) for w in p["primal"]["weights"]]
    require(len(sets) == len(weights), "primal sets and weights differ in length")
    require(all(w >= 0 for w in weights), "negative primal weight")
    for s in sets:
        require(all(0 <= v < n for v in s), "primal set names an unknown vertex")
        require(not any(g.has_edge(a, b) for a, b in combinations(s, 2)),
                f"primal set {s} is not independent")
    cover = [Fraction(0)] * n
    for s, w in zip(sets, weights):
        for v in s:
            cover[v] += w
    require(all(c >= 1 for c in cover), "some vertex is covered less than once")
    require(sum(weights, Fraction(0)) == chi_f, "primal weights do not sum to chi_f")

    dual = {int(v): Fraction(w) for v, w in p["dual"]["weights"].items()}
    require(all(w >= 0 for w in dual.values()), "negative dual weight")
    require(sum(dual.values(), Fraction(0)) == chi_f, "dual weights do not sum to chi_f")
    mis = maximal_independent_sets(g)
    for s in mis:
        require(sum((dual.get(v, 0) for v in s), Fraction(0)) <= 1,
                f"dual puts mass > 1 on independent set {sorted(s)}")
    ref = highs_chi_f(g, mis)
    require(abs(ref - float(chi_f)) <= LP_TOLERANCE, f"chi_f {chi_f} != HiGHS {ref}")

    if "chi" in p:
        chi = p["chi"]
        require(chi >= math.ceil(chi_f), f"chi={chi} below ceil(chi_f)")
        check_coloring(g, p["coloring"], chi, width if kind == "shift" else None)


def check_chi(p, kind, size, width, offset=0):
    g = build_graph(kind, size, width, offset)
    check_coloring(g, p["coloring"], p["chi"], width if kind == "shift" else None)


def check_graph_summary(p, size, u):
    """shift(size, u) has C(u, size) vertices and C(u, size+1) edges."""
    require(p["vertices"] == math.comb(u, size), "vertex count")
    require(p["edges"] == math.comb(u, size + 1), "edge count")


def check_dimacs(text, kind, size, width):
    g = build_graph(kind, size, width)
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("c")]
    header = lines[0].split()
    require(header[:2] == ["p", "edge"], "missing DIMACS problem line")
    require(int(header[2]) == g.number_of_nodes(), "DIMACS vertex count")
    require(int(header[3]) == g.number_of_edges() == len(lines) - 1, "DIMACS edge count")
    edges = {tuple(sorted((int(a) - 1, int(b) - 1))) for _, a, b in (ln.split() for ln in lines[1:])}
    require(edges == {tuple(sorted(e)) for e in g.edges}, "DIMACS edges differ")


# -- rank indexes -------------------------------------------------------------


def check_mmphf_verify(p, scheme, keys, u):
    """Every answer is the bisect rank of its key; explicit-set size is exact."""
    require(p["scheme"] == scheme and p["n"] == len(keys) and p["u"] == u, "echoed inputs")
    require([e for e, _ in p["answers"]] == list(keys), "answers name other keys")
    for e, r in p["answers"]:
        require(r == bisect_left(keys, e), f"rank of {e} is {r}, expected {bisect_left(keys, e)}")
    require(p["ok"] is True, "index reports a failed query")
    if scheme == "explicit-set":
        bits = (math.comb(u, len(keys)) - 1).bit_length()
        require(p["payload_bits"] == bits, f"payload_bits {p['payload_bits']} != {bits}")


def check_sx_roundtrip(p, scheme, max_d):
    require(p["scheme"] == scheme, "scheme")
    require([r["d"] for r in p["rounds"]] == list(range(1, max_d + 1)), "round lengths")
    for r in p["rounds"]:
        d = r["d"]
        require(r["strings"] == 1 << d, f"d={d}: strings")
        require(r["distinct_payloads"] == 1 << d, f"d={d}: distinct payloads")
        require(r["max_payload_bits"] >= d, f"d={d}: payload shorter than d bits")
        require(r["ok"] is True, f"d={d}: round trip failed")
    require(p["ok"] is True, "round trip failed")


# -- hard distribution, window trees, parameters -------------------------------


@contextmanager
def long_int_strings():
    """Allow int() on any decimal length, restoring the interpreter's limit after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def check_sample(p, m, trials):
    """Recheck every trace's recurrences from the emitted decimals."""
    with long_int_strings():
        k = m**m
        s0 = k ** (m + 1)
        require(p["params"] == {"m": m, "k": k, "s0": s0}, "canonical parameters")
        traces = p["traces"]
        require([t["trial"] for t in traces] == list(range(trials)), "trial numbering")
        require(len({t["seed"] for t in traces}) == trials, "trials share a seed")
        for t in traces:
            require(t["verified"] is True, f"trial {t['trial']} not verified")
            its = t["iterations"]
            require(len(its) == m, "iteration count")
            x, s = 0, s0
            for i, it in enumerate(its, start=1):
                y, z, xi, si = (int(it[f]) for f in ("y", "z", "x", "s"))
                require(1 <= z <= k - 1, f"z_{i} out of range")
                require(1 <= y and (y - 1).bit_length() <= s, f"y_{i} outside [1, 2^s]")
                require(xi == x + y, f"x_{i} != x_{i-1} + y_{i}")
                require(si == s - k ** (m - i + 1) * z, f"s_{i} recurrence")
                x, s = xi, si
            require(s >= 0, "final exponent negative")


def brute_force_law(m, k, s0):
    law = {}

    def rec(i, x, s, prob, prefix):
        if i > m:
            law[prefix] = law.get(prefix, 0) + prob
            return
        step = k ** (m - i + 1)
        for z in range(1, k):
            for y in range(1, 2**s + 1):
                rec(i + 1, x + y, s - step * z, prob / (2**s * (k - 1)), prefix + (x + y,))

    rec(1, 0, s0, Fraction(1), ())
    return law


def check_enumerate(p, m, k, s0):
    law = brute_force_law(m, k, s0)
    got = {tuple(t): Fraction(q) for t, q in p["outcomes"]}
    require(len(got) == len(p["outcomes"]), "duplicate outcomes")
    require(got == law, "law differs from brute force")
    require(p["m"] == m and p["universe_size"] == max(t[-1] for t in law), "universe size")


def label_mass(outcomes, f):
    return sum((q for t, q in outcomes if all(f[e] == i + 1 for i, e in enumerate(t))), Fraction(0))


def check_adversary(p, outcomes):
    """Best response by brute force over every labelling of the support."""
    m = len(outcomes[0][0])
    elems = sorted({e for t, _ in outcomes for e in t})
    best = max(label_mass(outcomes, dict(zip(elems, labels)))
               for labels in product(range(1, m + 1), repeat=len(elems)))
    require(Fraction(p["max_probability"]) == best, f"optimum {p['max_probability']} != {best}")
    universe = max(elems)
    require(p["universe_size"] == universe, "universe size")
    f = dict(enumerate(p["argmax_labels"], start=1))
    require(len(f) == universe and label_mass(outcomes, f) == best, "argmax does not attain it")


def check_prune(p, arity, depth, labels, index, tau):
    """Recompute the top-down pruning; prod(1 - p_l) is the kept-leaf fraction."""
    tau = Fraction(tau)
    kept_prev = [True]
    levels = p["levels"]
    require(len(levels) == depth + 1, "level count")
    survival = Fraction(1)
    for level, row in enumerate(levels):
        width = len(labels) // arity**level
        kept, direct, indirect = [], 0, 0
        for idx in range(arity**level):
            if not kept_prev[idx // arity]:
                kept.append(False)
                indirect += 1
                continue
            window = labels[idx * width:(idx + 1) * width]
            sparse = Fraction(window.count(index), width) <= tau
            kept.append(not sparse)
            direct += sparse
        candidates = len(kept) - indirect
        pl = Fraction(direct, candidates) if candidates else Fraction(0)
        require(row == {"level": level, "total": len(kept), "kept": sum(kept),
                        "directly_pruned": direct, "indirectly_pruned": indirect,
                        "p": f"{pl.numerator}/{pl.denominator}"}, f"level {level} differs")
        survival *= 1 - Fraction(row["p"])
        kept_prev = kept
    last = levels[-1]
    require(survival == Fraction(last["kept"], last["total"]), "prod(1 - p_l) != kept-leaf fraction")


def check_case1_sweep(p, instances):
    recs = p["instances"]
    require([r["instance"] for r in recs] == list(range(instances)), "instance numbering")
    for r in recs:
        survival, delta, tau = (Fraction(r[f]) for f in ("survival", "delta", "tau"))
        require(r["fired"] == (survival <= delta), f"instance {r['instance']}: fired flag")
        if survival <= delta:
            require(Fraction(r["root_density"]) <= delta + tau,
                    f"instance {r['instance']}: density bound violated")
        require(r["holds"] is True and r["leaf_identity"] is True,
                f"instance {r['instance']}: reported failure")
    require(p["all_hold"] is True, "all_hold is false")


def check_bound_report(p, scheme, m, width):
    g = build_graph("conflict", m, width)
    chi_f = Fraction(p["chi_f"])
    require(abs(highs_chi_f(g, maximal_independent_sets(g)) - float(chi_f)) <= LP_TOLERANCE,
            "chi_f differs from HiGHS")
    stats = p["schemes"][scheme]
    require(stats["distinct"] >= p["chi"] >= math.ceil(chi_f), "distinct >= chi >= chi_f fails")
    require(abs(p["lower_bound_bits"] - (math.log2(chi_f) - 2) / 2) <= 1e-12, "size bound")
    if scheme == "explicit-set":
        require(stats["max_bits"] == (math.comb(width, m) - 1).bit_length(), "explicit-set size")


def check_parameterize(p, n, tower_exponent):
    """u = 2^(2^E): m is the largest with m^6 <= E, i.e. 2^2^(m^6) <= u < 2^2^((m+1)^6)."""
    e = tower_exponent
    m = next(c for c in range(1, e + 2) if (c + 1) ** 6 > e)
    k = n // m
    exponent = m ** (m * m + m)
    require(p["n"] == n and p["u"] == f"2^{2**e}", "echoed inputs")
    require(p["m"] == m and p["k"] == k, f"(m, k) = ({p['m']}, {p['k']}), expected ({m}, {k})")
    require(p["u_prime"] == f"{k}*2^{exponent}", "u_prime")
    # k * 2^exponent <= 2^(2^e)  <=>  k <= 2^(2^e - exponent)
    require(p["u_prime_le_u"] == ((k - 1).bit_length() + exponent <= 2**e), "u_prime_le_u")
    require(p["m_le_sqrt_n"] == (m * m <= n), "m_le_sqrt_n")
