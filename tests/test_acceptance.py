"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every exact claim is checked in rational arithmetic at the stated
tolerance; Monte-Carlo claims use fixed seeds and exact binomial
confidence intervals.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest
from scipy.stats import chisquare

from mmphf_lab.coloring import (
    chromatic_number,
    evaluate_dual_witness,
    fractional_chromatic_number,
    is_proper_coloring,
    maximal_sets_bits,
    product_multiplicativity_certificates,
)
from mmphf_lab.errors import SchemeViolationError
from mmphf_lab.graphs import (
    ConflictSpec,
    ShiftSpec,
    adjacent,
    bron_kerbosch_maximal_sets,
    build_graph,
    explicit_graph,
    independent_set_of,
    is_independent_set,
    iter_label_functions,
    maximal_independent_sets,
)
from mmphf_lab.harddist import (
    ExplicitTupleDistribution,
    SamplerParams,
    adversary_bound_exact,
    enumerate_distribution,
    monte_carlo_success,
    sample,
    success_probability,
    verify_trace,
)
from mmphf_lab.mmphf import (
    SCHEME_BROKEN,
    SCHEMES,
    bitstring_roundtrip,
    bound_report,
    extract_coloring,
    parameterize,
)
from mmphf_lab.rng import BitSampler, derive_seed
from mmphf_lab.tower import Pow2, pow2
from mmphf_lab.windowtree import (
    WindowTreeSpec,
    build_tree,
    case1_inequality_check,
    density,
    path_for_position,
    prune,
    sample_path,
)


def _announce(num, name):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


def complete_graph(n):
    return explicit_graph(range(n), combinations(range(n), 2))


def cycle_graph(n):
    return explicit_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


@_announce(1, "exact LP certificates")
def test_01_exact_lp_certificates():
    cases = [(complete_graph(n), Fraction(n)) for n in range(2, 7)]
    cases.append((cycle_graph(5), Fraction(5, 2)))
    cases.append((build_graph(ConflictSpec(2, 4)), Fraction(2)))
    for graph, expected in cases:
        t0 = time.monotonic()
        rep = fractional_chromatic_number(graph, include_chi=False)
        elapsed = time.monotonic() - t0
        assert rep.chi_f == expected
        assert rep.primal.value == rep.dual.value == expected  # exact equality
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"


def product_pool():
    """Criterion 2's factor graphs: four named ones and ten random ones."""
    pool = [
        complete_graph(2),
        complete_graph(3),
        cycle_graph(5),
        build_graph(ConflictSpec(2, 4)),
    ]
    rng = BitSampler(20240)
    for _ in range(10):
        n = 2 + rng.choice_index(5)  # up to 6 vertices
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.choice_index(2) == 0
        ]
        pool.append(explicit_graph(range(n), edges))
    return pool


@_announce(2, "product multiplicativity with composed certificates")
def test_02_product_multiplicativity():
    t0 = time.monotonic()
    pool = product_pool()
    values = [
        fractional_chromatic_number(g, include_chi=False).chi_f for g in pool
    ]
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            val, _, _ = product_multiplicativity_certificates(pool[i], pool[j])
            assert val == values[i] * values[j]  # exact, via verified certificates
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@_announce(3, "label-function bijection for maximal independent sets")
def test_03_label_function_bijection():
    settings = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)]
    for (m, M) in settings:
        spec = ConflictSpec(m, M)
        g = build_graph(spec)
        for f in iter_label_functions(spec.universe, m):
            assert is_independent_set(g, independent_set_of(f, spec))
        via_labels = set(maximal_independent_sets(spec))
        via_generic = {
            frozenset(g.vertices[i] for i in range(g.n) if mask >> i & 1)
            for mask in bron_kerbosch_maximal_sets(g.adj_bits)
        }
        assert via_labels == via_generic
        assert len(via_labels) == len(via_generic)


@_announce(4, "sampler structural suite at canonical parameters")
def test_04_sampler_structural_suite():
    t0 = time.monotonic()
    for m in (2, 3):
        params = SamplerParams.canonical(m)
        if m == 3:
            assert (params.k, params.s0) == (27, 531441)
        for t in range(10_000):
            trace = sample(params, derive_seed(7_000 + m, t))
            ok, violations = verify_trace(trace)
            assert ok, violations
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@_announce(5, "exact distribution oracle and Monte-Carlo agreement")
def test_05_exact_distribution_oracle():
    params = SamplerParams(2, 2, 8)
    dist = enumerate_distribution(params)
    assert sum((p for _, p in dist.outcomes), Fraction(0)) == 1
    # independent recount of the worked adversary instance
    hits = sum(1 for y1 in range(1, 257) for y2 in range(1, 17) if y1 + y2 >= 257)
    assert Fraction(hits, 4096) == Fraction(17, 512)
    f = {e: (1 if e <= 256 else 2) for e in range(1, dist.universe_size + 1)}
    assert success_probability(dist, f) == Fraction(17, 512)
    mc = monte_carlo_success(params, f, trials=100_000, seed=99)
    assert mc.ci_low <= float(Fraction(17, 512)) <= mc.ci_high


@_announce(6, "adversary bound equals maximal-set mass and bounds chi_f")
def test_06_adversary_dual_equivalence():
    rng = BitSampler(606)
    for case in range(20):
        M = 6 + rng.choice_index(5)  # universe size 6..10
        pairs = list(combinations(range(1, M + 1), 2))
        support_size = 3 + rng.choice_index(6)
        support = sorted(
            {pairs[rng.choice_index(len(pairs))] for _ in range(support_size)}
        )
        raw = [1 + rng.choice_index(9) for _ in support]
        total = sum(raw)
        dist = ExplicitTupleDistribution(
            m=2,
            universe_size=M,
            outcomes=tuple((t, Fraction(w, total)) for t, w in zip(support, raw)),
        )
        best, _ = adversary_bound_exact(dist)
        mass = dist.mass()
        spec = ConflictSpec(2, M)
        best_by_sets = max(
            sum((mass.get(v, Fraction(0)) for v in iset), Fraction(0))
            for iset in maximal_independent_sets(spec)
        )
        assert best == best_by_sets  # exact equality of the two enumerators
        induced = explicit_graph(
            support,
            [
                (v, w)
                for (v, w) in combinations(support, 2)
                if adjacent(spec, v, w)
            ],
        )
        g_index = {v: i for i, v in enumerate(induced.vertices)}
        mu = {g_index[t]: p for t, p in dist.outcomes}
        bound = evaluate_dual_witness(induced, mu)
        assert bound == 1 / best
        chi_f = fractional_chromatic_number(induced, include_chi=False).chi_f
        assert bound <= chi_f


@_announce(7, "sparse-case inequality and kept-leaf identity")
def test_07_case1_inequality():
    rng = BitSampler(707)
    fired = 0
    for _ in range(1000):
        arity = 2 + rng.choice_index(3)  # 2..4
        depth = 1 + rng.choice_index(2)  # 2 or 3 levels
        leaf = 1 + rng.choice_index(3)
        length = leaf * arity**depth
        tree = build_tree(WindowTreeSpec(arity=arity, depth=depth, start=1, length=length))
        f = {e: 1 + rng.choice_index(3) for e in range(1, length + 1)}
        tau = Fraction(1 + rng.choice_index(8), 10)
        result = prune(tree, f, 1, tau)
        assert result.kept_leaf_fraction == result.survival_product  # exact identity
        delta = min(result.survival_product + Fraction(rng.choice_index(10), 20), Fraction(1))
        assert result.survival_product <= delta
        fired += 1
        root_density = density(tree.window(0, 0), f, 1)
        assert root_density <= delta + tau
        assert case1_inequality_check(result, root_density, delta)
    assert fired == 1000


@_announce(8, "sampling-path uniformity, exact and statistical")
def test_08_sampling_path_uniformity():
    specs = [
        WindowTreeSpec(arity=2, depth=6, start=1, length=64),
        WindowTreeSpec(arity=4, depth=2, start=11, length=48),
        WindowTreeSpec(arity=3, depth=3, start=5, length=54),
    ]
    for spec in specs:
        tree = build_tree(spec)
        assert tree.leaf_count <= 64
        leaf_len = tree.level_lengths[-1]
        point_prob = Fraction(1, tree.leaf_count * leaf_len)
        law = {}
        for pos in range(spec.start, spec.start + spec.length):
            path = path_for_position(tree, pos)
            for level in range(1, tree.levels):
                assert path.nodes[level] // spec.arity == path.nodes[level - 1]
            law[pos] = law.get(pos, Fraction(0)) + point_prob
        assert all(p == Fraction(1, spec.length) for p in law.values())
        assert sum(law.values()) == 1
    tree = build_tree(WindowTreeSpec(arity=2, depth=4, start=1, length=64))
    counts = [0] * 64
    for i in range(100_000):
        counts[sample_path(tree, derive_seed(808, i)).sample - 1] += 1
    _, pvalue = chisquare(counts)
    assert pvalue > 0.01, f"chi-square p={pvalue:.4f}"


@_announce(9, "index schemes properly color conflict(2,8)")
def test_09_rank_index_pipeline():
    spec = ConflictSpec(2, 8)
    g = build_graph(spec)
    chi, witness = chromatic_number(g)
    assert is_proper_coloring(g, witness)
    chi_f = fractional_chromatic_number(g, include_chi=False).chi_f
    for scheme in SCHEMES:
        colors = extract_coloring(scheme, g, seed=17)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if g.has_edge(i, j):
                    assert colors[g.vertices[i]] != colors[g.vertices[j]]
        rep = bound_report(scheme, spec, seed=17)
        assert rep.schemes[scheme].distinct >= chi >= chi_f
        assert rep.chi == chi and rep.chi_f == chi_f
    with pytest.raises(SchemeViolationError):
        extract_coloring(SCHEME_BROKEN, g)


@_announce(10, "bit-string encoding round-trips and forces index growth")
def test_10_bitstring_encoding():
    total = 0
    for scheme in SCHEMES:
        for d in range(1, 11):
            rec = bitstring_roundtrip(scheme, d, seed=23)
            # index distinguishes all inputs
            assert rec["distinct_payloads"] == rec["strings"] == 1 << d
            assert rec["max_payload_bits"] >= d  # so some payload needs >= d bits
            assert rec["ok"]  # every string decodes back
            total += rec["strings"]
    assert total == 2 * 2046


@_announce(11, "block-decomposition calculator on tower descriptors")
def test_11_parameter_calculator():
    pairs = [
        (8, pow2(20)),
        (16, pow2(64)),
        (64, pow2(4096)),
        (256, pow2(10**6)),
        (4, pow2(4 ** (4 * 4 + 4))),
        (1024, Pow2(1 << 64)),
        (1024, Pow2(Pow2(70))),
        (4096, Pow2(Pow2(80))),
        (10**6, Pow2(Pow2(64))),
        (32, Pow2(32 ** (32 * 32 + 32))),
        (1024, Pow2(Pow2(730))),
        (1024, Pow2(Pow2(4096))),
        (4096, Pow2(Pow2(15625))),
        (10**6, Pow2(Pow2(117649))),
        (1024, Pow2(Pow2(10**7))),
        (10**9, Pow2(Pow2(10**8))),
        (100, pow2(pow2(6))),
        (256, Pow2(Pow2(66))),
        (512, Pow2(Pow2(729))),
        (2048, Pow2(Pow2(11390625))),
    ]
    assert len(pairs) == 20
    for n, u in pairs:
        fp = parameterize(n, u)
        assert fp.m >= 1 and fp.k == n // fp.m
        assert fp.u_prime.mantissa == fp.k
        assert fp.u_prime.exponent == fp.m ** (fp.m * fp.m + fp.m)
        assert fp.u_prime_le_u, f"(n={n}) u' exceeds u"
        assert fp.m_le_sqrt_n, f"(n={n}) m > sqrt(n)"


@_announce(12, "shift-graph contrast: chi grows, chi_f band stays narrow")
def test_12_shift_graph_contrast():
    chis = {}
    chifs = {}
    for u in range(4, 13):
        g = build_graph(ShiftSpec(2, u))
        chis[u], _ = chromatic_number(g)
        chifs[u] = fractional_chromatic_number(g, include_chi=False).chi_f
    report = ", ".join(
        f"u={u}: chi={chis[u]} chi_f={chifs[u]}" for u in range(4, 13)
    )
    print(f"\n  shift(2,u) exact values: {report}")
    values = [chis[u] for u in range(4, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert chis[12] > chis[4]  # strict increase across the range
    band = max(chifs.values()) - min(chifs.values())
    print(f"  chi_f band width: {band} (= {float(band)})")
    assert band < 1, (
        f"chi_f band over u in [4,12] is exactly {band}: "
        f"chi_f(shift(2,4)) = {chifs[4]} and chi_f(shift(2,12)) = {chifs[12]}; "
        "the strict width-< 1 claim is unattainable (see decisions ledger)"
    )
