import decimal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest

from mmphf_lab import harddist, serialize
from mmphf_lab.caps import EnumerationCaps
from mmphf_lab.cli import main
from mmphf_lab.coloring import evaluate_dual_witness
from mmphf_lab.errors import EnumerationCapExceeded
from mmphf_lab.graphs import ConflictSpec, build_graph, maximal_independent_sets
from mmphf_lab.harddist import (
    ExplicitTupleDistribution,
    MonteCarloReport,
    SamplerParams,
    SampleTrace,
    adversary_bound_exact,
    binomial_ci,
    enumerate_distribution,
    monte_carlo_success,
    sample,
    success_probability,
    verify_trace,
    window_geometry,
)
from mmphf_lab.rng import derive_seed
from mmphf_lab.serialize import int_str
from mmphf_lab.tower import Pow2

from oracles import reference_enumerate_distribution, reference_trace_json


TOY = SamplerParams(2, 2, 8)


class TestParams:
    def test_canonical(self):
        p2 = SamplerParams.canonical(2)
        assert (p2.m, p2.k, p2.s0) == (2, 4, 64)
        p3 = SamplerParams.canonical(3)
        assert (p3.m, p3.k, p3.s0) == (3, 27, 531441)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerParams(2, 1, 100)  # k too small
        with pytest.raises(ValueError):
            SamplerParams(2, 2, 7)  # s0 below k^(m+1)
        with pytest.raises(ValueError):
            SamplerParams.canonical(1)

    def test_step(self):
        assert TOY.step(1) == 4 and TOY.step(2) == 2


class TestWindowGeometry:
    def test_iteration_1_ladder(self):
        g = window_geometry(TOY, 1, 8)
        assert g.sizes == [256, 16, 1]
        assert g.ratio == 16

    def test_iteration_2_ladder(self):
        g = window_geometry(TOY, 2, 4)
        assert g.sizes == [16, 4, 1]
        assert g.ratio == 4

    def test_top_rung_is_full_window(self):
        for (i, s_prev) in [(1, 8), (1, 12), (2, 5)]:
            g = window_geometry(TOY, i, s_prev)
            assert g.sizes[0] == 2**s_prev

    def test_ratio_constant_between_rungs(self):
        g = window_geometry(SamplerParams(3, 3, 81), 2, 30)
        for a, b in zip(g.sizes, g.sizes[1:]):
            assert Fraction(a) / Fraction(b) == g.ratio

    def test_exponent_underflow(self):
        with pytest.raises(ValueError):
            window_geometry(TOY, 1, 3)  # below (k-1)*k^(m-i+1) = 4


class TestSample:
    def test_support_bounds_and_forced_z(self):
        for seed in range(200):
            tr = sample(TOY, seed)
            assert 1 <= tr.xs[0] <= 256
            assert tr.xs[0] + 1 <= tr.xs[1] <= tr.xs[0] + 16
            assert tr.zs[0] == 1 and tr.ss[0] == 4  # k = 2 forces z = 1

    def test_deterministic(self):
        assert sample(TOY, 99) == sample(TOY, 99)
        assert sample(TOY, 99) != sample(TOY, 100)

    def test_windows(self):
        tr = sample(TOY, 5)
        assert tr.window(1) == (1, 256)
        lo, hi = tr.window(2)
        assert lo == tr.xs[0] + 1 and hi - lo + 1 == 16

    def test_canonical_m3_exponent_drops(self):
        p = SamplerParams.canonical(3)
        for seed in range(50):
            tr = sample(p, seed)
            s_prev = p.s0
            for s in tr.ss:
                assert s <= s_prev - 27  # k^(m-i+1) >= k = m^m
                s_prev = s
            assert tr.ss[-1] >= 0

    @pytest.mark.parametrize(
        "params",
        [
            TOY,
            SamplerParams(2, 3, 27),
            SamplerParams(2, 3, 40),
            SamplerParams(2, 2, 12),
            SamplerParams(2, 2, 9),
            SamplerParams(2, 4, 64),
            SamplerParams(2, 5, 125),
            SamplerParams(2, 6, 216),
            SamplerParams(3, 2, 16),
            SamplerParams(3, 2, 20),
            SamplerParams(3, 3, 81),
            SamplerParams(3, 3, 100),
            SamplerParams(3, 4, 256),
            SamplerParams(1, 2, 4),
            SamplerParams(1, 3, 9),
            SamplerParams(1, 5, 25),
            SamplerParams(4, 2, 32),
            SamplerParams(4, 3, 243),
            SamplerParams(5, 2, 64),
            SamplerParams.canonical(2),
        ],
    )
    def test_traces_verify_across_settings(self, params):
        for seed in range(100):
            ok, bad = verify_trace(sample(params, seed))
            assert ok, bad

    def test_json_roundtrip_fields(self):
        tr = sample(TOY, 3)
        data = tr.to_json_dict()
        assert data["seed"] == 3
        assert data["params"] == {"m": 2, "k": 2, "s0": 8}
        assert len(data["iterations"]) == 2
        assert all(set(it) == {"y", "z", "x", "s"} for it in data["iterations"])


class TestTraceJson:
    """`to_json_dict` prints every field as `int_str` does, one wide conversion per draw."""

    @pytest.mark.parametrize("m, seeds", [(2, range(20)), (3, range(4))])
    def test_canonical_traces_match_the_reference(self, m, seeds):
        params = SamplerParams.canonical(m)
        for seed in seeds:
            tr = sample(params, derive_seed(seed, 0))
            assert tr.to_json_dict() == reference_trace_json(tr), seed

    @pytest.mark.parametrize(
        "params",
        [TOY, SamplerParams(1, 2, 4), SamplerParams(3, 3, 81), SamplerParams(4, 2, 32),
         SamplerParams(4, 2, 5000), SamplerParams(5, 2, 64)],
    )
    def test_toy_traces_match_the_reference(self, params):
        for seed in range(30):
            tr = sample(params, seed)
            assert tr.to_json_dict() == reference_trace_json(tr), seed

    @pytest.mark.parametrize(
        "ys, zs, xs, ss",
        [
            ((5, 3), (1, 1), (5, 9), (4, 2)),  # x_2 != x_1 + y_2
            ((5, 3), (1, 1), (6, 9), (4, 2)),  # x_1 != y_1, then x_2 = x_1 + y_2
            ((0, 0), (0, 0), (0, 0), (0, 0)),
            ((5, -5), (1, -1), (5, 0), (-4, 0)),  # a sum that cancels to 0
            ((-7, -3), (-1, 1), (-7, -10), (-2, -3)),
            ((1 << 9000, -(1 << 9000) - 1), (1, 1), (1 << 9000, -1), (4, 2)),
            ((3**9000, 7**4000), (1, 1), (3**9000, 3**9000 + 7**4000 + 1), (4, 2)),
            ((-(3**9000), 3**9000), (1, 1), (-(3**9000), 0), (-(5**5000), 2)),
        ],
        ids=["x-off", "x1-off", "zeros", "cancel", "negative", "wide-negative",
             "wide-x-off", "wide-cancel"],
    )
    def test_hand_built_traces_match_the_reference(self, ys, zs, xs, ss):
        tr = SampleTrace(params=TOY, seed=1, ys=ys, zs=zs, xs=xs, ss=ss)
        assert tr.to_json_dict() == reference_trace_json(tr)

    def test_the_callers_decimal_context_is_not_used(self):
        trs = [sample(SamplerParams.canonical(2), 3),
               SampleTrace(params=TOY, seed=1, ys=(-(3**9000), 3**9000), zs=(1, 1),
                           xs=(-(3**9000), 0), ss=(4, 2))]
        with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)):
            assert [tr.to_json_dict() for tr in trs] == [reference_trace_json(tr) for tr in trs]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_canonical_m3_artifact_has_the_reference_bytes(self, capsys, monkeypatch, fmt):
        argv = ["sample", "--m", "3", "--defaults", "--trials", "2", "--seed", "0",
                "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(SampleTrace, "to_json_dict", reference_trace_json)
        assert main(argv) == 0
        assert out == capsys.readouterr().out

    def test_one_wide_conversion_per_draw(self, monkeypatch):
        widths = []
        real = serialize.exact_decimals

        @contextmanager
        def counted():
            with real() as to_decimal:
                def count(x):
                    widths.append(x.bit_length())
                    return to_decimal(x)
                yield count

        # int_str looks the converter up in serialize, to_json_dict in harddist
        monkeypatch.setattr(serialize, "exact_decimals", counted)
        monkeypatch.setattr(harddist, "exact_decimals", counted)
        tr = sample(SamplerParams.canonical(3), derive_seed(0, 0))
        assert min(y.bit_length() for y in tr.ys) > serialize._LEAF_BITS

        def wide_conversions(to_json):
            widths.clear()
            data = to_json(tr)
            return sum(w > serialize._LEAF_BITS for w in widths), data

        fast, data = wide_conversions(SampleTrace.to_json_dict)
        slow, expected = wide_conversions(reference_trace_json)
        assert data == expected
        assert (fast, slow) == (3, 6)


class TestVerifyTrace:
    def test_monotonicity_violation(self):
        tr = sample(TOY, 0)
        broken = SampleTrace(
            params=TOY, seed=0, ys=(tr.ys[0], 0), zs=tr.zs,
            xs=(tr.xs[0], tr.xs[0]), ss=tr.ss,
        )
        ok, bad = verify_trace(broken)
        assert not ok and any("monotonicity" in b for b in bad)

    def test_step_violation(self):
        tr = sample(TOY, 0)
        broken = SampleTrace(
            params=TOY, seed=0, ys=tr.ys, zs=tr.zs, xs=tr.xs, ss=(8, tr.ss[1]),
        )
        ok, bad = verify_trace(broken)
        assert not ok and any("step" in b for b in bad)

    def test_ladder_violation(self):
        tr = sample(TOY, 0)
        broken = SampleTrace(
            params=TOY, seed=0, ys=tr.ys, zs=tr.zs, xs=tr.xs, ss=(3, tr.ss[1]),
        )
        ok, bad = verify_trace(broken)
        assert not ok

    def test_clean_traces_pass(self):
        for seed in range(50):
            ok, bad = verify_trace(sample(TOY, seed))
            assert ok and bad == []


class TestEnumerate:
    def test_m1_uniform(self):
        dist = enumerate_distribution(SamplerParams(1, 2, 8))
        assert dist.universe_size == 256
        assert len(dist.outcomes) == 256
        assert all(p == Fraction(1, 256) for _, p in dist.outcomes)

    def test_m2_normalization_and_counts(self):
        dist = enumerate_distribution(TOY)
        assert sum(p for _, p in dist.outcomes) == 1
        assert dist.universe_size == 272
        assert all(p == Fraction(1, 4096) or p > Fraction(1, 4096) for _, p in dist.outcomes)

    def test_marginal_of_first_coordinate_uniform(self):
        dist = enumerate_distribution(TOY)
        marg = {}
        for t, p in dist.outcomes:
            marg[t[0]] = marg.get(t[0], Fraction(0)) + p
        assert marg == {x: Fraction(1, 256) for x in range(1, 257)}

    def test_conditional_uniformity_of_second_coordinate(self):
        dist = enumerate_distribution(TOY)
        cond = {}
        for (x1, x2), p in dist.outcomes:
            cond.setdefault(x1, {})[x2] = cond.get(x1, {}).get(x2, Fraction(0)) + p
        for x1, law in cond.items():
            assert set(law) == set(range(x1 + 1, x1 + 17))
            total = sum(law.values())
            assert all(p / total == Fraction(1, 16) for p in law.values())

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_distribution(SamplerParams(2, 2, 16))

    def test_worked_instance_17_512(self):
        # independent oracle: direct double loop over (y1, y2)
        hits = sum(
            1
            for y1 in range(1, 257)
            for y2 in range(1, 17)
            if y1 + y2 >= 257
        )
        assert Fraction(hits, 256 * 16) == Fraction(17, 512)
        dist = enumerate_distribution(TOY)
        f = {e: (1 if e <= 256 else 2) for e in range(1, 273)}
        assert success_probability(dist, f) == Fraction(17, 512)


def _required(params, caps=EnumerationCaps(max_outcomes=1)):
    with pytest.raises(EnumerationCapExceeded) as err:
        reference_enumerate_distribution(params, caps)
    return err.value.required


# (m, k, s0) for m in 1..3, k in 2..4 and the three smallest s0 of each,
# kept where the outcome count fits under the default cap
LADDER_GRID = [
    SamplerParams(m, k, k ** (m + 1) + d) for m in (1, 2, 3) for k in (2, 3, 4) for d in (0, 1, 2)
]
FITS = [p for p in LADDER_GRID if _required(p) <= EnumerationCaps().max_outcomes]


class TestLadderPass:
    """The pass over exponent ladders against the recursion over every (Y, Z) draw."""

    @pytest.mark.parametrize("params", FITS, ids=str)
    def test_same_law_as_the_recursion(self, params):
        assert enumerate_distribution(params) == reference_enumerate_distribution(params)

    def test_twelve_cases_fit(self):
        assert len(FITS) == 12
        assert sorted({(p.m, p.k) for p in FITS}) == [(1, 2), (1, 3), (1, 4), (2, 2)]

    @pytest.mark.parametrize(
        "params",
        [SamplerParams(2, 2, 8), SamplerParams(1, 4, 16), SamplerParams(2, 3, 27),
         SamplerParams(3, 2, 16), SamplerParams(3, 4, 258)],
        ids=str,
    )
    def test_same_count_just_over_the_cap(self, params):
        caps = EnumerationCaps(max_outcomes=_required(params) - 1)
        with pytest.raises(EnumerationCapExceeded) as new:
            enumerate_distribution(params, caps)
        with pytest.raises(EnumerationCapExceeded) as ref:
            reference_enumerate_distribution(params, caps)
        assert new.value.required == ref.value.required
        assert str(new.value) == str(ref.value)

    def test_wide_s0_is_refused_by_its_lower_bound(self):
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_distribution(SamplerParams(1, 2, 1 << 16))
        assert err.value.cap_name == "max_outcomes"
        assert err.value.required == Pow2(1 << 16)
        assert "(required at least 2^65536 > limit 10000000)" in str(err.value)

    def test_count_past_the_digit_limit_is_printed_whole(self):
        # (k-1) * 2^(16000 + 15996): about 9,600 decimal digits
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_distribution(SamplerParams(2, 2, 16000))
        assert err.value.required == 1 << 31996
        assert f"(required {int_str(1 << 31996)} > limit" in str(err.value)


class TestSuccessProbability:
    def test_m1_constant_label(self):
        dist = enumerate_distribution(SamplerParams(1, 2, 4))
        assert success_probability(dist, lambda e: 1) == 1

    def test_everything_labelled_one_fails_m2(self):
        dist = enumerate_distribution(TOY)
        assert success_probability(dist, lambda e: 1) == 0

    def test_permutation_variants_disjoint(self):
        dist = enumerate_distribution(TOY)
        base = {e: (1 if e <= 200 else 2) for e in range(1, 273)}
        total = Fraction(0)
        for perm in permutations((1, 2)):
            f = {e: perm[v - 1] for e, v in base.items()}
            total += success_probability(dist, f)
        assert total <= 1


class TestAdversary:
    def test_point_mass(self):
        dist = ExplicitTupleDistribution(
            m=2, universe_size=6, outcomes=(((2, 5), Fraction(1)),)
        )
        best, f = adversary_bound_exact(dist)
        assert best == 1
        assert f[2] == 1 and f[5] == 2

    def test_conflicting_pair(self):
        dist = ExplicitTupleDistribution(
            m=2,
            universe_size=3,
            outcomes=(((1, 2), Fraction(1, 2)), ((2, 3), Fraction(1, 2))),
        )
        best, _ = adversary_bound_exact(dist)
        assert best == Fraction(1, 2)

    def test_uniform_over_all_pairs_matches_is_mass(self):
        pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        dist = ExplicitTupleDistribution(
            m=2,
            universe_size=5,
            outcomes=tuple((t, Fraction(1, len(pairs))) for t in pairs),
        )
        best, _ = adversary_bound_exact(dist)
        mass = dist.mass()
        spec = ConflictSpec(2, 5)
        best_is = max(
            sum((mass.get(v, Fraction(0)) for v in iset), Fraction(0))
            for iset in maximal_independent_sets(spec)
        )
        assert best == best_is
        # the reciprocal lower-bounds chi_f of the conflict graph
        g = build_graph(spec)
        mu = {g.index[t]: p for t, p in dist.outcomes}
        assert evaluate_dual_witness(g, mu) == 1 / best

    def test_cap(self):
        pairs = tuple(
            ((a, a + 1), Fraction(1, 19)) for a in range(1, 20)
        )
        dist = ExplicitTupleDistribution(m=2, universe_size=20, outcomes=pairs)
        with pytest.raises(EnumerationCapExceeded):
            adversary_bound_exact(dist, EnumerationCaps(max_label_functions=100))

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ExplicitTupleDistribution(
                m=2, universe_size=3, outcomes=(((1, 2), Fraction(1, 2)),)
            )

    def test_increasing_enforced(self):
        with pytest.raises(ValueError):
            ExplicitTupleDistribution(
                m=2, universe_size=3, outcomes=(((2, 2), Fraction(1)),)
            )


class TestMonteCarlo:
    def test_impossible_label_gives_zero(self):
        rep = monte_carlo_success(TOY, lambda e: 1, trials=500, seed=1)
        assert rep.successes == 0 and rep.estimate == 0

    def test_estimate_near_exact_value(self):
        f = {e: (1 if e <= 256 else 2) for e in range(1, 273)}
        rep = monte_carlo_success(TOY, f, trials=20000, seed=7)
        assert rep.ci_low <= 17 / 512 <= rep.ci_high

    def test_deterministic(self):
        a = monte_carlo_success(TOY, lambda e: 2, trials=100, seed=5)
        b = monte_carlo_success(TOY, lambda e: 2, trials=100, seed=5)
        assert a == b

    def test_trials_use_derived_seeds(self):
        f = {e: (1 if e <= 256 else 2) for e in range(1, 273)}
        rep = monte_carlo_success(TOY, f, trials=50, seed=3)
        manual = sum(
            1
            for t in range(50)
            if all(
                f[x] == i + 1
                for i, x in enumerate(sample(TOY, derive_seed(3, t)).xs)
            )
        )
        assert rep.successes == manual

    def test_ci_sanity(self):
        lo, hi = binomial_ci(0, 100)
        assert lo == 0.0 and 0 < hi < 0.1
        lo, hi = binomial_ci(100, 100)
        assert hi == 1.0
        with pytest.raises(ValueError):
            binomial_ci(5, 4)
