from fractions import Fraction

import pytest
from scipy.stats import chisquare

from mmphf_lab.caps import EnumerationCaps
from mmphf_lab.errors import EnumerationCapExceeded
from mmphf_lab.harddist import SamplerParams
from mmphf_lab.rng import BitSampler, derive_seed
from mmphf_lab.tower import Pow2
from mmphf_lab.windowtree import (
    DIRECT,
    INDIRECT,
    KEPT,
    WindowTreeSpec,
    build_tree,
    case1_inequality_check,
    check_leaf_bound,
    density,
    event_no_prune_on_prefix,
    final_window_experiment,
    path_for_position,
    prune,
    sample_path,
)


def tree_2_2():
    return build_tree(WindowTreeSpec(arity=2, depth=2, start=1, length=4))


class TestBuild:
    def test_levels_partition_example(self):
        t = tree_2_2()
        assert [t.window(1, i) for i in range(2)] == [(1, 2), (3, 2)]
        assert [t.window(2, i) for i in range(4)] == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_arity_3_depth_1(self):
        t = build_tree(WindowTreeSpec(arity=3, depth=1, start=10, length=9))
        assert [t.window(1, i) for i in range(3)] == [(10, 3), (13, 3), (16, 3)]

    def test_non_divisible_length_rejected(self):
        with pytest.raises(ValueError):
            WindowTreeSpec(arity=2, depth=2, start=1, length=5)

    def test_root_shorter_than_the_leaf_bound_rejected_without_the_power(self):
        # 100000^(10^9) has about 1.7 * 10^10 bits; the root is refused by bit length
        with pytest.raises(ValueError, match=r"arity\^depth = 100000\^1000000000 times"):
            WindowTreeSpec(arity=100000, depth=10**9, start=1, length=2)

    def test_node_cap_from_the_leaf_bound(self):
        spec = WindowTreeSpec(arity=3, depth=64, start=1, length=3**64)
        with pytest.raises(EnumerationCapExceeded) as exc:
            build_tree(spec, EnumerationCaps(max_vertices=2**63))
        assert exc.value.required == Pow2(64)  # 2^64 <= 3^64 leaves
        with pytest.raises(EnumerationCapExceeded) as exc:
            build_tree(spec, EnumerationCaps(max_vertices=2**100))
        assert exc.value.required == spec.node_count == (3**65 - 1) // 2

    def test_leaf_bound_without_the_power(self):
        # 100000^(10^9) has at least 2^(16 * 10^9) leaves; nothing of its size is built
        with pytest.raises(EnumerationCapExceeded) as exc:
            check_leaf_bound(100000, 10**9)
        assert exc.value.required == Pow2(16 * 10**9)
        # below 2^64 leaves the bound is left to the exact node count
        check_leaf_bound(2, 63)
        check_leaf_bound(3, 64, EnumerationCaps(max_vertices=2**64))

    def test_node_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            build_tree(
                WindowTreeSpec(arity=2, depth=10, start=1, length=1 << 10),
                EnumerationCaps(max_vertices=100),
            )

    @pytest.mark.parametrize("arity,depth,leaf", [(2, 3, 2), (3, 2, 1), (4, 2, 5)])
    def test_partition_property(self, arity, depth, leaf):
        length = leaf * arity**depth
        t = build_tree(WindowTreeSpec(arity=arity, depth=depth, start=7, length=length))
        for level in range(t.levels):
            windows = [t.window(level, i) for i in range(t.level_size(level))]
            # contiguous, ordered, disjoint, union = parent window
            pos = 7
            for (start, ln) in windows:
                assert start == pos
                pos += ln
            assert pos == 7 + length


class TestDensity:
    def test_half(self):
        f = {1: 5, 2: 5, 3: 6, 4: 6}
        assert density((1, 4), f, 5) == Fraction(1, 2)

    def test_absent_index(self):
        f = {e: 1 for e in range(1, 5)}
        assert density((1, 4), f, 9) == 0

    def test_striped(self):
        f = {e: (5 if e % 2 else 6) for e in range(1, 7)}
        assert density((1, 6), f, 5) == Fraction(1, 2)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            density((1, 0), {1: 1}, 1)


class TestPrune:
    def test_worked_example(self):
        t = build_tree(WindowTreeSpec(arity=2, depth=1, start=1, length=4))
        f = {1: 1, 2: 1, 3: 2, 4: 2}
        result = prune(t, f, 1, Fraction(2, 5))
        assert result.marks[0] == [KEPT]
        assert result.marks[1] == [KEPT, DIRECT]
        assert result.p == [Fraction(0), Fraction(1, 2)]

    def test_nothing_pruned_when_saturated(self):
        t = tree_2_2()
        f = {e: 1 for e in range(1, 5)}
        result = prune(t, f, 1, Fraction(9, 10))
        assert all(m == KEPT for row in result.marks for m in row)
        assert result.p == [Fraction(0)] * 3

    def test_root_pruned_when_index_absent(self):
        t = tree_2_2()
        f = {e: 2 for e in range(1, 5)}
        result = prune(t, f, 1, Fraction(1, 2))
        assert result.marks[0] == [DIRECT]
        assert all(m == INDIRECT for row in result.marks[1:] for m in row)
        assert result.p[0] == 1
        assert result.p[1:] == [Fraction(0), Fraction(0)]  # empty denominators

    def test_deterministic(self):
        t = tree_2_2()
        f = {1: 1, 2: 2, 3: 1, 4: 2}
        r1 = prune(t, f, 1, Fraction(1, 3))
        r2 = prune(t, f, 1, Fraction(1, 3))
        assert r1.marks == r2.marks and r1.p == r2.p

    def test_indirect_requires_pruned_ancestor(self):
        t = build_tree(WindowTreeSpec(arity=2, depth=2, start=1, length=8))
        f = {e: (1 if e <= 2 else 2) for e in range(1, 9)}
        result = prune(t, f, 1, Fraction(1, 3))
        for level in range(1, t.levels):
            for idx in range(t.level_size(level)):
                parent_mark = result.marks[level - 1][idx // 2]
                if result.marks[level][idx] == INDIRECT:
                    assert parent_mark != KEPT
                else:
                    assert parent_mark == KEPT

    def test_tau_range_enforced(self):
        t = tree_2_2()
        with pytest.raises(ValueError):
            prune(t, {e: 1 for e in range(1, 5)}, 1, Fraction(1))

    def test_json_export(self):
        t = tree_2_2()
        f = {1: 1, 2: 1, 3: 2, 4: 2}
        data = prune(t, f, 1, Fraction(2, 5)).to_json_dict()
        assert [lvl["level"] for lvl in data["levels"]] == [0, 1, 2]
        assert all(
            set(lvl) >= {"total", "kept", "directly_pruned", "indirectly_pruned", "p"}
            for lvl in data["levels"]
        )


class TestSamplingPath:
    def test_nodes_are_parent_child_chains(self):
        t = build_tree(WindowTreeSpec(arity=3, depth=3, start=1, length=27))
        for seed in range(50):
            path = sample_path(t, seed)
            for level in range(1, t.levels):
                assert path.nodes[level] // 3 == path.nodes[level - 1]
            start, ln = t.window(t.spec.depth, path.nodes[-1])
            assert start <= path.sample < start + ln

    def test_exhaustive_uniform_law(self):
        # every position is reached through exactly one (path, offset) pair,
        # each of probability (1/arity)^depth * 1/leaf; 48-leaf tree
        t = build_tree(WindowTreeSpec(arity=2, depth=4, start=5, length=48))
        leaf_len = t.level_lengths[-1]
        point_prob = Fraction(1, t.leaf_count) * Fraction(1, leaf_len)
        law = {}
        for pos in range(5, 5 + 48):
            path = path_for_position(t, pos)
            for level in range(1, t.levels):
                assert path.nodes[level] // 2 == path.nodes[level - 1]
            law[pos] = law.get(pos, Fraction(0)) + point_prob
        assert all(p == Fraction(1, 48) for p in law.values())
        assert sum(law.values()) == 1

    def test_chi_square_uniformity(self):
        t = build_tree(WindowTreeSpec(arity=2, depth=4, start=1, length=64))
        counts = [0] * 64
        n = 100_000
        for i in range(n):
            counts[sample_path(t, derive_seed(2024, i)).sample - 1] += 1
        stat, p = chisquare(counts)
        assert p > 0.01

    def test_deterministic(self):
        t = tree_2_2()
        assert sample_path(t, 11) == sample_path(t, 11)


class TestEventPrefix:
    def test_nothing_pruned(self):
        t = tree_2_2()
        f = {e: 1 for e in range(1, 5)}
        pruned = prune(t, f, 1, Fraction(1, 2))
        path = sample_path(t, 0)
        assert all(event_no_prune_on_prefix(path, pruned, z) for z in range(t.levels + 1))

    def test_root_pruned(self):
        t = tree_2_2()
        f = {e: 2 for e in range(1, 5)}
        pruned = prune(t, f, 1, Fraction(1, 2))
        path = sample_path(t, 0)
        assert not any(event_no_prune_on_prefix(path, pruned, z) for z in range(1, 4))

    def test_zero_prefix_vacuous(self):
        t = tree_2_2()
        f = {e: 2 for e in range(1, 5)}
        pruned = prune(t, f, 1, Fraction(1, 2))
        assert event_no_prune_on_prefix(sample_path(t, 0), pruned, 0)


class TestCase1:
    def test_worked_example(self):
        t = build_tree(WindowTreeSpec(arity=2, depth=1, start=1, length=4))
        f = {1: 1, 2: 1, 3: 2, 4: 2}
        result = prune(t, f, 1, Fraction(2, 5))
        assert case1_inequality_check(result, density(t.window(0, 0), f, 1), Fraction(1, 2))

    def test_absent_index(self):
        t = tree_2_2()
        f = {e: 2 for e in range(1, 5)}
        result = prune(t, f, 1, Fraction(1, 2))
        for delta in (Fraction(0), Fraction(1, 10), Fraction(1)):
            assert case1_inequality_check(result, density(t.window(0, 0), f, 1), delta)

    def test_randomized_sweep_with_leaf_identity(self):
        rng = BitSampler(99)
        fired = 0
        for inst in range(300):
            arity = 2 + rng.choice_index(3)
            depth = 1 + rng.choice_index(2)
            leaf = 1 + rng.choice_index(3)
            length = leaf * arity**depth
            t = build_tree(WindowTreeSpec(arity=arity, depth=depth, start=1, length=length))
            f = {e: 1 + rng.choice_index(3) for e in range(1, length + 1)}
            tau = Fraction(1 + rng.choice_index(8), 10)
            result = prune(t, f, 1, tau)
            assert result.kept_leaf_fraction == result.survival_product
            delta = min(result.survival_product + Fraction(rng.choice_index(5), 10), Fraction(1))
            root_density = density(t.window(0, 0), f, 1)
            if result.survival_product <= delta:
                fired += 1
                assert root_density <= delta + tau
            assert case1_inequality_check(result, root_density, delta)
        assert fired > 200  # the sweep mostly exercises the non-vacuous case


class TestFinalWindowExperiment:
    def test_saturated_label_never_low_density(self):
        params = SamplerParams(2, 2, 8)
        rep = final_window_experiment(
            params, lambda e: 1, index=1, tau=Fraction(1, 2), trials=200, seed=4
        )
        assert rep.conditioned > 0
        assert rep.low_density == 0 and rep.fraction == 0

    def test_absent_label_empty_conditioning(self):
        params = SamplerParams(2, 2, 8)
        rep = final_window_experiment(
            params, lambda e: 2, index=1, tau=Fraction(1, 2), trials=50, seed=4
        )
        assert rep.conditioned == 0
        assert rep.fraction is None

    def test_striped_adversary_reports_fraction(self):
        params = SamplerParams(2, 2, 8)
        f = {e: (1 if (e // 16) % 2 == 0 else 2) for e in range(1, 16 + 272)}
        rep = final_window_experiment(
            params, f, index=1, tau=Fraction(1, 4), trials=300, seed=9
        )
        assert rep.conditioned + rep.low_density >= 0  # report-only
        assert rep.trials == 300
        assert rep.threshold == Fraction(1)  # default 2/m with m=2

    def test_window_cap(self):
        params = SamplerParams(2, 2, 32)
        with pytest.raises(EnumerationCapExceeded):
            final_window_experiment(
                params, lambda e: 1, index=1, tau=Fraction(1, 2), trials=1, seed=0,
                caps=EnumerationCaps(max_vertices=1000),
            )

    def test_window_cap_of_a_wide_s0_is_checked_on_its_tower(self):
        # 2^(2^20) is never built: the cap sees Pow2(2^20)
        with pytest.raises(EnumerationCapExceeded, match=r"required at least 2\^1048576 > limit"):
            final_window_experiment(
                SamplerParams(1, 2, 1 << 20), lambda e: 1, index=1, tau=Fraction(1, 2),
                trials=1, seed=0,
            )
