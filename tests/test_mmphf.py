import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from mmphf_lab import mmphf
from mmphf_lab.caps import EnumerationCaps
from mmphf_lab.errors import CorruptIndexError, EnumerationCapExceeded, SchemeViolationError
from mmphf_lab.graphs import ConflictSpec, build_graph
from mmphf_lab.mmphf import (
    SCHEME_BROKEN,
    SCHEME_EXPLICIT_SET,
    SCHEME_RANK_MAP,
    SCHEMES,
    BitString,
    KeySet,
    MmphfIndex,
    bound_report,
    build,
    decode_bitstring,
    encode_bitstring,
    extract_coloring,
    keyset_from_text,
    parameterize,
    query,
    size_lower_bound_bits,
)
from mmphf_lab.rng import BitSampler, hash64
from mmphf_lab.tower import Pow2, ScaledPow2, parse_tower, pow2, tower_cmp

from oracles import reference_subset_rank, reference_subset_unrank, reference_try_place


EXAMPLE = KeySet(elements=(2, 3, 6, 7), u=8)


class TestKeySet:
    def test_validation(self):
        with pytest.raises(ValueError):
            KeySet(elements=(), u=4)
        with pytest.raises(ValueError):
            KeySet(elements=(3, 3), u=4)
        with pytest.raises(ValueError):
            KeySet(elements=(1, 9), u=8)

    def test_rank(self):
        assert [EXAMPLE.rank(q) for q in (2, 3, 6, 7)] == [0, 1, 2, 3]
        assert EXAMPLE.rank(5) == 2

    def test_text_parse(self):
        assert keyset_from_text("u=8\n2\n3\n6\n7\n") == EXAMPLE
        assert keyset_from_text("  u=8\n\n2\n 3\n6\n7") == EXAMPLE

    def test_text_header_required(self):
        with pytest.raises(ValueError):
            keyset_from_text("1\n2\n")


class TestSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_member_queries_exact(self, scheme):
        idx = build(scheme, EXAMPLE, seed=9)
        assert [query(idx, e) for e in EXAMPLE.elements] == [0, 1, 2, 3]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monotone_minimal_on_random_sets(self, scheme):
        rng = BitSampler(31337)
        for _ in range(30):
            u = 8 + rng.choice_index(40)
            n = 1 + rng.choice_index(min(u, 12))
            pool = sorted(set(1 + rng.choice_index(u) for _ in range(n)))
            keys = KeySet(elements=tuple(pool), u=u)
            idx = build(scheme, keys, seed=rng.choice_index(1 << 32))
            assert [query(idx, e) for e in keys.elements] == list(range(keys.n))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nonmember_in_range(self, scheme):
        idx = build(scheme, EXAMPLE, seed=0)
        for q in (1, 4, 5, 8):
            assert 0 <= query(idx, q) <= 3

    def test_query_outside_universe(self):
        idx = build(SCHEME_EXPLICIT_SET, EXAMPLE)
        with pytest.raises(ValueError):
            query(idx, 0)
        with pytest.raises(ValueError):
            query(idx, 9)

    def test_explicit_set_payload_is_combinatorial_bits(self):
        idx = build(SCHEME_EXPLICIT_SET, KeySet(elements=(2, 3), u=8))
        assert idx.size_bits == math.ceil(math.log2(math.comb(8, 2))) == 5
        assert idx.total_bits == idx.size_bits + idx.header_bits

    def test_rank_map_seeds_change_payload_not_answers(self):
        i1 = build(SCHEME_RANK_MAP, EXAMPLE, seed=1)
        i2 = build(SCHEME_RANK_MAP, EXAMPLE, seed=2)
        assert [query(i1, e) for e in EXAMPLE.elements] == [
            query(i2, e) for e in EXAMPLE.elements
        ]

    def test_rank_map_size_regime(self):
        keys = KeySet(elements=tuple(range(2, 42, 2)), u=64)  # n = 20
        idx = build(SCHEME_RANK_MAP, keys, seed=3)
        # displacement widths and rank slots are O(n log n) bits
        assert idx.size_bits <= 40 * (keys.n.bit_length() + 6)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            build("nope", EXAMPLE)


def _count_decodes(monkeypatch):
    """Count calls of the explicit-set decoder; returns the count getter."""
    calls = []
    unrank = mmphf._subset_unrank

    def counted(*args):
        calls.append(args)
        return unrank(*args)

    monkeypatch.setattr(mmphf, "_subset_unrank", counted)
    return lambda: len(calls)


def _random_keys(seed, n, u):
    return KeySet(tuple(sorted(random.Random(f"{seed}/{n}/{u}").sample(range(1, u + 1), n))), u)


class TestRankMapPlacement:
    def test_matches_the_four_n_squared_reference(self):
        # the reference probes 4n^2 displacements per failing bucket, so the
        # sizes past 16 take fewer seeds
        outcomes = []
        largest_bucket = 0
        cases = [(n, range(40)) for n in range(1, 17)] + [(n, range(4)) for n in (24, 32, 48, 64)]
        for n, seeds in cases:
            for seed in seeds:
                keys = _random_keys(seed, n, 8 * n)
                for attempt in range(4):
                    placed = mmphf._try_place(keys, seed, attempt)
                    assert placed == reference_try_place(keys, seed, attempt), (n, seed, attempt)
                    outcomes.append(placed)
                    if placed is not None:
                        salt = seed ^ (attempt * 0x9E3779B97F4A7C15)
                        sizes = Counter(hash64(e, salt, salt=1) % n for e in keys.elements)
                        largest_bucket = max(largest_bucket, *sizes.values())
        assert None in outcomes
        assert largest_bucket >= 2

    def test_1024_keys_over_2_to_the_20(self):
        keys = _random_keys(0, 1024, 1 << 20)
        idx = build(SCHEME_RANK_MAP, keys, seed=0)
        assert [query(idx, e) for e in keys.elements] == list(range(keys.n))


class TestSubsetCodec:
    def test_equal_to_the_reference_for_u_up_to_12(self):
        for u in range(13):
            for n in range(u + 1):
                # combinations() lists the n-subsets in lexicographic order
                for position, subset in enumerate(combinations(range(1, u + 1), n)):
                    rank = mmphf._subset_rank(subset, u)
                    assert rank == reference_subset_rank(subset, u) == position, (subset, u)
                    decoded = tuple(mmphf._subset_unrank(rank, n, u))
                    assert decoded == reference_subset_unrank(rank, n, u) == subset

    def test_stopped_query_equals_full_decode_for_u_up_to_10(self):
        for u in range(1, 11):
            for n in range(1, u + 1):
                for subset in combinations(range(1, u + 1), n):
                    idx = build(SCHEME_EXPLICIT_SET, KeySet(subset, u))
                    elements = reference_subset_unrank(idx.payload.value, n, u)
                    for q in range(1, u + 1):
                        assert query(idx, q) == min(bisect_left(elements, q), n - 1), (subset, q)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 10**6).flatmap(
            lambda u: st.tuples(
                st.just(u),
                st.lists(st.integers(1, u), min_size=1, max_size=40, unique=True),
                st.integers(1, u),
            )
        )
    )
    def test_roundtrip_up_to_a_million(self, case):
        u, elements, q = case
        elements = tuple(sorted(elements))
        n = len(elements)
        rank = mmphf._subset_rank(elements, u)
        assert 0 <= rank < math.comb(u, n)
        assert tuple(mmphf._subset_unrank(rank, n, u)) == elements
        idx = build(SCHEME_EXPLICIT_SET, KeySet(elements, u))
        assert [query(idx, e) for e in elements] == list(range(n))
        assert query(idx, q) == min(bisect_left(elements, q), n - 1)

    def test_roundtrip_at_u_2_to_the_64_minus_1(self):
        u = 2**64 - 1
        spread = tuple(1 + i * (u // 40) for i in range(40))
        for elements in [(5, 18446744073709551000), (1,), (u,), (1, 2, 3, u), (u - 2, u - 1, u),
                         spread]:
            keys = KeySet(elements, u)
            idx = build(SCHEME_EXPLICIT_SET, keys)
            assert idx.size_bits == (math.comb(u, keys.n) - 1).bit_length()
            assert tuple(mmphf._subset_unrank(idx.payload.value, keys.n, u)) == elements
            assert [query(idx, e) for e in elements] == list(range(keys.n))
            assert query(idx, 2**63) == min(bisect_left(elements, 2**63), keys.n - 1)

    def test_payload_not_below_the_subset_count_is_corrupt(self, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        u, n = 8, 3  # C(8, 3) = 56 fits 6 bits, so payloads 56..63 name no subset
        for value in (56, 63):
            idx = MmphfIndex(SCHEME_EXPLICIT_SET, n, u, None, BitString(value, 6))
            for _ in range(2):  # a failed decode is not cached
                with pytest.raises(CorruptIndexError):
                    query(idx, 1)
        assert decodes() == 4

    def test_one_decode_per_index(self, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        keys = _random_keys(7, 50, 10**6)
        idx = build(SCHEME_EXPLICIT_SET, keys)
        assert [query(idx, e) for e in keys.elements] == list(range(keys.n))
        assert [query(idx, q) for q in (1, 10**6)] == [0, keys.n - 1]
        assert decodes() == 1
        # an equal index built again holds its own decode
        again = build(SCHEME_EXPLICIT_SET, keys)
        assert again == idx and again is not idx
        assert query(again, keys.elements[3]) == 3
        assert decodes() == 2

    def test_bitstring_decodes_once(self, monkeypatch):
        decodes = _count_decodes(monkeypatch)
        bits = (1, 0, 0, 1, 1, 0, 1, 0, 1, 1)
        idx = build(SCHEME_EXPLICIT_SET, encode_bitstring(bits))
        assert decode_bitstring(idx, len(bits)) == bits
        assert decodes() == 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_universe_must_fit_the_64_bit_header(self, scheme):
        build(scheme, KeySet((1, 5, 2**64 - 1), 2**64 - 1))
        with pytest.raises(ValueError, match="64-bit header"):
            build(scheme, KeySet((1, 5, 2**64 - 1), 2**64))


class TestBitString:
    def test_properties(self):
        b = BitString(0b101, 3)
        assert b.to01() == "101"
        assert b.slice_int(0, 1) == 1 and b.slice_int(1, 2) == 0b01

    def test_validation(self):
        with pytest.raises(ValueError):
            BitString(8, 3)


class TestEncodeDecode:
    def test_encode_example(self):
        assert encode_bitstring((1, 0)).elements == (2, 3, 6, 7)

    def test_encode_all_zeros(self):
        ks = encode_bitstring((0, 0, 0))
        assert ks.elements == (3, 4, 6, 7, 9, 10)
        assert [ks.rank(3 * i) for i in (1, 2, 3)] == [0, 2, 4]

    def test_encode_all_ones(self):
        ks = encode_bitstring((1, 1, 1))
        assert ks.elements == (2, 3, 5, 6, 8, 9)
        assert [ks.rank(3 * i) for i in (1, 2, 3)] == [1, 3, 5]

    def test_anchor_rank_formula(self):
        for bits in iproduct((0, 1), repeat=4):
            ks = encode_bitstring(bits)
            for i, b in enumerate(bits, start=1):
                assert ks.rank(3 * i) == 2 * (i - 1) + b

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_roundtrip_small(self, scheme):
        for d in range(1, 7):
            for bits in iproduct((0, 1), repeat=d):
                idx = build(scheme, encode_bitstring(bits), seed=5)
                assert decode_bitstring(idx, d) == bits

    def test_corrupt_index_detected(self):
        bad = MmphfIndex(SCHEME_BROKEN, 4, 7, None, BitString(0, 1))
        with pytest.raises(CorruptIndexError):
            decode_bitstring(bad, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_bitstring(())


class TestExtractColoring:
    def test_explicit_set_injective_on_conflict_2_4(self):
        colors = extract_coloring(SCHEME_EXPLICIT_SET, build_graph(ConflictSpec(2, 4)))
        assert len(set(colors.values())) == 6

    def test_rank_map_proper_on_conflict_2_8(self):
        colors = extract_coloring(SCHEME_RANK_MAP, build_graph(ConflictSpec(2, 8)), seed=11)
        assert len(colors) == 28

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "m,M", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6)]
    )
    def test_proper_coloring_sweep(self, scheme, m, M):
        # extract_coloring raises on any monochromatic edge, so returning at
        # all certifies a proper coloring of the whole graph
        colors = extract_coloring(scheme, build_graph(ConflictSpec(m, M)), seed=29)
        assert len(colors) == math.comb(M, m)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_offset_graph_takes_u_from_its_vertices(self, scheme):
        # the largest element of conflict(2, 6, offset=9) is offset + M = 15
        graph = build_graph(ConflictSpec(2, 6, offset=9))
        colors = extract_coloring(scheme, graph, seed=3)
        assert colors == {
            v: build(scheme, KeySet(elements=v, u=15), seed=3).payload for v in graph.vertices
        }

    def test_broken_scheme_caught(self):
        with pytest.raises(SchemeViolationError):
            extract_coloring(SCHEME_BROKEN, build_graph(ConflictSpec(2, 4)))

    def test_broken_scheme_names_first_edge(self):
        # the first edge in canonical order, as demo 05 prints it
        with pytest.raises(SchemeViolationError) as exc:
            extract_coloring(SCHEME_BROKEN, build_graph(ConflictSpec(2, 8)))
        assert str(exc.value) == (
            "scheme 'broken-constant' colored adjacent vertices (1, 2) and (2, 3) identically"
        )


class TestBoundReport:
    def test_conflict_2_4_explicit_set(self):
        rep = bound_report(SCHEME_EXPLICIT_SET, ConflictSpec(2, 4))
        assert rep.chi == 2 and rep.chi_f == 2
        assert rep.lower_bound_bits == -0.5
        stats = rep.schemes[SCHEME_EXPLICIT_SET]
        assert stats.distinct == 6 and stats.distinct >= rep.chi

    def test_hypothetical_formula(self):
        assert size_lower_bound_bits(Fraction(16)) == 1.0

    def test_counting_chain_on_conflict_2_8(self):
        for scheme in SCHEMES:
            rep = bound_report(scheme, ConflictSpec(2, 8), seed=2)
            stats = rep.schemes[scheme]
            assert stats.distinct >= rep.chi >= rep.chi_f
            assert stats.max_bits >= stats.mean_bits

    def test_json(self):
        rep = bound_report(SCHEME_EXPLICIT_SET, ConflictSpec(2, 4))
        data = rep.to_json_dict()
        assert data["chi_f"] == "2/1"
        assert SCHEME_EXPLICIT_SET in data["schemes"]


class TestParameterize:
    def test_worked_example(self):
        fp = parameterize(1024, parse_tower("2^2^64"))
        assert fp.m == 2 and fp.k == 512
        assert fp.u_prime == ScaledPow2(512, 64)  # 512 * 2^64 = 2^73
        assert fp.u_prime_le_u and fp.m_le_sqrt_n

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            parameterize(1, pow2(100))
        with pytest.raises(ValueError):
            parameterize(16, 3)  # log2 log2 u < 1

    def test_m_monotone_in_u(self):
        ms = [
            parameterize(10**6, Pow2(Pow2(b))).m
            for b in (6, 64, 730, 4100, 20000)
        ]
        assert ms == sorted(ms)
        assert ms[0] >= 1

    def test_sqrt_check_within_supported_range(self):
        # u <= 2^(n^(n^2+n)) keeps m <= sqrt(n); sample exact cases
        for n in (4, 8, 16, 32):
            exponent = n ** (n * n + n)
            fp = parameterize(n, pow2(exponent))
            assert fp.m_le_sqrt_n

    def test_u_prime_flag_exact_boundary(self):
        fp = parameterize(4, pow2(pow2(64)))
        # m = 2, k = 2, u' = 2 * 2^64 = 2^65 <= 2^(2^64)
        assert fp.m == 2 and fp.k == 2
        assert fp.u_prime_le_u

    def test_json(self):
        data = parameterize(1024, parse_tower("2^2^64")).to_json_dict()
        assert data["m"] == 2 and data["u_prime"] == "512*2^64"

    def test_exponent_bits_cap_boundary(self):
        # m = 2: the bound on the bits of 2^(2^2+2) is (4+2) * 2 = 12
        u = parse_tower("2^2^64")
        assert parameterize(1024, u, EnumerationCaps(max_exponent_bits=12)).m == 2
        with pytest.raises(EnumerationCapExceeded) as exc:
            parameterize(1024, u, EnumerationCaps(max_exponent_bits=11))
        assert (exc.value.cap_name, exc.value.required) == ("max_exponent_bits", 12)

    def test_exponent_bits_bound_holds(self):
        for m in (1, 2, 3, 7, 8, 100, 127, 128):
            assert (m ** (m * m + m)).bit_length() <= (m * m + m) * m.bit_length()

    def test_default_cap_admits_m_100(self):
        # the widest exponent the tests and demos build; m = 10^6 runs in a
        # bounded child in test_cli.py::TestAstronomicalInputs
        fp = parameterize(1000, Pow2(Pow2(100**6)))
        assert fp.m == 100 and fp.u_prime.exponent == 100 ** (100 * 100 + 100)
        with pytest.raises(EnumerationCapExceeded, match="required 70700 > limit 70699"):
            parameterize(1000, Pow2(Pow2(100**6)), EnumerationCaps(max_exponent_bits=70699))

    @pytest.mark.parametrize("n", [2, 3, 5, 64, 99, 100, 1000, 1024])
    def test_bisection_matches_the_counting_loop(self, n):
        universes = [4, 15, 16, 17, 2**64 - 1, 2**64, 2**65, pow2(pow2(64)), pow2(pow2(729)),
                     Pow2(Pow2(100**6 - 1)), Pow2(Pow2(100**6)), Pow2(Pow2(2**64))]
        for u in universes:
            m = 1  # the search before bisection, one m at a time
            while tower_cmp(pow2(pow2((m + 1) ** 6)), u) <= 0:
                m += 1
            if m > n:
                with pytest.raises(ValueError, match=f"m > n = {n}"):
                    parameterize(n, u)
            else:
                assert parameterize(n, u).m == m
