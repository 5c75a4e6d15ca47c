#!/usr/bin/env python3
"""Rank indexes end to end: schemes, encodings, colorings, and bounds.

Builds both index schemes on a small key set, measures their payloads,
spells bit strings into key sets and recovers them from rank queries
alone, extracts proper colorings of a conflict graph from index payloads
(and watches the broken scheme get caught), and evaluates the exact
block-decomposition parameters for tower-sized universes.
"""

from mmphf_lab.errors import SchemeViolationError
from mmphf_lab.graphs import ConflictSpec, build_graph
from mmphf_lab.mmphf import (
    SCHEME_BROKEN,
    SCHEMES,
    KeySet,
    bound_report,
    build,
    decode_bitstring,
    encode_bitstring,
    extract_coloring,
    parameterize,
    query,
)
from mmphf_lab.tower import parse_tower

print("Member queries on S = {2, 3, 6, 7} in [1, 8]")
keys = KeySet(elements=(2, 3, 6, 7), u=8)
for scheme in SCHEMES:
    idx = build(scheme, keys, seed=5)
    answers = [query(idx, e) for e in keys.elements]
    print(f"  {scheme:13s}: answers {answers}, payload {idx.size_bits} bits "
          f"(+{idx.header_bits} header)")

print()
print("Bit strings as key sets: x = 101")
ks = encode_bitstring((1, 0, 1))
print("  S(x) =", ks.elements, "over [1,", ks.u, "]")
idx = build("explicit-set", ks)
print("  recovered:", decode_bitstring(idx, 3))
for d in (4, 8, 10):
    n_distinct = len({
        build("explicit-set", encode_bitstring(tuple((x >> i) & 1 for i in range(d)))).payload
        for x in range(1 << d)
    })
    print(f"  d={d}: {n_distinct} distinct payloads for {1 << d} strings")

print()
print("Payloads properly color conflict(2,8)")
spec = ConflictSpec(2, 8)
graph = build_graph(spec)
for scheme in SCHEMES:
    colors = extract_coloring(scheme, graph, seed=17)
    print(f"  {scheme:13s}: {len(set(colors.values()))} distinct colors "
          f"on {len(colors)} vertices, no monochromatic edge")
try:
    extract_coloring(SCHEME_BROKEN, graph)
except SchemeViolationError as e:
    print(f"  {SCHEME_BROKEN:13s}: caught -> {e}")

print()
print("Counting bound on conflict(2,8)")
rep = bound_report("explicit-set", spec, seed=17)
stats = rep.schemes["explicit-set"]
print(f"  distinct payloads {stats.distinct} >= chi {rep.chi} >= chi_f {rep.chi_f}")
print(f"  size bound from chi_f: {rep.lower_bound_bits:.3f} bits "
      "(vacuous at desk scale, as expected)")

print()
print("Block decomposition for tower universes")
for n, u_text in ((1024, "2^2^64"), (1024, "2^2^730"), (4096, "2^2^15625")):
    fp = parameterize(n, parse_tower(u_text))
    print(f"  n={n}, u={u_text}: m={fp.m}, k={fp.k}, u'={fp.u_prime}, "
          f"u'<=u {fp.u_prime_le_u}, m<=sqrt(n) {fp.m_le_sqrt_n}")
