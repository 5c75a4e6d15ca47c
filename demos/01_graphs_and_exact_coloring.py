#!/usr/bin/env python3
"""Conflict and shift graphs, exact chromatic numbers, and LP certificates.

Walks through the basic objects: builds small conflict graphs, shows the
label-function view of their maximal independent sets, computes exact
chromatic and fractional chromatic numbers with rational certificates,
and exports a DIMACS file for external cross-checking.
"""

from fractions import Fraction

from mmphf_lab.coloring import chromatic_number, fractional_chromatic_number
from mmphf_lab.graphs import (
    ConflictSpec,
    ShiftSpec,
    adjacent,
    bit_indices,
    bron_kerbosch_maximal_sets,
    build_graph,
    independent_set_of,
    to_dimacs,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("Conflict graph on 2-subsets of [1, 4]")
spec = ConflictSpec(2, 4)
g = build_graph(spec)
print(f"vertices ({g.n}):", g.vertices)
print(f"edges ({g.edge_count()}):", [(g.vertices[i], g.vertices[j]) for i, j in g.edges()])
print("(1,3) ~ (3,5) in conflict(2,5)?", adjacent(ConflictSpec(2, 5), (1, 3), (3, 5)))
print("(1,3) ~ (1,5)?", adjacent(ConflictSpec(2, 5), (1, 3), (1, 5)), "(same slot)")

section("Maximal independent sets = label functions")
f = {1: 1, 2: 1, 3: 2, 4: 2}
print("f labels [1,2] -> slot 1, [3,4] -> slot 2")
print("I(f) =", sorted(independent_set_of(f, spec)))
sets = [
    frozenset(g.vertices[i] for i in bit_indices(mask))
    for mask in bron_kerbosch_maximal_sets(g.adj_bits)
]
print(f"all {len(sets)} maximal independent sets:")
for s in sorted(sets, key=sorted):
    print("  ", sorted(s))

section("Exact coloring data")
chi, witness = chromatic_number(g)
report = fractional_chromatic_number(g)
print("chi =", chi, "witness =", witness)
print("chi_f =", report.chi_f)
print("primal certificate:", report.primal.to_json_dict())
print("dual certificate:  ", report.dual.to_json_dict())
assert report.primal.value == report.dual.value == Fraction(2)

section("Shift graphs sit inside conflict graphs")
for u in (4, 6, 8):
    sg = build_graph(ShiftSpec(2, u))
    chi, _ = chromatic_number(sg)
    chif = fractional_chromatic_number(sg, include_chi=False).chi_f
    print(f"shift(2,{u}): {sg.n} vertices, {sg.edge_count()} edges, "
          f"chi = {chi}, chi_f = {chif}")

section("DIMACS export (first lines)")
print("\n".join(to_dimacs(g, comment="conflict(2,4)").splitlines()[:5]))
