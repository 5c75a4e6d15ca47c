#!/usr/bin/env python3
"""Fractional chromatic numbers multiply over or-products, with proofs.

The or-product joins two vertices when either coordinate carries an edge.
Composing the factor certificates coordinatewise yields a feasible primal
and a feasible dual of the same value on the product, which squeezes the
product's chi_f to exactly the product of the factor values - no LP ever
runs on the big graph.  A direct solve on the 25-vertex product of two
5-cycles confirms the squeeze numerically.
"""

from itertools import combinations

from mmphf_lab.coloring import (
    compose_product_dual,
    compose_product_primal,
    fractional_chromatic_number,
    product_multiplicativity_certificates,
)
from mmphf_lab.graphs import ConflictSpec, ExplicitSpec, build_graph, explicit_graph, product


def c5():
    return explicit_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])


def complete(n):
    return explicit_graph(range(n), combinations(range(n), 2))


print("chi_f(C5) =", fractional_chromatic_number(c5(), include_chi=False).chi_f)

print()
print("Composed certificates on C5 v C5")
value, primal, dual = product_multiplicativity_certificates(c5(), c5())
print("  certified product value:", value)
print("  composed primal size:", len(primal.sets), "sets, value", primal.value)
print("  composed dual support:", len(dual.weights), "vertices, value", dual.value)

c5_spec = ExplicitSpec(tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))
direct = fractional_chromatic_number(build_graph(product(c5_spec, c5_spec)), include_chi=False)
print("  direct LP on the 25-vertex product:", direct.chi_f)
assert direct.chi_f == value

print()
print("Multiplicativity across a family of factors")
factors = {
    "K2": complete(2),
    "K3": complete(3),
    "C5": c5(),
    "conflict(2,4)": build_graph(ConflictSpec(2, 4)),
}
values = {
    name: fractional_chromatic_number(g, include_chi=False).chi_f
    for name, g in factors.items()
}
for n1, g1 in factors.items():
    for n2, g2 in factors.items():
        val, _, _ = product_multiplicativity_certificates(g1, g2)
        assert val == values[n1] * values[n2]
        print(f"  chi_f({n1} v {n2}) = {val} = {values[n1]} * {values[n2]}")

print()
print("Composing by hand: K3 and K2 give value 6 on K6")
r1 = fractional_chromatic_number(complete(3), include_chi=False)
r2 = fractional_chromatic_number(complete(2), include_chi=False)
x = compose_product_primal(r1.primal, r2.primal, 3, 2)
y = compose_product_dual(r1.dual, r2.dual, 2)
print("  composed primal value:", x.value, " composed dual value:", y.value)
