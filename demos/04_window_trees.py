#!/usr/bin/env python3
"""Window trees: pruning, level fractions, and uniform path sampling.

Builds a small tree, prunes it against a label function, inspects the
per-level direct-pruning fractions and the kept-leaf identity, checks the
sparse-case density bound on a batch of random instances, and runs the
final-window experiment that couples trees with the hard distribution.
"""

from fractions import Fraction

from mmphf_lab.harddist import SamplerParams
from mmphf_lab.rng import BitSampler
from mmphf_lab.windowtree import (
    WindowTreeSpec,
    build_tree,
    case1_inequality_check,
    density,
    final_window_experiment,
    prune,
    sample_path,
)

print("A 2-ary window tree of depth 2 over [1, 16]")
tree = build_tree(WindowTreeSpec(arity=2, depth=2, start=1, length=16))
for level in range(tree.levels):
    print(f"  level {level}:", [tree.window(level, i) for i in range(tree.level_size(level))])

print()
print("Pruning against a lopsided labelling (index 1 lives in [1, 6])")
f = {e: (1 if e <= 6 else 2) for e in range(1, 17)}
result = prune(tree, f, index=1, tau=Fraction(1, 4))
for lvl in result.to_json_dict()["levels"]:
    print(f"  level {lvl['level']}: total={lvl['total']} kept={lvl['kept']} "
          f"direct={lvl['directly_pruned']} indirect={lvl['indirectly_pruned']} p={lvl['p']}")
print("  survival product:", result.survival_product)
print("  kept-leaf fraction:", result.kept_leaf_fraction, "(always equal)")

print()
print("Sparse-case density bound on 200 random instances")
rng = BitSampler(4)
worst = Fraction(0)
for _ in range(200):
    arity = 2 + rng.choice_index(3)
    depth = 1 + rng.choice_index(2)
    length = (1 + rng.choice_index(3)) * arity**depth
    t = build_tree(WindowTreeSpec(arity=arity, depth=depth, start=1, length=length))
    labels = {e: 1 + rng.choice_index(3) for e in range(1, length + 1)}
    tau = Fraction(1 + rng.choice_index(8), 10)
    pr = prune(t, labels, 1, tau)
    delta = min(pr.survival_product + Fraction(rng.choice_index(5), 10), Fraction(1))
    root_density = density(t.window(0, 0), labels, 1)
    assert case1_inequality_check(pr, root_density, delta)
    gap = delta + tau - root_density
    worst = max(worst, -gap) if gap < 0 else worst
print("  all instances satisfy density(root) <= delta + tau")

print()
print("Uniform path sampling (empirical counts over 20000 draws)")
small = build_tree(WindowTreeSpec(arity=2, depth=2, start=1, length=4))
counts = {pos: 0 for pos in range(1, 5)}
for i in range(20000):
    counts[sample_path(small, i).sample] += 1
print("  counts:", counts)

print()
print("Final-window experiment on the toy sampler")
toy = SamplerParams(2, 2, 8)
striped = {e: (1 if (e - 1) // 8 % 2 == 0 else 2) for e in range(1, 300)}
report = final_window_experiment(toy, striped, index=1, tau=Fraction(1, 4),
                                 trials=2000, seed=11)
print(f"  conditioned trials: {report.conditioned} / {report.trials}")
frac = report.fraction
print(f"  final windows below threshold {report.threshold}: "
      f"{report.low_density} ({'n/a' if frac is None else float(frac)})")
