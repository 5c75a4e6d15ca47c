"""Window trees: recursive equipartitions with density-based pruning.

A window tree splits a contiguous integer window into `arity` equal
children per node, for `depth` levels, so level l holds arity^l nodes
whose windows partition the root left to right.  Given a label function
f and a target index, a node is sparse when the fraction of its window
labelled with the index is at most a threshold tau; pruning walks the
tree top-down, removes every sparse node together with its whole
subtree (directly vs. indirectly pruned), and reports per level

    p_l = directly pruned at level l / level-l nodes without pruned
          proper ancestors          (0 when the denominator is empty).

The product of (1 - p_l) over levels equals the surviving leaf fraction
exactly, which is the counting identity behind the sparse-case density
bound: if that product is at most delta, the root density is at most
delta + tau.

Sampling a root-to-leaf path uniformly at each step and then a uniform
point in the leaf window induces exactly the uniform law on the root
window; the trees here are materialized only below the configured node
cap, while the arithmetic of astronomically wide trees lives in
`harddist.window_geometry`.
"""

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .caps import DEFAULT_CAPS, EnumerationCaps
from .graphs import LabelFn, label_getter
from .harddist import SamplerParams, sample as sample_trace
from .rng import BitSampler, derive_seed
from .serialize import frac_str
from .tower import Pow2, pow2

KEPT = 0
DIRECT = 1
INDIRECT = 2


class WindowTreeSpec(namedtuple("WindowTreeSpec", "arity depth start length")):
    __slots__ = ()
    arity: int
    depth: int
    start: int
    length: int

    def __new__(cls, arity: int, depth: int, start: int, length: int):
        if arity < 2:
            raise ValueError("arity must be >= 2")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if length < 1:
            raise ValueError("root window must be nonempty")
        # arity^depth >= 2^floor_bits, so a shorter root cannot be its multiple
        # and the power is built only when it is at most about length^2
        if length.bit_length() <= floor_bits(arity, depth) or length % arity**depth != 0:
            raise ValueError(
                f"root length {length} is not arity^depth = {arity}^{depth} times an integer"
            )
        return super().__new__(cls, arity, depth, start, length)

    @property
    def node_count(self) -> int:
        r, k = self.arity, self.depth
        return (r ** (k + 1) - 1) // (r - 1)


def floor_bits(arity: int, depth: int) -> int:
    """depth * floor(log2(arity)): a tree of that shape has at least 2^floor_bits leaves."""
    return depth * (arity.bit_length() - 1)


def check_leaf_bound(arity: int, depth: int, caps: EnumerationCaps = DEFAULT_CAPS) -> None:
    """From 2^64 leaves on, check the lower bound 2^floor_bits against `max_vertices`.

    Nothing of size arity^depth is built, so a caller can refuse a shape
    before it computes a root length; below 2^64 leaves the power has at
    most 128 bits and the exact node count is checked instead.
    """
    bits = floor_bits(arity, depth)
    if bits >= 64:
        caps.check("max_vertices", Pow2(bits))


class WindowTree:
    """A materialized window tree; node windows are computed arithmetically."""

    def __init__(self, spec: WindowTreeSpec):
        self.spec = spec
        self.level_lengths = [
            spec.length // spec.arity**level for level in range(spec.depth + 1)
        ]

    @property
    def levels(self) -> int:
        return self.spec.depth + 1

    @property
    def leaf_count(self) -> int:
        return self.spec.arity**self.spec.depth

    def level_size(self, level: int) -> int:
        return self.spec.arity**level

    def window(self, level: int, idx: int) -> tuple:
        """(start, length) of the idx-th node at a level, left to right."""
        if not 0 <= level <= self.spec.depth:
            raise ValueError(f"level {level} outside [0, {self.spec.depth}]")
        if not 0 <= idx < self.level_size(level):
            raise ValueError(f"node {idx} outside level {level}")
        length = self.level_lengths[level]
        return (self.spec.start + idx * length, length)

    def node_at(self, level: int, position: int) -> int:
        """Index of the level-`level` node whose window contains a position."""
        lo = self.spec.start
        if not lo <= position < lo + self.spec.length:
            raise ValueError(f"position {position} outside the root window")
        return (position - lo) // self.level_lengths[level]


def build_tree(spec: WindowTreeSpec, caps: EnumerationCaps = DEFAULT_CAPS) -> WindowTree:
    """The tree of a spec whose node count is within `max_vertices`.

    The count is checked before any level is computed, and
    `check_leaf_bound` runs before the count is built.
    """
    check_leaf_bound(spec.arity, spec.depth, caps)
    caps.check("max_vertices", spec.node_count)
    return WindowTree(spec)


def density(window: tuple, f: LabelFn, index: int) -> Fraction:
    """Fraction of the window's positions labelled with the index."""
    start, length = window
    if length < 1:
        raise ValueError("empty window has no density")
    get = label_getter(f)
    hits = sum(1 for e in range(start, start + length) if get(e) == index)
    return Fraction(hits, length)


class PruneResult(NamedTuple):
    """Per-node marks and per-level direct-pruning fractions."""

    index: int
    tau: Fraction
    marks: list  # marks[level][idx] in {KEPT, DIRECT, INDIRECT}
    p: list  # per-level Fraction

    def is_pruned(self, level: int, idx: int) -> bool:
        return self.marks[level][idx] != KEPT

    def level_counts(self, level: int) -> dict:
        row = self.marks[level]
        return {
            "total": len(row),
            "kept": sum(1 for m in row if m == KEPT),
            "directly_pruned": sum(1 for m in row if m == DIRECT),
            "indirectly_pruned": sum(1 for m in row if m == INDIRECT),
        }

    @property
    def survival_product(self) -> Fraction:
        """Product of (1 - p_l) over all levels."""
        out = Fraction(1)
        for q in self.p:
            out *= 1 - q
        return out

    @property
    def kept_leaf_fraction(self) -> Fraction:
        leaves = self.marks[-1]
        return Fraction(sum(1 for m in leaves if m == KEPT), len(leaves))

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "tau": frac_str(self.tau),
            "levels": [
                {"level": lvl, **self.level_counts(lvl), "p": frac_str(self.p[lvl])}
                for lvl in range(len(self.marks))
            ],
        }


def prune(tree: WindowTree, f: LabelFn, index: int, tau) -> PruneResult:
    """Top-down sparse pruning; deterministic for fixed inputs.

    Uses one prefix-sum pass over the root window, so each node density is
    O(1) afterwards.
    """
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    get = label_getter(f)
    start, length = tree.window(0, 0)
    prefix = [0] * (length + 1)
    for off in range(length):
        prefix[off + 1] = prefix[off] + (1 if get(start + off) == index else 0)

    def node_density(level: int, idx: int) -> Fraction:
        ln = tree.level_lengths[level]
        lo = idx * ln
        return Fraction(prefix[lo + ln] - prefix[lo], ln)

    marks = []
    p = []
    for level in range(tree.levels):
        row = []
        direct = 0
        candidates = 0
        for idx in range(tree.level_size(level)):
            if level > 0 and marks[level - 1][idx // tree.spec.arity] != KEPT:
                row.append(INDIRECT)
                continue
            candidates += 1
            if node_density(level, idx) <= tau:
                row.append(DIRECT)
                direct += 1
            else:
                row.append(KEPT)
        marks.append(row)
        p.append(Fraction(direct, candidates) if candidates else Fraction(0))
    return PruneResult(index=index, tau=tau, marks=marks, p=p)


class SamplingPath(NamedTuple):
    """A root-to-leaf walk plus the point drawn from the leaf window."""

    nodes: tuple  # node indices per level, nodes[l] at level l
    sample: int


def sample_path(tree: WindowTree, seed: int) -> SamplingPath:
    """Uniform child at every step, then a uniform point in the leaf window.

    The induced law of the point is exactly uniform on the root window.
    """
    rng = BitSampler(seed)
    idx = 0
    nodes = [0]
    for _ in range(tree.spec.depth):
        idx = idx * tree.spec.arity + rng.choice_index(tree.spec.arity)
        nodes.append(idx)
    start, length = tree.window(tree.spec.depth, idx)
    point = start + rng.choice_index(length)
    return SamplingPath(nodes=tuple(nodes), sample=point)


def path_for_position(tree: WindowTree, position: int) -> SamplingPath:
    """The unique root-to-leaf path whose leaf window contains the position."""
    nodes = tuple(tree.node_at(level, position) for level in range(tree.levels))
    return SamplingPath(nodes=nodes, sample=position)


def event_no_prune_on_prefix(path: SamplingPath, pruned: PruneResult, z: int) -> bool:
    """True iff none of the first z path nodes (levels 0..z-1) is pruned."""
    if z < 0 or z > len(path.nodes):
        raise ValueError(f"prefix length {z} outside [0, {len(path.nodes)}]")
    return all(not pruned.is_pruned(level, path.nodes[level]) for level in range(z))


def case1_inequality_check(result: PruneResult, root_density: Fraction, delta) -> bool:
    """Sparse-case density bound, generalized to parameters (tau, delta).

    If the surviving leaf fraction prod(1 - p_l) of a pruning is at most
    delta, then the root density is at most delta + tau.  Reads the
    caller's `PruneResult` and its root density from `density`, a plain
    scan independent of prune's prefix sums.  Returns whether the
    implication holds on this instance; it must always hold, so False
    signals a bug.
    """
    delta = Fraction(delta)
    if result.survival_product > delta:
        return True  # hypothesis does not fire; implication is vacuous
    return root_density <= delta + result.tau


# ---------------------------------------------------------------------------
# joint experiment with the hard-distribution sampler
# ---------------------------------------------------------------------------


class FinalWindowReport(NamedTuple):
    """Monte-Carlo counts of final-window densities conditioned on clean prefixes.

    Of `trials` traces, `conditioned` counts those where no pruned node
    appeared among the first z_i path nodes of the iteration `index` passed
    to `final_window_experiment`; among those, `low_density` counts final
    windows with density below `threshold` (2/m).  The caller's inputs are
    not repeated.  Report-only: no bound is asserted.
    """

    threshold: Fraction
    trials: int
    conditioned: int
    low_density: int

    @property
    def fraction(self) -> Optional[Fraction]:
        if self.conditioned == 0:
            return None
        return Fraction(self.low_density, self.conditioned)


def final_window_experiment(
    params: SamplerParams,
    f: LabelFn,
    index: int,
    tau,
    trials: int,
    seed: int,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> FinalWindowReport:
    """Sample traces; condition on a clean tree prefix at iteration `index`.

    Per trial, the window tree of iteration `index` is rebuilt from the
    trace history, pruned for (f, index, tau), and the trace's own position
    picks the sampling path; the prefix length is the trace's z draw.  For
    trials passing that event, the final window's density at `index` is
    compared against the threshold 2/m.  Requires desk-scale windows
    (2^s0 within the vertex cap).
    """
    if not 1 <= index <= params.m:
        raise ValueError(f"index {index} outside [1, {params.m}]")
    tau = Fraction(tau)
    threshold = Fraction(2, params.m)
    caps.check("max_vertices", pow2(params.s0))

    conditioned = 0
    low = 0
    prune_cache: dict = {}
    for t in range(trials):
        trace = sample_trace(params, derive_seed(seed, t))
        s_prev = trace.s_prev(index)
        root_start = trace.x_prev(index) + 1
        step = params.step(index)
        spec = WindowTreeSpec(
            arity=1 << step, depth=params.k, start=root_start, length=1 << s_prev
        )
        key = (root_start, s_prev)
        if key not in prune_cache:
            tree = build_tree(spec, caps)
            prune_cache[key] = (tree, prune(tree, f, index, tau))
        tree, pruned = prune_cache[key]
        path = path_for_position(tree, trace.xs[index - 1])
        if event_no_prune_on_prefix(path, pruned, trace.zs[index - 1]):
            conditioned += 1
            lo, hi = trace.window(params.m)
            if density((lo, hi - lo + 1), f, index) < threshold:
                low += 1
    return FinalWindowReport(
        threshold=threshold, trials=trials, conditioned=conditioned, low_density=low
    )
