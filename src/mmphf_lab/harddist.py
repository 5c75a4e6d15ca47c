"""The hard input distribution on increasing m-tuples, exact and sampled.

One run draws, for i = 1..m, a uniform Y_i from [2^(S_{i-1})] and a
uniform Z_i from [k-1], then sets X_i = X_{i-1} + Y_i and
S_i = S_{i-1} - k^(m-i+1) * Z_i.  The i-th value is therefore uniform on
the window [X_{i-1}+1, X_{i-1}+2^(S_{i-1})], and window sizes shrink
along a geometric ladder

    w_{i,j} = 2^(s_{i-1} - j*k^(m-i+1)),   j = 0..k,

with fixed ratio r_i = 2^(k^(m-i+1)) between consecutive rungs.

The canonical parameters k = m^m, S0 = k^(m+1) make every quantity an
arbitrary-precision integer (the universe is 2^(S0)); generalized (k, S0)
are first-class so that exact enumeration oracles stay desk-sized.

Everything is deterministic given the recorded 64-bit seed.  Label
functions over huge universes are supplied as element-wise callables and
never materialized.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Union

from scipy.stats import beta as _beta

from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded
from .rng import GENERATOR_NAME, BitSampler, derive_seed
from .serialize import frac_str, int_str

LabelFn = Union[Mapping[int, int], Callable[[int], int]]


def _label_getter(f: LabelFn) -> Callable[[int], int]:
    if callable(f):
        return f
    return f.__getitem__


@dataclass(frozen=True)
class SamplerParams:
    """Index count m, step granularity k >= 2, initial exponent s0.

    s0 >= k^(m+1) guarantees the final exponent S_m stays nonnegative.
    """

    m: int
    k: int
    s0: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2 so Z draws from a nonempty range")
        if self.s0 < self.k ** (self.m + 1):
            raise ValueError(
                f"s0 must be >= k^(m+1) = {self.k ** (self.m + 1)} to keep S_m >= 0"
            )

    @classmethod
    def canonical(cls, m: int) -> "SamplerParams":
        """The construction's own parameters k = m^m, s0 = k^(m+1)."""
        if m < 2:
            raise ValueError("canonical parameters need m >= 2 (k = m^m >= 2)")
        k = m**m
        return cls(m=m, k=k, s0=k ** (m + 1))

    def step(self, i: int) -> int:
        """Exponent decrement unit k^(m-i+1) of iteration i."""
        if not 1 <= i <= self.m:
            raise ValueError(f"iteration {i} outside [1, {self.m}]")
        return self.k ** (self.m - i + 1)


@dataclass(frozen=True)
class WindowGeometry:
    """Exponent ladder of the window sizes one iteration can produce."""

    iteration: int
    s_prev: int
    step: int
    k: int

    @property
    def exponents(self) -> list:
        return [self.s_prev - j * self.step for j in range(self.k + 1)]

    @property
    def sizes(self) -> list:
        """w_{i,j} for j = 0..k; exact (a rung below exponent 0 is a Fraction)."""
        return [_pow2(e) for e in self.exponents]

    @property
    def ratio(self) -> int:
        """Fixed quotient of consecutive rungs, r_i = 2^step."""
        return 2**self.step


def _pow2(e: int):
    return 1 << e if e >= 0 else Fraction(1, 1 << (-e))


def window_geometry(params: SamplerParams, i: int, s_prev: int) -> WindowGeometry:
    """Size ladder and ratio for iteration i starting from exponent s_prev."""
    step = params.step(i)
    if s_prev < (params.k - 1) * step:
        raise ValueError(
            f"exponent underflow: s_prev={s_prev} < (k-1)*step={(params.k - 1) * step}"
        )
    return WindowGeometry(iteration=i, s_prev=s_prev, step=step, k=params.k)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleTrace:
    """Full record of one run: all draws, positions and exponents."""

    params: SamplerParams
    seed: int
    ys: tuple
    zs: tuple
    xs: tuple
    ss: tuple  # s_1..s_m; s_0 is params.s0

    def s_prev(self, i: int) -> int:
        return self.params.s0 if i == 1 else self.ss[i - 2]

    def x_prev(self, i: int) -> int:
        return 0 if i == 1 else self.xs[i - 2]

    def window(self, i: int) -> tuple:
        """Support of X_i given the history: [x_{i-1}+1, x_{i-1}+2^(s_{i-1})]."""
        lo = self.x_prev(i) + 1
        return (lo, lo + (1 << self.s_prev(i)) - 1)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "generator": GENERATOR_NAME,
            "params": {"m": self.params.m, "k": self.params.k, "s0": self.params.s0},
            "iterations": [
                {
                    "y": int_str(self.ys[i]),
                    "z": int_str(self.zs[i]),
                    "x": int_str(self.xs[i]),
                    "s": int_str(self.ss[i]),
                }
                for i in range(self.params.m)
            ],
        }


def sample(params: SamplerParams, seed: int) -> SampleTrace:
    """Draw one trace; deterministic given (params, seed)."""
    rng = BitSampler(seed)
    x, s = 0, params.s0
    ys, zs, xs, ss = [], [], [], []
    for i in range(1, params.m + 1):
        y = rng.uniform_pow2(s)
        z = rng.uniform_range(params.k - 1)
        x = x + y
        s = s - params.step(i) * z
        ys.append(y)
        zs.append(z)
        xs.append(x)
        ss.append(s)
    return SampleTrace(
        params=params, seed=seed, ys=tuple(ys), zs=tuple(zs), xs=tuple(xs), ss=tuple(ss)
    )


def verify_trace(trace: SampleTrace, params: SamplerParams | None = None) -> tuple:
    """Check every structural invariant of a trace.

    Returns (ok, violations).  Checks the recurrences, strict monotonicity
    of the positions, the per-iteration and tail exponent drops, the
    boundedness of later positions, nonnegativity of the final exponent,
    and membership of every window size in the geometry ladder.
    """
    p = params or trace.params
    m = p.m
    bad = []
    if len(trace.ys) != m or len(trace.zs) != m or len(trace.xs) != m or len(trace.ss) != m:
        return False, [f"trace length mismatch: expected {m} iterations"]
    for i in range(1, m + 1):
        y, z = trace.ys[i - 1], trace.zs[i - 1]
        x, s = trace.xs[i - 1], trace.ss[i - 1]
        x_prev, s_prev = trace.x_prev(i), trace.s_prev(i)
        step = p.step(i)
        if not 1 <= z <= p.k - 1:
            bad.append(f"z_{i}={z} outside [1, {p.k - 1}]")
        if not 1 <= y <= (1 << s_prev):
            bad.append(f"y_{i} outside [1, 2^{s_prev}]")
        if x != x_prev + y:
            bad.append(f"x_{i} != x_{i-1} + y_{i}")
        if x <= x_prev:
            bad.append(f"monotonicity: x_{i} <= x_{i-1}")
        if s != s_prev - step * z:
            bad.append(f"step: s_{i} != s_{i-1} - {step}*z_{i}")
        if s > s_prev - step:
            bad.append(f"step: s_{i} > s_{i-1} - k^(m-i+1)")
        # window size of iteration i+1 must sit on the ladder of iteration i
        if (s_prev - s) % step != 0 or not 1 <= (s_prev - s) // step <= p.k - 1:
            bad.append(f"window size 2^{s} off the iteration-{i} ladder")
    if trace.ss[m - 1] < 0:
        bad.append("final exponent negative")
    x_m, s_m = trace.xs[m - 1], trace.ss[m - 1]
    for i in range(1, m + 1):
        s_i, x_i = trace.ss[i - 1], trace.xs[i - 1]
        if x_m > x_i + (m - i) * (1 << s_i):
            bad.append(f"boundedness: x_m > x_{i} + (m-{i})*2^s_{i}")
        if s_m < s_i - p.step(i):
            bad.append(f"tail: s_m < s_{i} - k^(m-{i}+1)")
    return not bad, bad


# ---------------------------------------------------------------------------
# exact enumeration oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitTupleDistribution:
    """A fully enumerated distribution on increasing m-tuples.

    Probabilities are exact rationals summing to 1; the universe is
    [1, universe_size] and covers every tuple in the support.
    """

    m: int
    universe_size: int
    outcomes: tuple  # tuple of (m-tuple, Fraction), sorted by tuple

    def __post_init__(self):
        total = sum((p for _, p in self.outcomes), Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        for t, p in self.outcomes:
            if p < 0:
                raise ValueError("negative probability")
            if len(t) != self.m or any(b <= a for a, b in zip(t, t[1:])):
                raise ValueError(f"tuple {t} is not a strictly increasing {self.m}-tuple")
            if t[0] < 1 or t[-1] > self.universe_size:
                raise ValueError(f"tuple {t} leaves the universe [1, {self.universe_size}]")

    def mass(self) -> dict:
        return dict(self.outcomes)

    def support_elements(self) -> list:
        seen = set()
        for t, _ in self.outcomes:
            seen.update(t)
        return sorted(seen)


def enumerate_distribution(
    params: SamplerParams, caps: EnumerationCaps = DEFAULT_CAPS
) -> ExplicitTupleDistribution:
    """Exact law of (X_1, ..., X_m) by exhausting every (Y, Z) outcome."""
    total = _outcome_count(params, 1, params.s0)
    if total > caps.max_outcomes:
        raise EnumerationCapExceeded("max_outcomes", total, caps.max_outcomes)
    acc: dict = {}
    max_x = 0

    def rec(i: int, x: int, s: int, prob: Fraction, prefix: tuple):
        nonlocal max_x
        if i > params.m:
            acc[prefix] = acc.get(prefix, Fraction(0)) + prob
            max_x = max(max_x, x)
            return
        step = params.step(i)
        py = Fraction(1, 1 << s)
        pz = Fraction(1, params.k - 1)
        for z in range(1, params.k):
            s_next = s - step * z
            for y in range(1, (1 << s) + 1):
                rec(i + 1, x + y, s_next, prob * py * pz, prefix + (x + y,))

    rec(1, 0, params.s0, Fraction(1), ())
    outcomes = tuple(sorted(acc.items()))
    return ExplicitTupleDistribution(m=params.m, universe_size=max_x, outcomes=outcomes)


def _outcome_count(params: SamplerParams, i: int, s: int) -> int:
    if i > params.m:
        return 1
    step = params.step(i)
    total = 0
    for z in range(1, params.k):
        total += (1 << s) * _outcome_count(params, i + 1, s - step * z)
    return total


def success_probability(dist: ExplicitTupleDistribution, f: LabelFn) -> Fraction:
    """Exact mass of tuples whose every element carries its own index."""
    get = _label_getter(f)
    total = Fraction(0)
    for t, p in dist.outcomes:
        if all(get(e) == i + 1 for i, e in enumerate(t)):
            total += p
    return total


def adversary_bound_exact(
    dist: ExplicitTupleDistribution, caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple:
    """Best response over every label function: (max probability, argmax f).

    Brute force over all assignments of the support elements (elements
    outside every support tuple cannot matter and are pinned to index 1).
    The argmax is returned as a total dict on [1, universe_size].
    """
    elems = dist.support_elements()
    m = dist.m
    count = m ** len(elems)
    if count > caps.max_label_functions:
        raise EnumerationCapExceeded("max_label_functions", count, caps.max_label_functions)

    best = Fraction(-1)
    best_f: dict = {}
    # product() runs in lexicographic order, so the argmax is the first maximum
    for values in product(range(1, m + 1), repeat=len(elems)):
        f = dict(zip(elems, values))
        total = success_probability(dist, f)
        if total > best:
            best, best_f = total, f
    f = {e: 1 for e in range(1, dist.universe_size + 1)}
    f.update(best_f)
    return best, f


# ---------------------------------------------------------------------------
# Monte-Carlo probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    successes: int
    estimate: Fraction
    confidence: float
    ci_low: float
    ci_high: float
    seed: int
    generator: str = GENERATOR_NAME

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "estimate": frac_str(self.estimate),
            "confidence": self.confidence,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "generator": self.generator,
        }


def binomial_ci(successes: int, trials: int, confidence: float = 0.99) -> tuple:
    """Exact (Clopper-Pearson) binomial confidence interval."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(_beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = (
        1.0
        if successes == trials
        else float(_beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    )
    return lo, hi


def monte_carlo_success(
    params: SamplerParams,
    f: LabelFn,
    trials: int,
    seed: int,
    confidence: float = 0.99,
) -> MonteCarloReport:
    """Estimate the success probability of f by independent sampled traces.

    f is queried element-wise only at the sampled positions, so it may be
    an oracle over a universe far too large to materialize.  Trial t uses
    the derived child seed of (seed, t); merging is exact counting.
    """
    get = _label_getter(f)
    successes = 0
    for t in range(trials):
        trace = sample(params, derive_seed(seed, t))
        if all(get(x) == i + 1 for i, x in enumerate(trace.xs)):
            successes += 1
    lo, hi = binomial_ci(successes, trials, confidence)
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        estimate=Fraction(successes, trials),
        confidence=confidence,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
    )
