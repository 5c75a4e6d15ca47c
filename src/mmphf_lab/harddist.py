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
are first-class so that exact enumeration oracles stay desk-sized.  The
exact law is enumerated one exponent ladder s_0, ..., s_{m-1} at a time,
and canonical m >= 3 is refused by name by the `max_outcomes` cap.

Everything is deterministic given the recorded 64-bit seed.  Label
functions over huge universes are supplied as element-wise callables and
never materialized.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .caps import DEFAULT_CAPS, EnumerationCaps
from .graphs import LabelFn, consistent, iter_label_functions, label_getter
from .rng import GENERATOR_NAME, BitSampler, derive_seed
from .serialize import exact_decimals, frac_str
from .tower import Pow2


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
        return [1 << e if e >= 0 else Fraction(1, 1 << -e) for e in self.exponents]

    @property
    def ratio(self) -> int:
        """Fixed quotient of consecutive rungs, r_i = 2^step."""
        return 2**self.step


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
        """Every field printed exactly, each draw Y_i converted to decimal once.

        Where x_i = x_{i-1} + y_i holds in ints, X_i is printed from the exact
        Decimal sum D(X_{i-1}) + D(Y_i); any other X_i is converted itself.
        """
        iterations = []
        with exact_decimals() as to_decimal:
            x_prev, d_prev = 0, to_decimal(0)
            for i in range(self.params.m):
                y, x = self.ys[i], self.xs[i]
                d_y = to_decimal(y)
                d_x = d_prev + d_y if x == x_prev + y else to_decimal(x)
                z, s = to_decimal(self.zs[i]), to_decimal(self.ss[i])
                iterations.append({"y": str(d_y), "z": str(z), "x": str(d_x), "s": str(s)})
                x_prev, d_prev = x, d_x
        return {
            "seed": self.seed,
            "generator": GENERATOR_NAME,
            "params": {"m": self.params.m, "k": self.params.k, "s0": self.params.s0},
            "iterations": iterations,
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


def verify_trace(trace: SampleTrace) -> tuple:
    """Check every structural invariant of a trace against its own params.

    Returns (ok, violations).  Checks the recurrences, strict monotonicity
    of the positions, the per-iteration and tail exponent drops, the
    boundedness of later positions, nonnegativity of the final exponent,
    and membership of every window size in the geometry ladder.
    """
    p = trace.params
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
    """Exact law of (X_1, ..., X_m), one pass per exponent ladder.

    Z_1..Z_{m-1} fix the ladder (s_0, ..., s_{m-1}), whose 2^width Y outcomes
    (width = s_0+...+s_{m-1}) each have mass 1/((k-1)^(m-1) * 2^width); Z_m
    moves only S_m.  The cap counts every (Y, Z) outcome; from s0 = 2^16 on,
    the lower bound 2^s0 is checked before that count is built.
    """
    m, k = params.m, params.k
    if params.s0 >= 1 << 16:
        caps.check("max_outcomes", Pow2(params.s0))
    ladders = [(params.s0,)]
    for i in range(1, m):
        ladders = [
            ladder + (s,)
            for ladder in ladders
            for s in window_geometry(params, i, ladder[-1]).exponents[1:k]
        ]
    caps.check("max_outcomes", (k - 1) * sum(1 << sum(ladder) for ladder in ladders))
    acc: dict = {}
    for ladder in ladders:
        p = Fraction(1, (k - 1) ** (m - 1) << sum(ladder))
        for ys in product(*(range(1, (1 << s) + 1) for s in ladder)):
            x = tuple(accumulate(ys))
            acc[x] = acc[x] + p if x in acc else p
    return ExplicitTupleDistribution(
        m=m, universe_size=max(x[-1] for x in acc), outcomes=tuple(sorted(acc.items()))
    )


def success_probability(dist: ExplicitTupleDistribution, f: LabelFn) -> Fraction:
    """Exact mass of tuples whose every element carries its own index."""
    get = label_getter(f)
    return sum((p for t, p in dist.outcomes if consistent(get, t)), Fraction(0))


def adversary_bound_exact(
    dist: ExplicitTupleDistribution, caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple:
    """Best response over every label function: (max probability, argmax f).

    Brute force over all assignments of the support elements (elements
    outside every support tuple cannot matter and are pinned to index 1).
    The argmax is returned as a total dict on [1, universe_size].
    """
    best = Fraction(-1)
    best_f: dict = {}
    # the enumeration is lexicographic, so the argmax is the first maximum
    for f in iter_label_functions(dist.support_elements(), dist.m, caps):
        total = success_probability(dist, f)
        if total > best:
            best, best_f = total, f
    f = {e: 1 for e in range(1, dist.universe_size + 1)}
    f.update(best_f)
    return best, f


# ---------------------------------------------------------------------------
# Monte-Carlo probes
# ---------------------------------------------------------------------------

CONFIDENCE = 0.99  # of every Monte-Carlo interval


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


def binomial_ci(successes: int, trials: int) -> tuple:
    """Exact (Clopper-Pearson) binomial interval at confidence `CONFIDENCE`.

    scipy is imported here, its one use, not at module level: loading it
    would otherwise dominate the start-up of every fresh CLI process.
    """
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    from scipy.stats import beta

    alpha = 1.0 - CONFIDENCE
    lo = 0.0 if successes == 0 else float(beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = (
        1.0
        if successes == trials
        else float(beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    )
    return lo, hi


def monte_carlo_success(
    params: SamplerParams,
    f: LabelFn,
    trials: int,
    seed: int,
) -> MonteCarloReport:
    """Estimate the success probability of f by independent sampled traces.

    f is queried element-wise only at the sampled positions, so it may be
    an oracle over a universe far too large to materialize.  Trial t uses
    the derived child seed of (seed, t); merging is exact counting.
    """
    get = label_getter(f)
    successes = 0
    for t in range(trials):
        trace = sample(params, derive_seed(seed, t))
        if consistent(get, trace.xs):
            successes += 1
    lo, hi = binomial_ci(successes, trials)
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        estimate=Fraction(successes, trials),
        confidence=CONFIDENCE,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
    )
