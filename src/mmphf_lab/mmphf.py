"""Concrete rank indexes with bit-exact space accounting.

A rank index for a key set S (n increasing keys from [1, u]) answers, for
any member, the number of members strictly below it (0-indexed), and may
answer arbitrarily in [0, n-1] for non-members.  Two schemes are built:

* "explicit-set": the combinatorial rank of S among all n-subsets of
  [1, u], stored in exactly ceil(log2(C(u, n))) payload bits.  Ranking
  takes O(n) binomials (the hockey-stick identity); the first query
  decodes the set by galloping search, O(log(gap)) binomials per member,
  and the index keeps it, so every query is one bisection.
* "rank-map": a seeded two-level hash-displacement table in the
  O(n log n)-bit regime; queries never look at the key set itself.

The header charges two 64-bit words for (n, u), so `build` rejects
u > 2^64 - 1.

A deliberately broken scheme with a constant payload is included as a
negative control for the coloring pipeline.

Payloads double as graph colors: on a conflict graph, adjacent vertices
must receive different payloads (they disagree on the rank of a shared
element), so any correct scheme induces a proper coloring - checked
executably by `extract_coloring`.  `bound_report` combines measured
payload sizes with the exact chromatic data, and `parameterize` evaluates
the block-decomposition parameters (m, k, u') for a target (n, u) using
exact tower arithmetic.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Sequence

from . import caps
from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import CorruptIndexError, SchemeViolationError
from .graphs import ConflictSpec, Graph, build_graph
from .rng import hash64, hash_key, mix64
from .schemes import SCHEME_BROKEN, SCHEME_EXPLICIT_SET, SCHEME_RANK_MAP, SCHEMES  # noqa: F401
from .serialize import frac_str
from .tower import ScaledPow2, TowerInt, pow2, tower_cmp, tower_str

# fixed header: scheme tag bit plus two 64-bit words (n, u); seeded schemes
# carry one extra word
_HEADER_BITS_BASE = 1 + 64 + 64
_HEADER_BITS_SEED = 64
_HEADER_WORD_MAX = (1 << 64) - 1


class KeySet(namedtuple("KeySet", "elements u")):
    __slots__ = ()
    elements: tuple
    u: int

    def __new__(cls, elements: tuple, u: int):
        if not elements:
            raise ValueError("key set must be nonempty")
        prev = 0
        for e in elements:
            if e <= prev:
                raise ValueError("elements must be strictly increasing and >= 1")
            prev = e
        if prev > u:
            raise ValueError(f"element {prev} exceeds universe size {u}")
        return super().__new__(cls, elements, u)

    @property
    def n(self) -> int:
        return len(self.elements)


def keyset_from_text(text: str) -> KeySet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("u="):
        raise ValueError("key-set text must start with a `u=` header line")
    u = int(lines[0][2:])
    return KeySet(elements=tuple(int(ln) for ln in lines[1:]), u=u)


class BitString(namedtuple("BitString", "value length")):
    """An immutable bit string: integer value plus explicit length."""

    __slots__ = ()
    value: int
    length: int

    def __new__(cls, value: int, length: int):
        if length < 0 or value < 0 or value >> length:
            raise ValueError("bit-string value does not fit its length")
        return super().__new__(cls, value, length)

    def slice_int(self, start: int, width: int) -> int:
        """Bits [start, start+width) with bit 0 the most significant."""
        if start < 0 or width < 0 or start + width > self.length:
            raise ValueError("slice outside the bit string")
        shift = self.length - start - width
        return (self.value >> shift) & ((1 << width) - 1)


class MmphfIndex(namedtuple("MmphfIndex", "scheme n u seed payload")):
    # no __slots__: the instance dict holds the `members` cache
    scheme: str
    n: int
    u: int
    seed: int | None
    payload: BitString

    @property
    def size_bits(self) -> int:
        """Payload size only; the counting arguments charge raw bit strings."""
        return self.payload.length

    @property
    def header_bits(self) -> int:
        return _HEADER_BITS_BASE + (_HEADER_BITS_SEED if self.seed is not None else 0)

    @property
    def total_bits(self) -> int:
        return self.size_bits + self.header_bits

    @cached_property
    def members(self) -> list:
        """The explicit-set key set, decoded from the payload on first use.

        The list lives in this index only; a payload that decodes to no
        subset raises CorruptIndexError and leaves nothing cached.
        """
        return list(_subset_unrank(self.payload.value, self.n, self.u))


# ---------------------------------------------------------------------------
# combinatorial rank codec (explicit-set scheme)
# ---------------------------------------------------------------------------


def _subset_rank(elements: Sequence[int], u: int) -> int:
    """Lexicographic position of an increasing tuple among n-subsets of [1,u].

    With r = n - j, the subsets that agree before the j-th element e
    (0-indexed) and put it at some v in the gap (prev, e) number
    sum C(u-v, r-1) over the gap, which the hockey-stick identity sums to
    C(u-prev, r) - C(u-e+1, r); a gap of length 0 adds nothing.  `top`
    carries C(u-prev, r) to the next element by Pascal's rule, so an
    element costs at most one `math.comb` and an element at prev+1 none:
    O(n) binomials in all (Knuth, TAOCP 7.2.1.3).
    """
    n = len(elements)
    rank = 0
    prev = 0
    top = math.comb(u, n)
    for j, e in enumerate(elements):
        r = n - j
        low = math.comb(u - e + 1, r) if e > prev + 1 else top
        rank += top - low
        top = low * r // (u - e + 1)  # C(u-e, r-1)
        prev = e
    return rank


def _subset_unrank(rank: int, n: int, u: int) -> Iterator[int]:
    """Yield, in increasing order, the n-subset of [1,u] at `rank`.

    With f(v) = C(u-v, r), r = n - j, the j-th element is the smallest
    v > prev with f(v) < C(u-prev, r) - rank, and it is at most u-r+1,
    where f is 0.  v = prev+1 is tested with one `math.comb` of the next
    step's count C(u-prev-1, r-1); any other v is found by galloping from
    prev+1 and then bisecting, so an element costs O(log(gap)) binomials
    and a set O(n log(u/n)).  The bracketing values carry the count and
    the residual rank to the next step through Pascal's rule.  Elements
    are produced lazily, so a caller may stop early.  A rank outside
    [0, C(u,n)) raises CorruptIndexError before any element is produced.
    """
    top = math.comb(u, n)  # C(u-prev, r): the subsets still possible
    if not 0 <= rank < top:
        raise CorruptIndexError(f"explicit-set payload is not below C({u}, {n})")
    prev = 0
    for r in range(n, 0, -1):
        nxt = math.comb(u - prev - 1, r - 1)  # subsets with v = prev+1
        if rank < nxt:
            v, top = prev + 1, nxt
        else:
            target = top - rank
            # f(lo) >= target > f(hi)
            lo, f_lo = prev + 1, top - nxt
            hi, f_hi = u - r + 1, 0
            step = 1
            while lo + step < hi:
                f = math.comb(u - lo - step, r)
                if f < target:
                    hi, f_hi = lo + step, f
                    break
                lo, f_lo = lo + step, f
                step *= 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                f = math.comb(u - mid, r)
                if f < target:
                    hi, f_hi = mid, f
                else:
                    lo, f_lo = mid, f
            v, rank, top = hi, f_lo - target, f_lo - f_hi
        yield v
        prev = v


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


def build(scheme: str, keys: KeySet, seed: int = 0) -> MmphfIndex:
    """Build an index; member queries return exact 0-indexed ranks."""
    if keys.u > _HEADER_WORD_MAX:  # n <= u, so both header words fit
        raise ValueError("universe size exceeds the 64-bit header word (u <= 2^64 - 1)")
    if scheme == SCHEME_EXPLICIT_SET:
        bits = max(math.comb(keys.u, keys.n) - 1, 0).bit_length()
        payload = BitString(_subset_rank(keys.elements, keys.u), bits)
        return MmphfIndex(scheme, keys.n, keys.u, None, payload)
    if scheme == SCHEME_RANK_MAP:
        payload = _build_rank_map(keys, seed)
        return MmphfIndex(scheme, keys.n, keys.u, seed, payload)
    if scheme == SCHEME_BROKEN:
        return MmphfIndex(scheme, keys.n, keys.u, None, BitString(0, 1))
    raise ValueError(f"unknown scheme {scheme!r}")


def query(index: MmphfIndex, q: int) -> int:
    """Rank answer for q; exact on members, in [0, n-1] otherwise.

    An explicit-set index decodes its payload once per index, on its first
    query (`MmphfIndex.members`); every query is then one bisection.
    """
    if not 1 <= q <= index.u:
        raise ValueError(f"query {q} outside universe [1, {index.u}]")
    if index.scheme == SCHEME_EXPLICIT_SET:
        # the number of members below q, at most n-1
        return min(bisect_left(index.members, q), index.n - 1)
    if index.scheme == SCHEME_RANK_MAP:
        return _query_rank_map(index, q)
    if index.scheme == SCHEME_BROKEN:
        return 0
    raise ValueError(f"unknown scheme {index.scheme!r}")


_ATTEMPT_BITS = 8
_DWIDTH_BITS = 6


def _rank_map_layout(n: int) -> int:
    return max(1, (n - 1).bit_length())


def _build_rank_map(keys: KeySet, seed: int) -> BitString:
    """Hash-displacement table: bucket displacements plus a rank slot array."""
    n = keys.n
    rbits = _rank_map_layout(n)
    for attempt in range(1 << _ATTEMPT_BITS):
        placed = _try_place(keys, seed, attempt)
        if placed is None:
            continue
        displacements, slots = placed
        dmax = max(displacements)
        dwidth = max(1, dmax.bit_length())
        # most significant first: attempt, dwidth, displacements, slots
        value = attempt << _DWIDTH_BITS | dwidth
        for d in displacements:
            value = value << dwidth | d
        for r in slots:
            value = value << rbits | r
        return BitString(value, _ATTEMPT_BITS + _DWIDTH_BITS + n * (dwidth + rbits))
    raise RuntimeError("rank-map construction failed for every attempt salt")


def _try_place(keys: KeySet, seed: int, attempt: int):
    """(displacements, slots) for one salt, or None if some bucket fits nowhere.

    Buckets are placed largest first, each at the smallest displacement d
    that sends its keys' homes h to free slots (h + d) mod n.  Bit d of
    the AND over h of the free-slot mask rotated right by h is set exactly
    when every (h + d) mod n is free, so the lowest set bit is that d.
    Keys of one bucket with equal homes collide at every d.
    """
    n = keys.n
    salt = seed ^ (attempt * 0x9E3779B97F4A7C15)
    bucket_key, home_key = hash_key(salt, 1), hash_key(salt, 2)
    buckets: list = [[] for _ in range(n)]
    for rank, e in enumerate(keys.elements):
        buckets[mix64(e ^ bucket_key) % n].append((e, rank))
    order = sorted(range(n), key=lambda b: (-len(buckets[b]), b))
    full = (1 << n) - 1
    free = full
    slots = [0] * n
    displacements = [0] * n
    for b in order:
        if not buckets[b]:
            break  # every later bucket is empty too
        homes = [mix64(e ^ home_key) % n for e, _ in buckets[b]]
        if len(set(homes)) < len(homes):
            return None
        doubled = free | (free << n)
        fits = full
        for h in homes:
            fits &= doubled >> h
        if not fits:
            return None
        d = (fits & -fits).bit_length() - 1
        displacements[b] = d
        for (e, rank), h in zip(buckets[b], homes):
            p = (h + d) % n
            free ^= 1 << p
            slots[p] = rank
    return displacements, slots


def _query_rank_map(index: MmphfIndex, q: int) -> int:
    n = index.n
    rbits = _rank_map_layout(n)
    payload = index.payload
    attempt = payload.slice_int(0, _ATTEMPT_BITS)
    dwidth = payload.slice_int(_ATTEMPT_BITS, _DWIDTH_BITS)
    salt = (index.seed or 0) ^ (attempt * 0x9E3779B97F4A7C15)
    b = hash64(q, salt, salt=1) % n
    d = payload.slice_int(_ATTEMPT_BITS + _DWIDTH_BITS + b * dwidth, dwidth)
    slot = (hash64(q, salt, salt=2) + d) % n
    return payload.slice_int(_ATTEMPT_BITS + _DWIDTH_BITS + n * dwidth + slot * rbits, rbits)


# ---------------------------------------------------------------------------
# bit-string round trip through rank queries
# ---------------------------------------------------------------------------


def encode_bitstring(bits: Sequence[int]) -> KeySet:
    """Key set over [1, 3d+1] whose anchor ranks spell out the bits.

    Every anchor 3i is a member; its companion sits at 3i-1 when bit i is
    1 and at 3i+1 when it is 0, so rank(3i) = 2(i-1) + bit_i.
    """
    d = len(bits)
    if d < 1:
        raise ValueError("need at least one bit")
    elements = []
    for i, b in enumerate(bits, start=1):
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        elements.append(3 * i - 1 if b else 3 * i)
        elements.append(3 * i if b else 3 * i + 1)
    return KeySet(elements=tuple(elements), u=3 * d + 1)


def decode_bitstring(index: MmphfIndex, d: int) -> tuple:
    """Recover the bits from anchor queries alone; round-trips encode."""
    bits = []
    for i in range(1, d + 1):
        r = query(index, 3 * i)
        b = r - 2 * (i - 1)
        if b not in (0, 1):
            raise CorruptIndexError(
                f"rank({3 * i}) = {r} outside {{{2 * (i - 1)}, {2 * i - 1}}}"
            )
        bits.append(b)
    return tuple(bits)


def bitstring_roundtrip(scheme: str, d: int, seed: int) -> dict:
    """Round-trip all 2^d bit strings of length d through built indexes.

    Returns {d, strings, distinct_payloads, max_payload_bits, ok}; ok holds
    when every string decodes back, the payloads are pairwise distinct and
    some payload takes at least d bits.
    """
    payloads = set()
    max_bits = 0
    ok = True
    for bits in product((0, 1), repeat=d):
        idx = build(scheme, encode_bitstring(bits), seed=seed)
        payloads.add(idx.payload)
        max_bits = max(max_bits, idx.size_bits)
        if decode_bitstring(idx, d) != bits:
            ok = False
    return {
        "d": d,
        "strings": 1 << d,
        "distinct_payloads": len(payloads),
        "max_payload_bits": max_bits,
        "ok": ok and len(payloads) == 1 << d and max_bits >= d,
    }


# ---------------------------------------------------------------------------
# coloring extraction and the counting bound
# ---------------------------------------------------------------------------


def extract_coloring(scheme: str, graph: Graph, seed: int = 0) -> dict:
    """Color every vertex of a built conflict graph by its index payload.

    Each vertex is indexed as a key set over [1, u], with u the largest
    element of any vertex: offset + M for every conflict graph.  Adjacent
    vertices disagree on the rank of a shared element, so a correct scheme
    can never give them equal payloads; a monochromatic edge raises
    SchemeViolationError (that is the executable content of the counting
    argument, and how the broken scheme is caught).
    """
    u = max(v[-1] for v in graph.vertices)
    colors = {}
    for v in graph.vertices:
        idx = build(scheme, KeySet(elements=v, u=u), seed)
        colors[v] = idx.payload
    for (i, j) in graph.edges():
        a, b = graph.vertices[i], graph.vertices[j]
        if colors[a] == colors[b]:
            raise SchemeViolationError(
                f"scheme {scheme!r} colored adjacent vertices {a} and {b} identically"
            )
    return colors


class SchemeStats(NamedTuple):
    scheme: str
    max_bits: int
    mean_bits: Fraction
    distinct: int

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "max_bits": self.max_bits,
            "mean_bits": frac_str(self.mean_bits),
            "distinct": self.distinct,
        }


class BoundReport(NamedTuple):
    """Exact chromatic data next to measured index sizes."""

    chi: int
    chi_f: Fraction
    lower_bound_bits: float  # (log2(chi_f) - 2) / 2; exact when chi_f is 2^j
    schemes: dict  # scheme name -> SchemeStats

    def to_json_dict(self) -> dict:
        return {
            "chi": self.chi,
            "chi_f": frac_str(self.chi_f),
            "lower_bound_bits": self.lower_bound_bits,
            "schemes": {name: s.to_json_dict() for name, s in self.schemes.items()},
        }


def size_lower_bound_bits(chi_f: Fraction) -> float:
    """(log2(chi_f) - 2) / 2: index bits forced by the fractional bound."""
    return (math.log2(chi_f) - 2) / 2


def bound_report(
    scheme: str,
    spec: ConflictSpec,
    seed: int = 0,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> BoundReport:
    """Measure a scheme against the exact coloring bounds on one graph.

    Builds the graph once, for both the exact chromatic data and the
    payload coloring, and checks the counting chain distinct payloads >=
    chi >= chi_f; a correct scheme cannot undercut chi because its
    payloads properly color the graph.
    """
    from .coloring import fractional_chromatic_number  # index-only callers skip coloring and lp

    graph = build_graph(spec, caps)
    report = fractional_chromatic_number(graph, caps)
    colors = extract_coloring(scheme, graph, seed)
    sizes = [c.length for c in colors.values()]
    stats = SchemeStats(
        scheme=scheme,
        max_bits=max(sizes),
        mean_bits=Fraction(sum(sizes), len(sizes)),
        distinct=len(set(colors.values())),
    )
    if not (stats.distinct >= report.chi >= report.chi_f):
        raise SchemeViolationError(
            f"counting bound violated: {stats.distinct} distinct payloads vs chi={report.chi}"
        )
    return BoundReport(
        chi=report.chi,
        chi_f=report.chi_f,
        lower_bound_bits=size_lower_bound_bits(report.chi_f),
        schemes={scheme: stats},
    )


# ---------------------------------------------------------------------------
# block-decomposition parameters
# ---------------------------------------------------------------------------


class FoldParams(NamedTuple):
    """Derived block parameters for splitting n keys over universe u.

    m is the largest integer with 2^(2^(m^6)) <= u, k = floor(n / m), and
    u' = k * 2^(m^(m^2+m)) is the universe the k-fold construction needs;
    the flags certify u' <= u and m <= sqrt(n) by exact comparison.
    """

    n: int
    u: TowerInt
    m: int
    k: int
    u_prime: ScaledPow2
    u_prime_le_u: bool
    m_le_sqrt_n: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "u": tower_str(self.u),
            "m": self.m,
            "k": self.k,
            "u_prime": str(self.u_prime),
            "u_prime_le_u": self.u_prime_le_u,
            "m_le_sqrt_n": self.m_le_sqrt_n,
        }


def parameterize(n: int, u: TowerInt) -> FoldParams:
    """Exact (m, k, u') for a target (n, u); u may be a tower descriptor.

    The exponent m^(m^2+m) of u' is built only if its bound of
    (m^2+m) * bit_length(m) bits is within `caps.MAX_EXPONENT_BITS`.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if tower_cmp(u, 4) < 0:
        raise ValueError("u must be >= 4 so that m >= 1 is attainable")
    # the largest m in [1, n + 1] with 2^(2^(m^6)) <= u is one less than the first
    # j in [2, n + 2) with 2^(2^(j^6)) > u, bisected on ints since n may pass sys.maxsize
    lo, hi = 2, n + 2
    while lo < hi:
        mid = (lo + hi) // 2
        if tower_cmp(pow2(pow2(mid**6)), u) > 0:
            hi = mid
        else:
            lo = mid + 1
    m = lo - 1
    k = n // m
    if k < 1:
        raise ValueError(f"m > n = {n}; no blocks fit")
    caps.check_cap("max_exponent_bits", (m * m + m) * m.bit_length(), caps.MAX_EXPONENT_BITS)
    u_prime = ScaledPow2(mantissa=k, exponent=m ** (m * m + m))
    return FoldParams(
        n=n,
        u=u,
        m=m,
        k=k,
        u_prime=u_prime,
        u_prime_le_u=u_prime.le(u),
        m_le_sqrt_n=m * m <= n,
    )

