"""The benchmark's workloads: fixed lists of mmphf-lab subcommand calls.

Each workload builds its argument lists from the run seed, writes any key
files it needs into the run's work directory, and pairs every call with
the independent check of its output.  README.md lists the calls.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import checks

# Rank-map build time is a geometric random variable of the key set: a
# salt whose buckets collide costs 4n^2 probes before the next salt is
# tried (about 2 s at n=256 here, against 0.01 s when the first salt
# works).  Key sets drawn from the run seed would make every rank-index
# metric spread by far more than any bound, so the rank-map inputs come
# from this fixed generator seed; they were not screened, and with it the
# n=64 file and the sx-roundtrip sets still go through failed salts.
RANK_MAP_KEY_SEED = 0
RANK_MAP_U = 2**20
EXPLICIT_SET_N, EXPLICIT_SET_U = 32, 2 * 10**4

# A canonical m=3 trace holds integers of about 531,441 bits, and their
# decimal conversion (quadratic in the digits on Python 3.11) cost
# 1.84 s to 2.44 s in-process over five seeds on a 2-vCPU virtual machine,
# steady within 0.1 s for each seed.  That call's seed is fixed, not
# screened, so cli-sweep does not swing with the run seed.
SAMPLE_M3_SEED = 0


@dataclass
class Op:
    argv: list
    check: Callable[[str], None]
    passed: set = field(default_factory=set)  # output digests already checked

    def __post_init__(self):
        self.argv = [str(a) for a in self.argv]

    @property
    def name(self) -> str:
        return self.argv[0]


def json_op(argv, checker, *context) -> Op:
    return Op(argv, lambda text: checker(checks.parse_json(text), *context))


def draw_keys(seed, n, u) -> list:
    return sorted(random.Random(f"{seed}/{n}/{u}").sample(range(1, u + 1), n))


def draw_spread_keys(seed, n, u) -> list:
    """One key uniform in each of n equal slices of [1, u].

    Explicit-set decoding costs the gap before each key times a binomial
    whose size grows with the number of keys still to come; with uniform
    keys that work moves by +-10% between seeds, with one key per slice by
    under 1%.
    """
    rng = random.Random(f"{seed}/{n}/{u}")
    width = u // n
    return [j * width + rng.randint(1, width) for j in range(n)]


def write_keys(path, keys, u) -> str:
    path.write_text(f"u={u}\n" + "".join(f"{e}\n" for e in keys))
    return str(path)


def chif_certify(seed, workdir) -> list:
    """Few long calls: exact chi_f with certificates, and chi near a colour cliff."""
    offset = random.Random(seed).randrange(100)  # conflict graphs are translation invariant
    s = ["--seed", seed]
    return [
        json_op(["chif", "--graph", "shift", "--n", 2, "--u", 10, *s], checks.check_chif, "shift", 2, 10),
        json_op(["chif", "--graph", "conflict", "--m", 3, "--M", 8, "--offset", offset, *s],
                checks.check_chif, "conflict", 3, 8, offset),
        json_op(["chi", "--graph", "shift", "--n", 2, "--u", 15, *s], checks.check_chi, "shift", 2, 15),
    ]


def rank_index(seed, workdir) -> list:
    """Rank-index builds and queries: both schemes, round trips and key files."""
    ops = [
        json_op(["sx-roundtrip", "--scheme", "rank-map", "--max-d", 7],
                checks.check_sx_roundtrip, "rank-map", 7),
        json_op(["sx-roundtrip", "--scheme", "explicit-set", "--max-d", 10],
                checks.check_sx_roundtrip, "explicit-set", 10),
    ]
    for n in (64, 256, 512):
        keys = draw_keys(RANK_MAP_KEY_SEED, n, RANK_MAP_U)
        path = write_keys(workdir / f"rank-map-{n}.keys", keys, RANK_MAP_U)
        ops.append(json_op(["mmphf-verify", "--scheme", "rank-map", "--keys-file", path],
                           checks.check_mmphf_verify, "rank-map", keys, RANK_MAP_U))
    keys = draw_spread_keys(seed, EXPLICIT_SET_N, EXPLICIT_SET_U)
    path = write_keys(workdir / f"explicit-set-{EXPLICIT_SET_N}.keys", keys, EXPLICIT_SET_U)
    ops.append(json_op(["mmphf-verify", "--scheme", "explicit-set", "--keys-file", path],
                       checks.check_mmphf_verify, "explicit-set", keys, EXPLICIT_SET_U))
    return ops


def cli_sweep(seed, workdir) -> list:
    """Many short calls covering every subcommand at small sizes."""
    rng = random.Random(seed)
    u = rng.randint(8, 12)
    pairs = sorted(rng.sample(list(combinations(range(1, 7), 2)), 4))
    weights = [rng.randint(1, 5) for _ in pairs]
    outcomes = [(t, Fraction(w, sum(weights))) for t, w in zip(pairs, weights)]
    tuples = ";".join(f"{a},{b}={q.numerator}/{q.denominator}" for (a, b), q in outcomes)
    labels = [rng.randint(1, 3) for _ in range(16)]
    rank_keys = sorted(rng.sample(range(1, 1001), 8))
    set_keys = sorted(rng.sample(range(1, 1001), 8))
    set_path = write_keys(workdir / "explicit-set-8.keys", set_keys, 1000)
    n_param = rng.randint(64, 4096)
    s = ["--seed", seed]
    return [
        json_op(["graph", "--graph", "shift", "--n", 2, "--u", u], checks.check_graph_summary, 2, u),
        Op(["graph", "--graph", "conflict", "--m", 2, "--M", 6, "--export", "dimacs"],
           lambda text: checks.check_dimacs(text, "conflict", 2, 6)),
        json_op(["chi", "--graph", "shift", "--n", 2, "--u", 9], checks.check_chi, "shift", 2, 9),
        json_op(["chif", "--graph", "conflict", "--m", 2, "--M", 5], checks.check_chif, "conflict", 2, 5),
        json_op(["sample", "--m", 2, "--defaults", "--trials", 5, *s], checks.check_sample, 2, 5),
        json_op(["sample", "--m", 3, "--defaults", "--trials", 1, "--seed", SAMPLE_M3_SEED],
                checks.check_sample, 3, 1),
        json_op(["enumerate", "--m", 2, "--k", 2, "--s0", 8], checks.check_enumerate, 2, 2, 8),
        json_op(["adversary", "--tuples", tuples], checks.check_adversary, outcomes),
        json_op(["prune", "--arity", 2, "--depth", 3, "--labels", ",".join(map(str, labels)),
                 "--index", 1, "--tau", "2/5"], checks.check_prune, 2, 3, labels, 1, "2/5"),
        json_op(["case1-sweep", "--instances", 100, *s], checks.check_case1_sweep, 100),
        json_op(["bound-report", "--scheme", "explicit-set", "--m", 2, "--M", 5, *s],
                checks.check_bound_report, "explicit-set", 2, 5),
        json_op(["mmphf-verify", "--scheme", "rank-map", "--keys", ",".join(map(str, rank_keys)),
                 "--u", 1000, *s], checks.check_mmphf_verify, "rank-map", rank_keys, 1000),
        json_op(["mmphf-verify", "--scheme", "explicit-set", "--keys-file", set_path],
                checks.check_mmphf_verify, "explicit-set", set_keys, 1000),
        json_op(["sx-roundtrip", "--scheme", "explicit-set", "--max-d", 4],
                checks.check_sx_roundtrip, "explicit-set", 4),
        json_op(["parameterize", "--n", n_param, "--u", "2^2^64"], checks.check_parameterize, n_param, 64),
    ]


WORKLOADS = {"chif-certify": chif_certify, "rank-index": rank_index, "cli-sweep": cli_sweep}
