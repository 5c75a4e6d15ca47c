import csv
import json
import random
import re
import subprocess
import sys

import pytest

from fresh import run_cli_fresh
from mmphf_lab import mmphf, serialize, windowtree
from mmphf_lab.cli import main
from mmphf_lab.rng import derive_seed
from mmphf_lab.serialize import int_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_table(out):
    """(header, body rows) of a CSV artifact, below its `# meta` line."""
    lines = out.splitlines()
    assert lines[0].startswith("# mmphf-lab")
    header, *body = csv.reader(lines[1:])
    return header, body


# one small call per subcommand
SMALL_CALLS = {
    "graph": ["--graph", "conflict", "--m", "2", "--M", "4"],
    "chi": ["--graph", "shift", "--n", "2", "--u", "6"],
    "chif": ["--graph", "conflict", "--m", "2", "--M", "4"],
    "sample": ["--m", "2", "--k", "2", "--s0", "8", "--trials", "2"],
    "enumerate": ["--m", "1", "--k", "2", "--s0", "4"],
    "adversary": ["--tuples", "1,2=1/2;2,3=1/2"],
    "prune": ["--arity", "2", "--depth", "1", "--labels", "1,1,2,2", "--index", "1",
              "--tau", "2/5"],
    "case1-sweep": ["--instances", "6", "--seed", "5"],
    "mmphf-verify": ["--scheme", "rank-map", "--keys", "3,17,40,99", "--u", "100"],
    "bound-report": ["--scheme", "explicit-set", "--m", "2", "--M", "4"],
    "sx-roundtrip": ["--max-d", "3"],
    "parameterize": ["--n", "1024", "--u", "2^2^64"],
}


class TestChif:
    def test_conflict_2_4_json(self, capsys):
        code, out, _ = run_cli(capsys, "chif", "--graph", "conflict", "--m", "2", "--M", "4")
        assert code == 0
        data = json.loads(out)
        assert data["chi_f"] == "2/1"
        assert data["chi"] == 2
        assert data["primal"]["value"] == data["dual"]["value"] == "2/1"
        assert data["meta"]["tool"] == "mmphf-lab"

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "chif", "--graph", "conflict", "--m", "4", "--M", "100")
        assert code == 2
        assert "max_vertices" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("chif", "--graph", "conflict", "--m", "2", "--M", "5", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestChi:
    def test_shift(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--graph", "shift", "--n", "2", "--u", "8")
        assert code == 0
        assert json.loads(out)["chi"] == 3

    def test_chi_search_node_cap_fresh_process(self):
        # shift(2,17) needs more than the default 10**6 DSATUR nodes
        proc = run_cli_fresh("chi", "--graph", "shift", "--n", "2", "--u", "17", timeout=120)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "max_search_nodes" in proc.stderr


class TestGraph:
    @pytest.mark.parametrize(
        "family_flags, message",
        [
            (["shift", "--n", "2", "--u", "5", "--offset", "7", "--M", "99"],
             "shift graphs take no --M, --offset"),
            (["conflict", "--m", "2", "--M", "4", "--n", "2", "--u", "5"],
             "conflict graphs take no --n, --u"),
        ],
    )
    def test_flags_of_the_other_family_are_named(self, capsys, family_flags, message):
        code, out, err = run_cli(capsys, "graph", "--graph", *family_flags)
        assert (code, out, err) == (2, "", f"mmphf-lab: error: {message}\n")

    def test_shift_keeps_an_explicit_zero_offset(self, capsys):
        argv = ("graph", "--graph", "shift", "--n", "2", "--u", "5")
        assert run_cli(capsys, *argv, "--offset", "0") == run_cli(capsys, *argv)

    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--graph", "conflict", "--m", "2", "--M", "4")
        data = json.loads(out)
        assert code == 0 and data["vertices"] == 6 and data["edges"] == 4

    def test_dimacs_export(self, capsys, tmp_path):
        out_file = tmp_path / "g.dimacs"
        code, _, _ = run_cli(
            capsys, "graph", "--graph", "shift", "--n", "2", "--u", "4",
            "--export", "dimacs", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert any(ln.startswith("p edge 6 4") for ln in lines)

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "graph", "--graph", "conflict")
        assert code == 2 and "conflict graphs need" in err


class TestSample:
    def test_traces_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--m", "2", "--defaults", "--trials", "5", "--seed", "7"
        )
        data = json.loads(out)
        assert code == 0
        assert len(data["traces"]) == 5
        assert all(tr["verified"] for tr in data["traces"])
        assert data["params"] == {"m": 2, "k": 4, "s0": 64}

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--m", "2", "--k", "2", "--s0", "8",
            "--trials", "2", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].startswith("# mmphf-lab")
        assert lines[1] == "trial,seed,verified,y,z,x,s"
        assert len(lines) == 4

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--m", "2", "--k", "1", "--s0", "8")
        assert code == 2


class TestEnumerateAndAdversary:
    def test_enumerate_normalized(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "1", "--k", "2", "--s0", "4")
        data = json.loads(out)
        assert code == 0
        assert len(data["outcomes"]) == 16
        assert all(p == "1/16" for _, p in data["outcomes"])

    def test_enumerate_cap(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--m", "2", "--k", "2", "--s0", "16")
        assert code == 2 and "max_outcomes" in err

    def test_adversary_inline(self, capsys):
        code, out, _ = run_cli(capsys, "adversary", "--tuples", "1,2=1/2;2,3=1/2")
        data = json.loads(out)
        assert code == 0
        assert data["max_probability"] == "1/2"

    def test_adversary_label_function_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "adversary", "--tuples", "1,2=1/2;3,4=1/2", "--max-label-functions", "3"
        )
        assert code == 2 and "max_label_functions" in err

    def test_adversary_from_enumerate_file(self, capsys, tmp_path):
        dist_file = tmp_path / "dist.json"
        run_cli(
            capsys, "enumerate", "--m", "1", "--k", "2", "--s0", "4",
            "--out", str(dist_file),
        )
        code, out, _ = run_cli(capsys, "adversary", "--dist-file", str(dist_file))
        data = json.loads(out)
        assert code == 0 and data["max_probability"] == "1/1"


class TestPrune:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "prune", "--arity", "2", "--depth", "1",
            "--labels", "1,1,2,2", "--index", "1", "--tau", "2/5",
        )
        data = json.loads(out)
        assert code == 0
        assert [lvl["p"] for lvl in data["levels"]] == ["0/1", "1/2"]


class TestCase1Sweep:
    def test_all_hold(self, capsys):
        code, out, _ = run_cli(capsys, "case1-sweep", "--instances", "25", "--seed", "5")
        data = json.loads(out)
        assert code == 0 and data["all_hold"]
        assert len(data["instances"]) == 25

    def test_one_prune_per_instance(self, capsys, monkeypatch):
        calls = []
        prune = windowtree.prune
        monkeypatch.setattr(windowtree, "prune", lambda *args: calls.append(args) or prune(*args))
        code, out, _ = run_cli(capsys, "case1-sweep", "--instances", "100")
        assert code == 0 and json.loads(out)["all_hold"]
        assert len(calls) == 100


class TestMmphfVerify:
    def test_inline_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "mmphf-verify", "--scheme", "explicit-set",
            "--keys", "2,3,6,7", "--u", "8",
        )
        data = json.loads(out)
        assert code == 0 and data["ok"]
        assert data["answers"] == [[2, 0], [3, 1], [6, 2], [7, 3]]

    def test_keys_file(self, capsys, tmp_path):
        kf = tmp_path / "keys.txt"
        kf.write_text("u=16\n3\n9\n12\n")
        code, out, _ = run_cli(
            capsys, "mmphf-verify", "--scheme", "rank-map", "--keys-file", str(kf),
            "--seed", "4",
        )
        assert code == 0 and json.loads(out)["ok"]

    def test_explicit_set_near_2_to_the_64_fresh_process(self):
        proc = run_cli_fresh(
            "mmphf-verify", "--scheme", "explicit-set",
            "--keys", "5,18446744073709551000", "--u", "18446744073709551615",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_explicit_set_256_keys_over_a_million_fresh_process(self):
        # one decode of the payload serves every key's query
        keys = sorted(random.Random(256).sample(range(1, 10**6 + 1), 256))
        proc = run_cli_fresh(
            "mmphf-verify", "--scheme", "explicit-set",
            "--keys", ",".join(map(str, keys)), "--u", str(10**6),
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True and data["answers"] == [[e, j] for j, e in enumerate(keys)]

    def test_universe_beyond_the_64_bit_header_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "mmphf-verify", "--scheme", "rank-map",
            "--keys", "1,5,1180591620717411303420", "--u", str(2**70),
        )
        assert code == 2 and out == ""
        assert err.startswith("mmphf-lab: error: ") and "64-bit header" in err


class TestBoundReport:
    def test_conflict_2_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound-report", "--scheme", "explicit-set", "--m", "2", "--M", "4"
        )
        data = json.loads(out)
        assert code == 0
        assert data["chi"] == 2 and data["chi_f"] == "2/1"
        assert data["lower_bound_bits"] == -0.5

    def test_builds_one_graph(self, capsys, monkeypatch):
        specs = []
        build_graph = mmphf.build_graph
        monkeypatch.setattr(
            mmphf, "build_graph", lambda spec, *rest: specs.append(spec) or build_graph(spec, *rest)
        )
        code, out, _ = run_cli(
            capsys, "bound-report", "--scheme", "explicit-set", "--m", "2", "--M", "5"
        )
        assert code == 0 and json.loads(out)["chi"] == 3
        assert len(specs) == 1


class TestSxRoundtrip:
    def test_small(self, capsys):
        code, out, _ = run_cli(capsys, "sx-roundtrip", "--max-d", "4")
        data = json.loads(out)
        assert code == 0 and data["ok"]
        assert [r["distinct_payloads"] for r in data["rounds"]] == [2, 4, 8, 16]

    def test_index_count_meets_max_outcomes_at_the_boundary(self, capsys):
        # rounds 1..3 build 2 + 4 + 8 = 14 indexes
        argv = ("sx-roundtrip", "--max-d", "3", "--max-outcomes")
        assert run_cli(capsys, *argv, "14")[0] == 0
        code, out, err = run_cli(capsys, *argv, "13")
        assert code == 2 and out == ""
        assert err == "mmphf-lab: enumeration cap exceeded: max_outcomes (required 14 > limit 13)\n"

    def test_default_cap_refuses_max_d_23(self):
        proc = run_cli_fresh("sx-roundtrip", "--max-d", "23", timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("mmphf-lab: enumeration cap exceeded: max_outcomes "
                               "(required 16777214 > limit 10000000)\n")


class TestParameterize:
    def test_tower(self, capsys):
        code, out, _ = run_cli(capsys, "parameterize", "--n", "1024", "--u", "2^2^64")
        data = json.loads(out)
        assert code == 0
        assert data["m"] == 2 and data["k"] == 512 and data["u_prime_le_u"]

    def test_too_small_u(self, capsys):
        code, _, err = run_cli(capsys, "parameterize", "--n", "8", "--u", "3")
        assert code == 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestIntStrDigitLimit:
    def test_sample_under_unlimited_digits(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, _, _ = run_cli(capsys, "sample", "--m", "2", "--defaults")
            assert sys.get_int_max_str_digits() == 0
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 0

    def test_wide_integer_leaves_the_limit_as_found(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            assert int_str(10**5000) == "1" + "0" * 5000
            assert sys.get_int_max_str_digits() == 1000
        finally:
            sys.set_int_max_str_digits(saved)


def _int_str_cases():
    """Small values, powers of two around the leaf cut-off and its first two
    split widths, powers of ten around the interpreter's digit limits, and one
    random width per octave up to 2·10⁶ bits."""
    leaf = serialize._LEAF_BITS
    xs = [0, 1, -1, 7, -7]
    for k in (leaf, 2 * leaf, 4 * leaf):
        xs += [2**k - 1, 2**k, 2**k + 1, -(2**k + 1)]
    xs += [10**k for k in (639, 640, 4300, 5000)]
    rng = random.Random(0)
    for octave in range(21):
        width = rng.randrange(1 << octave, min(2 << octave, 2_000_001))
        xs.append(rng.choice((1, -1)) * (rng.getrandbits(width) | 1 << (width - 1)))
    return xs


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestIntStrMatchesStr:
    @pytest.fixture(scope="class")
    def expected(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return [(x, str(x)) for x in _int_str_cases()]
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("limit", [640, 1000, 0])
    def test_equals_str_and_leaves_the_limit(self, expected, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for x, text in expected:
                assert int_str(x) == text, x.bit_length()
                assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("command", sorted(SMALL_CALLS))
def test_csv_header_matches_help(capsys, command):
    assert main([command, "--help"]) == 0
    described = re.search(r"CSV columns: ([^.]*)\.", " ".join(capsys.readouterr().out.split()))
    code, out, _ = run_cli(capsys, command, *SMALL_CALLS[command], "--format", "csv")
    assert code == 0
    assert csv_table(out)[0] == described.group(1).split(", ")


class TestCsvRowsFromRecords:
    """CSV body rows are the JSON records projected onto the CSV columns."""

    @staticmethod
    def both(capsys, command):
        argv = [command, *SMALL_CALLS[command]]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        return json.loads(out), csv_table(csv_out)

    @pytest.mark.parametrize(
        "command, records", [("prune", "levels"), ("case1-sweep", "instances"),
                             ("sx-roundtrip", "rounds")]
    )
    def test_record_lists(self, capsys, command, records):
        data, (header, body) = self.both(capsys, command)
        assert body == [[str(rec[c]) for c in header] for rec in data[records]]

    def test_mmphf_verify(self, capsys):
        data, (header, body) = self.both(capsys, "mmphf-verify")
        assert header == ["element", "rank", "ok"]
        assert body == [[str(e), str(r), str(r == j)] for j, (e, r) in enumerate(data["answers"])]

    def test_failed_verification_writes_its_artifact(self, capsys, monkeypatch, tmp_path):
        real = mmphf.query
        monkeypatch.setattr(mmphf, "query", lambda index, e: real(index, e) + 1)
        out_file = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "mmphf-verify", *SMALL_CALLS["mmphf-verify"],
                             "--out", str(out_file))
        assert code == 2
        assert json.loads(out_file.read_text())["ok"] is False


class TestIoErrors:
    """Unreadable or malformed inputs and unwritable outputs exit 2 with one stderr line."""

    @pytest.mark.parametrize(
        "argv, dist_text",
        [
            (
                ["chi", "--graph", "shift", "--n", "2", "--u", "4", "--out", "{missing}/x.json"],
                None,
            ),
            (["mmphf-verify", "--scheme", "rank-map", "--keys-file", "{missing}"], None),
            (["adversary", "--dist-file", "{missing}"], None),
            (["adversary", "--dist-file", "{dist}"], '{"outcomes": []}'),
            (["adversary", "--dist-file", "{dist}"], '{"m": 2}'),
            (["adversary", "--dist-file", "{dist}"], "[1, 2]"),
            (
                ["adversary", "--dist-file", "{dist}"],
                '{"outcomes": [[[1, 2], 0.5], [[2, 3], 0.5]]}',
            ),
            (["adversary", "--dist-file", "{dist}"], '{"outcomes": [[1, "1/1"]]}'),
            (["adversary", "--tuples", "1,2=1/0"], None),
            (["adversary", "--dist-file", "{dist}"], '{"outcomes": [[[1, 2], "1/0"]]}'),
            (
                ["prune", "--arity", "2", "--depth", "1", "--labels", "1,2", "--index", "1",
                 "--tau", "1/0"],
                None,
            ),
            (["sample", "--m", "4", "--defaults"], None),
            (["adversary", "--tuples", "1,2=1", "--universe", "0"], None),
            (["graph", "--graph", "shift", "--n", "2", "--u", "5", "--offset", "7"], None),
            (["graph", "--graph", "shift", "--n", "2", "--u", "5", "--m", "2", "--M", "99"], None),
            (["chi", "--graph", "conflict", "--m", "2", "--M", "4", "--n", "2"], None),
            (["chif", "--graph", "conflict", "--m", "2", "--M", "4", "--u", "5"], None),
        ],
        ids=[
            "out", "keys-file", "dist-file", "empty-dist",
            "dist-no-outcomes", "dist-list", "dist-float-prob", "dist-int-tuple",
            "tuples-zero-denominator", "dist-zero-denominator", "tau-zero-denominator",
            "sample-wider-than-a-draw", "adversary-universe-0",
            "shift-offset", "shift-m-M", "conflict-n", "conflict-u",
        ],
    )
    def test_exit_2(self, capsys, tmp_path, argv, dist_text):
        dist = tmp_path / "dist.json"
        if dist_text is not None:
            dist.write_text(dist_text)
        argv = [a.format(missing=tmp_path / "missing", dist=dist) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("mmphf-lab: error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestFlagRanges:
    """--seed outside [0, 2^64) and counts below their floor are usage errors."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--m", "2", "--defaults", "--seed", str(2**64 + 1)], "--seed"),
            (["sample", "--m", "2", "--defaults", "--seed", str(2**64)], "--seed"),
            (["sample", "--m", "2", "--defaults", "--seed", "-5"], "--seed"),
            (["chi", "--graph", "shift", "--n", "2", "--u", "4", "--seed", "-1"], "--seed"),
            (["sample", "--m", "2", "--defaults", "--trials", "-1"], "--trials"),
            (["sample", "--m", "2", "--defaults", "--trials", "0"], "--trials"),
            (["case1-sweep", "--instances", "0"], "--instances"),
            (["case1-sweep", "--instances", "-3"], "--instances"),
            (["case1-sweep", "--max-arity", "1"], "--max-arity"),
            (["case1-sweep", "--max-depth", "0"], "--max-depth"),
            (["case1-sweep", "--max-arity", "1", "--max-depth", "-2"], "--max-arity"),
            (["sx-roundtrip", "--max-d", "-1"], "--max-d"),
            (["sx-roundtrip", "--max-d", "0"], "--max-d"),
        ],
    )
    def test_exit_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: argument {flag}: must be " in err

    def test_non_integer_is_still_an_invalid_int(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--m", "2", "--defaults", "--seed", "x")
        assert code == 2 and "argument --seed: invalid int value: 'x'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["case1-sweep", "--instances", "1", "--max-arity", "2", "--max-depth", "1"],
            ["sx-roundtrip", "--max-d", "1"],
            ["sample", "--m", "2", "--defaults", "--trials", "1"],
        ],
    )
    def test_floors_are_accepted(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--m", "2", "--defaults", "--seed", str(2**64 - 1))
        data = json.loads(out)
        assert code == 0 and data["meta"]["seed"] == 2**64 - 1
        assert data["traces"][0]["seed"] == derive_seed(2**64 - 1, 0)

    def test_floor_of_case1_sweep_builds_binary_trees_of_depth_1(self, capsys):
        code, out, _ = run_cli(capsys, "case1-sweep", "--instances", "5", "--max-arity", "2",
                               "--max-depth", "1")
        assert code == 0
        assert {(r["arity"], r["depth"]) for r in json.loads(out)["instances"]} == {(2, 1)}


class TestAstronomicalInputs:
    """Canonical and tower-sized inputs end cleanly in a child with bounded memory and time."""

    @pytest.mark.parametrize("m", [3, 4])
    def test_canonical_enumerate_names_the_cap(self, m):
        proc = run_cli_fresh("enumerate", "--m", str(m), "--defaults")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("mmphf-lab: enumeration cap exceeded: max_outcomes ")
        assert proc.stderr.count("\n") == 1

    def test_parameterize_m_beyond_n(self):
        proc = run_cli_fresh("parameterize", "--n", "1024", "--u", "2^2^2^2^64")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "mmphf-lab: error: m > n = 1024; no blocks fit\n"

    def test_parameterize_exponent_too_wide_names_the_cap(self):
        proc = run_cli_fresh("parameterize", "--n", "1000000", "--u", "2^2^1" + "0" * 36)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("mmphf-lab: enumeration cap exceeded: max_exponent_bits "
                               "(required 20000020000000 > limit 1000000)\n")

    def test_parameterize_exponent_past_the_digit_limit(self):
        proc = run_cli_fresh("parameterize", "--n", "1000", "--u", "2^2^1000000000000")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["m"] == 100 and data["k"] == 10
        assert data["u_prime"] == "10*2^" + int_str(100**10100)
        assert data["u_prime_le_u"] is True and data["m_le_sqrt_n"] is False

    def test_prune_depth_past_the_digit_limit(self):
        proc = run_cli_fresh(
            "prune", "--arity", "2", "--depth", "1000000", "--labels", "1,2",
            "--index", "1", "--tau", "1/2",
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "mmphf-lab: error: root length 2 is not arity^depth = 2^1000000 times an integer\n"
        )

    def test_sx_roundtrip_sweep_names_the_cap(self):
        # 2^41 - 2 indexes: refused before the first round
        proc = run_cli_fresh("sx-roundtrip", "--max-d", "40", timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("mmphf-lab: enumeration cap exceeded: max_outcomes "
                               "(required 2199023255550 > limit 10000000)\n")

    def test_case1_sweep_tree_names_the_cap_before_building_levels(self):
        proc = run_cli_fresh(
            "case1-sweep", "--instances", "1", "--max-arity", "100000", "--max-depth", "100000",
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert re.fullmatch(
            r"mmphf-lab: enumeration cap exceeded: max_vertices "
            r"\(required at least 2\^\d+ > limit 1000000\)\n",
            proc.stderr,
        )


class TestUsage:
    def test_unknown_flag_exit_2(self, capsys):
        code = main(["chif", "--graph", "conflict", "--m", "2", "--M", "4", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_console_script_runs(self):
        proc = run_cli_fresh("--version")
        assert proc.returncode == 0
        assert "mmphf-lab" in proc.stdout

    def test_fresh_process_loads_neither_scipy_nor_numpy(self):
        script = (
            "import sys, mmphf_lab, mmphf_lab.cli\n"
            "assert mmphf_lab.cli.main(['--version']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy'))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
