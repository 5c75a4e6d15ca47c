import csv
import json
import re
import subprocess
import sys

import pytest

from mmphf_lab import mmphf
from mmphf_lab.cli import main
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


class TestGraph:
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


class TestBoundReport:
    def test_conflict_2_4(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound-report", "--scheme", "explicit-set", "--m", "2", "--M", "4"
        )
        data = json.loads(out)
        assert code == 0
        assert data["chi"] == 2 and data["chi_f"] == "2/1"
        assert data["lower_bound_bits"] == -0.5


class TestSxRoundtrip:
    def test_small(self, capsys):
        code, out, _ = run_cli(capsys, "sx-roundtrip", "--max-d", "4")
        data = json.loads(out)
        assert code == 0 and data["ok"]
        assert [r["distinct_payloads"] for r in data["rounds"]] == [2, 4, 8, 16]


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
    """Unreadable inputs and unwritable outputs exit 2 with one stderr line."""

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
        ],
        ids=[
            "out", "keys-file", "dist-file", "empty-dist",
            "dist-no-outcomes", "dist-list", "dist-float-prob", "dist-int-tuple",
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
        proc = subprocess.run(
            [sys.executable, "-m", "mmphf_lab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "mmphf-lab" in proc.stdout
