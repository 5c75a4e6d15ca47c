import json
import subprocess
import sys

import pytest

from mmphf_lab.cli import main
from mmphf_lab.serialize import int_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
