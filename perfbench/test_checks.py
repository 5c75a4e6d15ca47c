"""The benchmark's checkers accept real artifacts and reject corrupted copies.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from mmphf_lab.cli import main  # noqa: E402

KEYS = [3, 17, 40, 41, 200, 777, 901, 999]


def artifact(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def test_chif_dual_weight_raised():
    real = artifact("chif", "--graph", "shift", "--n", 2, "--u", 6)
    checks.check_chif(real, "shift", 2, 6)
    bad = copy.deepcopy(real)
    v, w = next(iter(bad["dual"]["weights"].items()))
    bad["dual"]["weights"][v] = str(Fraction(w) + Fraction(1, 7))
    with pytest.raises(checks.CheckError, match="dual"):
        checks.check_chif(bad, "shift", 2, 6)


@pytest.mark.parametrize("scheme", ["rank-map", "explicit-set"])
def test_mmphf_verify_rank_off_by_one(scheme):
    real = artifact("mmphf-verify", "--scheme", scheme, "--keys", ",".join(map(str, KEYS)), "--u", 1000)
    checks.check_mmphf_verify(real, scheme, KEYS, 1000)
    bad = copy.deepcopy(real)
    bad["answers"][3][1] += 1
    with pytest.raises(checks.CheckError, match="rank of"):
        checks.check_mmphf_verify(bad, scheme, KEYS, 1000)


@pytest.mark.parametrize("argv,checker", [
    (["chi", "--graph", "shift", "--n", 2, "--u", 9], checks.check_chi),
    (["chif", "--graph", "shift", "--n", 2, "--u", 9], checks.check_chif),
])
def test_wrong_chi(argv, checker):
    real = artifact(*argv)
    checker(real, "shift", 2, 9)
    bad = copy.deepcopy(real)
    bad["chi"] += 1
    with pytest.raises(checks.CheckError, match="colours"):
        checker(bad, "shift", 2, 9)
