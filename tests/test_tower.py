import pytest

from mmphf_lab.tower import (
    Pow2,
    ScaledPow2,
    parse_tower,
    pow2,
    tower_cmp,
    tower_str,
)


class TestPow2:
    def test_small_exponents_materialize(self):
        assert pow2(3) == 8
        assert pow2(64) == 1 << 64

    def test_large_exponents_stay_symbolic(self):
        t = pow2(10**9)
        assert isinstance(t, Pow2) and t.exponent == 10**9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pow2(-1)


class TestCompare:
    def test_int_int(self):
        assert tower_cmp(3, 5) == -1
        assert tower_cmp(5, 5) == 0

    def test_pow2_vs_int_greater(self):
        assert tower_cmp(Pow2(1000), 10**300) == 1

    def test_pow2_vs_int_equal(self):
        assert tower_cmp(Pow2(100), 1 << 100) == 0

    def test_pow2_vs_int_less(self):
        assert tower_cmp(Pow2(100), (1 << 100) + 1) == -1
        assert tower_cmp(Pow2(100), 1 << 101) == -1

    def test_nested(self):
        a = Pow2(Pow2(100))  # 2^(2^100)
        b = Pow2(Pow2(101))
        assert tower_cmp(a, b) == -1
        assert tower_cmp(a, a) == 0
        assert tower_cmp(a, 10**10) == 1

    def test_mixed_depth(self):
        # 2^(2^7) = 2^128 comparable against materialized ints
        assert tower_cmp(Pow2(Pow2(7)), 1 << 128) == 0
        assert tower_cmp(1 << 127, Pow2(Pow2(7))) <= 0


class TestScaledPow2:
    def test_against_int(self):
        v = ScaledPow2(3, 4)  # 48
        assert v.cmp(47) == 1 and v.cmp(48) == 0 and v.cmp(49) == -1

    def test_against_pow2_power_of_two_mantissa(self):
        v = ScaledPow2(8, 61)  # 2^64
        assert v.cmp(Pow2(64)) == 0
        assert v.cmp(Pow2(65)) == -1
        assert v.cmp(Pow2(63)) == 1

    def test_against_pow2_general_mantissa(self):
        v = ScaledPow2(3, 10)  # 3 * 2^10, between 2^11 and 2^12
        assert v.cmp(Pow2(11)) == 1
        assert v.cmp(Pow2(12)) == -1
        assert v.cmp(Pow2(10**9)) == -1

    def test_against_nested_tower(self):
        v = ScaledPow2(512, 64)  # 2^73
        assert v.le(Pow2(1 << 64))
        assert v.cmp(Pow2(Pow2(4))) == 1  # 2^16

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledPow2(0, 3)

    def test_against_pow2_matches_the_built_values(self):
        for c in range(1, 70):
            for e in range(0, 140, 3):
                v = c << e
                for t in range(200):
                    assert ScaledPow2(c, e).cmp(Pow2(t)) == (v > 1 << t) - (v < 1 << t)
                # 2^128 is still built; the deeper towers exceed every c * 2^e here
                assert ScaledPow2(c, e).cmp(Pow2(Pow2(7))) == (v > 1 << 128) - (v < 1 << 128)
                for deep in (Pow2(Pow2(8)), Pow2(Pow2(Pow2(6))), Pow2(Pow2(Pow2(Pow2(64))))):
                    assert ScaledPow2(c, e).cmp(deep) == -1

    def test_str_of_an_exponent_past_the_digit_limit(self):
        assert str(ScaledPow2(10, 100**10100)) == "10*2^1" + "0" * 20200


class TestParse:
    def test_plain_int(self):
        assert parse_tower("12345") == 12345

    def test_tower(self):
        t = parse_tower("2^2^64")
        assert isinstance(t, Pow2) and t.exponent == 1 << 64

    def test_small_tower_materializes(self):
        assert parse_tower("2^10") == 1024

    def test_non_base2_rejected(self):
        with pytest.raises(ValueError):
            parse_tower("3^5")

    def test_str_roundtrip(self):
        assert tower_str(parse_tower("2^2^100")) == "2^2^100"
        assert tower_str(65536) == "65536"
        assert str(parse_tower("2^2^100")) == "2^2^100"
