"""Size caps and the STS_MAX_ORDER override."""

import re

import pytest

import stspread.system as system_module
from stspread import (
    BadOrderError,
    TooLargeError,
    ag3,
    config,
    deviating_hyperplane,
    hyperplanes_pg2,
    intersection_extremes,
    lunelli_sce_min,
    pg2,
    random_sts,
    section4_partial,
    verify_dimension_theorem,
)
from stspread.cli import main

from oracles import brute_extremes


def test_caps_without_override(monkeypatch):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    assert config.order_cap(31) == 31
    assert config.section_n_cap() == config.MAX_SECTION_N == 6
    for dim in (config.MAX_HYPERPLANE_DIM, config.MAX_DIMENSION_CHECK_DIM):
        assert config.pg_dim_cap(dim) == dim


def test_override_raises_and_lowers_caps(monkeypatch):
    monkeypatch.setenv("STS_MAX_ORDER", "100")
    assert config.order_cap(31) == 100
    assert config.section_n_cap() == 5
    monkeypatch.setenv("STS_MAX_ORDER", "243")
    assert config.section_n_cap() == 6
    monkeypatch.setenv("STS_MAX_ORDER", "729")
    assert config.section_n_cap() == 7
    monkeypatch.setenv("STS_MAX_ORDER", "20")
    with pytest.raises(TooLargeError):
        section4_partial(4)
    with pytest.raises(TooLargeError):
        pg2(4)


@pytest.mark.parametrize("raw", ["garbage", "0", "-5", "3.5", ""])
def test_override_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv("STS_MAX_ORDER", raw)
    with pytest.raises(BadOrderError):
        config.order_cap(31)
    with pytest.raises(BadOrderError):
        config.section_n_cap()


def test_bad_override_exits_with_one_error_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("STS_MAX_ORDER", "garbage")
    code = main(["construct", "pg2", "--dim", "2", "--out", str(tmp_path / "fano.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: STS_MAX_ORDER must be a positive integer, got 'garbage'\n"
    assert not (tmp_path / "fano.txt").exists()


@pytest.mark.parametrize("raw, dim", [("1", 0), ("6", 1), ("7", 2), ("62", 4), ("63", 5),
                                      ("100", 5), ("127", 6), ("4095", 11)])
def test_pg_dim_cap_follows_the_override(monkeypatch, raw, dim):
    monkeypatch.setenv("STS_MAX_ORDER", raw)
    assert config.pg_dim_cap(config.MAX_HYPERPLANE_DIM) == dim


def test_extremes_caps_come_from_config(monkeypatch):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    # below the hyperplane family's cap only the work budget bounds n and m
    for n, m in ((4, 2), (3, 9)):
        assert tuple(intersection_extremes(n, m))[2:] == brute_extremes(n, m)
    with pytest.raises(TooLargeError):
        intersection_extremes(10 ** 9, 2)
    monkeypatch.setenv("STS_MAX_ORDER", "7")
    with pytest.raises(TooLargeError, match=re.escape("PG(3,2) hyperplane family above the cap")):
        intersection_extremes(3, 2)
    assert intersection_extremes(2, 3).max_min == 1
    monkeypatch.setenv("STS_MAX_ORDER", "31")
    assert intersection_extremes(4, 2).min_max == 2
    monkeypatch.setenv("STS_MAX_ORDER", "4095")
    assert tuple(intersection_extremes(3, 9))[2:] == brute_extremes(3, 9)


def test_hyperplane_cap_holds_for_a_cached_family(monkeypatch):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    assert len(hyperplanes_pg2(4)) == 31
    assert deviating_hyperplane(4, [0, 1, 2]).deviation >= 0
    monkeypatch.setenv("STS_MAX_ORDER", "7")
    with pytest.raises(TooLargeError):
        hyperplanes_pg2(4)
    with pytest.raises(TooLargeError):
        deviating_hyperplane(4, [0, 1, 2])
    assert len(hyperplanes_pg2(2)) == 7
    hyperplanes_pg2.cache_clear()
    assert len(hyperplanes_pg2(2)) == 7


def test_bounds_cap_follows_the_override(monkeypatch, capsys):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    for command in ("saturate", "demo"):
        for max_n in ("11", str(10 ** 9)):
            assert main([command, "bounds", "--max-n", max_n]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: PG(11,2) hyperplane family above the cap\n"
    monkeypatch.setenv("STS_MAX_ORDER", "63")
    assert main(["saturate", "bounds", "--max-n", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "5,11,20,"
    assert main(["demo", "bounds", "--max-n", "6"]) == 2
    assert capsys.readouterr().err == "error: PG(6,2) hyperplane family above the cap\n"
    assert main(["demo", "szoras", "--n", "6"]) == 2
    assert capsys.readouterr() == ("", "error: PG(6,2) hyperplane family above the cap\n")
    monkeypatch.delenv("STS_MAX_ORDER")
    assert main(["demo", "szoras", "--n", "99"]) == 2
    assert capsys.readouterr() == ("", "error: PG(99,2) hyperplane family above the cap\n")
    monkeypatch.setenv("STS_MAX_ORDER", "4095")
    assert main(["saturate", "bounds", "--max-n", "11", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "11,%d,%d," % (
        lunelli_sce_min(11, 2), lunelli_sce_min(11, 3))


def test_completion_is_capped(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    fano = tmp_path / "fano.txt"
    assert main(["construct", "pg2", "--dim", "2", "--out", str(fano)]) == 0
    capsys.readouterr()
    out = tmp_path / "big.txt"
    for argv in (["construct", "random", "--order", "2053", "--out", str(out)],
                 ["embed", "--system", str(fano), "--target", "2053", "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: completion capped at order 2047\n"
        assert not out.exists()
    monkeypatch.setenv("STS_MAX_ORDER", "15")
    assert random_sts(15, 0).order == 15
    with pytest.raises(TooLargeError, match="capped at order 15"):
        random_sts(19, 0)
    # the cap is checked before random_sts builds its empty order x order table
    orders = []
    empty_table = system_module._empty_pair_table

    def watched(order):
        orders.append(order)
        if order > config.order_cap(config.MAX_CONSTRUCTION_ORDER):
            raise AssertionError("pair table of order %d above the cap" % order)
        return empty_table(order)

    monkeypatch.setattr(system_module, "_empty_pair_table", watched)
    monkeypatch.setenv("STS_MAX_ORDER", "63")
    with pytest.raises(TooLargeError, match="completion capped at order 63"):
        random_sts(127, 0)
    monkeypatch.delenv("STS_MAX_ORDER")
    for argv in (["construct", "random", "--order", "99999", "--out", str(out)],
                 ["demo", "maxofmin", "--orders", "99999"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: completion capped at order 2047\n"
    assert not out.exists()
    assert max(orders, default=0) <= 2047


@pytest.mark.parametrize("family, err", [
    ("pg2", "error: PG(99999999999,2) has order above the cap 2047\n"),
    ("ag3", "error: AG(99999999999,3) has order above the cap 2047\n"),
    ("perturbed-pg", "error: PG(99999999999,2) has order above the cap 2047\n"),
])
def test_construction_dimension_is_capped_before_the_order(monkeypatch, tmp_path, capsys,
                                                           family, err):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    out = tmp_path / "big.txt"
    assert main(["construct", family, "--dim", "99999999999", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


def test_construction_caps_follow_the_override(monkeypatch):
    for d in range(1, 7):
        for order, build, name in (((1 << (d + 1)) - 1, pg2, "PG(%d,2)" % d),
                                   (3 ** d, ag3, "AG(%d,3)" % d)):
            monkeypatch.setenv("STS_MAX_ORDER", str(order))
            assert build(d).order == order
            monkeypatch.setenv("STS_MAX_ORDER", str(order - 1))
            with pytest.raises(TooLargeError, match=re.escape(name)):
                build(d)


def test_dimension_check_cap_follows_the_override(monkeypatch):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    pg4 = pg2(4)
    assert verify_dimension_theorem(pg4, trials=5).ok
    monkeypatch.setenv("STS_MAX_ORDER", "15")
    with pytest.raises(TooLargeError, match="capped at d = 3"):
        verify_dimension_theorem(pg4, trials=5)
    monkeypatch.setenv("STS_MAX_ORDER", "127")
    assert verify_dimension_theorem(pg2(6), trials=5).ok


def test_default_cap_errors_are_unchanged(monkeypatch, capsys):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    # below the hyperplane family's cap and within the budget these answer
    for n, m in ((4, 2), (3, 9)):
        assert main(["saturate", "extremes", "--n", str(n), "--m", str(m)]) == 0
        low, low_witness, high, high_witness = brute_extremes(n, m)
        assert capsys.readouterr() == (
            "n=%d m=%d\nmax_min=%d witness=%s\nmin_max=%d witness=%s\n"
            % (n, m, low, ",".join(map(str, sorted(low_witness))),
               high, ",".join(map(str, sorted(high_witness)))), "")
    # the work budget and the hyperplane family's cap remain
    assert main(["saturate", "extremes", "--n", "4", "--m", "6"]) == 3
    assert capsys.readouterr() == (
        "", "error: scan of 22824711 subset-hyperplane pairs exceeds budget 10000000\n")
    assert main(["saturate", "extremes", "--n", "11", "--m", "1"]) == 2
    assert capsys.readouterr() == ("", "error: PG(11,2) hyperplane family above the cap\n")


def test_extremes_near_the_point_count_are_refused_by_the_budget(capsys):
    # 2047 subsets of 2046 points, but a Pascal table of 2045 rows
    assert main(["saturate", "extremes", "--n", "10", "--m", "2046"]) == 3
    assert capsys.readouterr() == (
        "", "error: scan of 4190209 subset-hyperplane pairs plus its Pascal table exceeds"
            " budget 10000000\n")
