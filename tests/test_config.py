"""Size caps and the STS_MAX_ORDER override."""

import pytest

from stspread import BadOrderError, TooLargeError, config, pg2, section4_partial
from stspread.cli import main


def test_caps_without_override(monkeypatch):
    monkeypatch.delenv("STS_MAX_ORDER", raising=False)
    assert config.order_cap(31) == 31
    assert config.section_n_cap() == config.MAX_SECTION_N == 6


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
