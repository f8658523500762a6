"""Golden pins: the sha256 of the stdout, and of each written file, of the
commands whose code replicates the paper's claims.  A change to any of
these bytes must be declared; update a pin only together with that
declaration."""

import hashlib

import pytest

from stspread.cli import main


def _sha(data):
    return hashlib.sha256(data).hexdigest()


DEMOS = {
    ("demo", "maxofmin"): "72eb466317fff4462d43fcfc2fa0b5f1b4323aa3e7250eb266852a1f65acf3e8",
    ("demo", "unicity"): "3bcbcdb9ce865dc0a7a10719042d497afb456a75864e0267abc85b33bd57e850",
    ("demo", "almostmax"): "2f1b60de79234e9ea9a89f84b3c48ddfeb46063651ee30a1767f0f6ece0ba306",
    ("demo", "two-sizes"): "c73ac9c09a8aa92d5bd0141efc950c97eb9c732e8a2b9e1567a7de864665a011",
    ("demo", "szoras"): "dae89e105c7cb14c195c694444fd3a40c6ea161f7a9abf28b6f06900be106675",
    ("demo", "bounds"): "31b9a017a174d1bee188059d0f6d16fd446737dddc74def70756bd64b70bbe5e",
    ("demo", "two-sizes", "--n", "5"):
        "f5317e6ae894315995455f9ffcefb3ef4212cdb7317a0c42f54734f08299b6bb",
    ("demo", "almostmax", "--seed", "1"):
        "2f1b60de79234e9ea9a89f84b3c48ddfeb46063651ee30a1767f0f6ece0ba306",
}

# argv of commands that read no system: the digest of stdout
COMMANDS = {
    ("saturate", "bounds", "--max-n", "4", "--exact"):
        "1c673c43c0e70d5ba4b152c04e4bf678767b71aa1f54b89d4f1f88013095a9d2",
    ("saturate", "extremes", "--n", "2", "--m", "3"):
        "aa126368fbb7672d7895aa6d30bc0ae259741311b7865c9fd163fcfb139a6ebd",
    ("saturate", "extremes", "--n", "2", "--m", "3", "--format", "csv"):
        "62c4b17fbb2b5fbdbd6ea63c5e74bed7473f66f33782ee7845433d980b881349",
    ("saturate", "extremes", "--n", "3", "--m", "4"):
        "26824bd2a265c3a887c831ecab2980b1b268d720c409592c8dea218188b8826d",
    ("saturate", "extremes", "--n", "3", "--m", "4", "--format", "csv"):
        "6532702c8fa09b28f6ab39f23cbed0162cedd6035970fb030254df56ce9bebf8",
    ("saturate", "extremes", "--n", "3", "--m", "8"):
        "fa1dc17e1b15a0e41776fb598ebf5fbde55936912405b6b634da814536e761f1",
    ("saturate", "extremes", "--n", "3", "--m", "8", "--format", "csv"):
        "77176341abb01e44d3ec1a301b96206e8b0504d258029b56eee469c78a8f64bc",
}

# argv before --out s.txt: the digests of stdout, s.txt and s.txt.labels
CONSTRUCTS = {
    ("construct", "perturbed-pg", "--dim", "4"): (
        "c03aab1129edb14f9381a33b4e0306832cbca9e0e157158f9cf4014f1c7c701e",
        "c171acdc752d903cde29a2b5a61ab6dfb9c4d84c63b0c60e1491941142f5234d",
        "852cad899607115e7161884d81771f1cf9e75942de1d50b05d860ef336624631",
    ),
    ("construct", "perturbed-pg", "--dim", "5", "--seed", "2"): (
        "7a83c4215152fb61963532660c3efeb44f3c8bf5ad22e98d1df2f23c5a889b4c",
        "cb3d7f0f5d7cea13e6614d0fce582e5fbca273f64a43bfb2e8ccfd090fb3350e",
        "dd4828ad32ec4129d10615a546e3fb8a3942b09782afd5b4ba0a6e2edae73c53",
    ),
    ("construct", "section4", "--n", "4"): (
        "b0a18aa699bce7cb9f764289da70cda1ff0a62ee79c19de84a41d9c38fd7308d",
        "6628c3a6fa5a6aa86f38289be4cf354eb608bb15d01aac3d019c0bba446d0809",
        "04b75ca1ff21ab06e57cf13da88f28bfbef4ad09f88767ab5ffd98777219c817",
    ),
    ("construct", "section4", "--n", "5"): (
        "0e49b166c99db834d0e788bd2e67d06230a22f8ab40ca010bc0ab3d91b58fcfe",
        "f7dac5050f17f004706db54c3a6b3e51d1e37c5d63501f3b5f9c33a018011f49",
        "1739aef474c4989c7679279b9b3d2e31c0ab925fd91cace59c794adccaa030e9",
    ),
}


@pytest.mark.parametrize("argv", DEMOS, ids=" ".join)
def test_demo_stdout_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out.encode()) == DEMOS[argv]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_stdout_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out.encode()) == COMMANDS[argv]


@pytest.mark.parametrize("argv", CONSTRUCTS, ids=" ".join)
def test_construct_outputs_are_pinned(argv, capsys, tmp_path, monkeypatch):
    # a relative --out, so that stdout names the same path in every run
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "s.txt"]) == 0
    got = (_sha(capsys.readouterr().out.encode()),
           _sha((tmp_path / "s.txt").read_bytes()),
           _sha((tmp_path / "s.txt.labels").read_bytes()))
    assert got == CONSTRUCTS[argv]


# systems built in tmp_path for the set listings below
SYSTEMS = {
    "pg4": ("construct", "pg2", "--dim", "4"),
    "r31": ("construct", "random", "--order", "31", "--seed", "1"),
    "pp4": ("construct", "perturbed-pg", "--dim", "4", "--seed", "0"),
    "r63": ("construct", "random", "--order", "63", "--seed", "1"),
}

# (system, analyze argv after --system): the digest of stdout
LISTINGS = {
    ("pg4", "spread", "enumerate", "--max-size", "5"):
        "48b8c24630e0943970c831f5069fcb182539b1f2dc0c1a5e1bdd5bdd4e940c9a",
    ("pg4", "spread", "enumerate", "--max-size", "5", "--format", "csv"):
        "ee05c86d62083d4cd092b2895c83511cab7df3bcdb9ab62c2abcaea475b4d998",
    ("r31", "spread", "enumerate"):
        "ff6709ab3c1c8033bf9d5d0eeaebe439a38f288cb28947a24b8722d17e4a7f58",
    # the level budget cuts this one short: it prints truncated=true
    ("r31", "spread", "enumerate", "--max-size", "9"):
        "327b9fabded96bafad6fac17a4809cf0efaedf6b045f0e7899b5fff79ab12962",
    ("pp4", "spread", "enumerate", "--max-size", "4"):
        "04ec1c7ed0a8b3d0e57bff32c6408afa23bc785587578dcb2b6d4f74b7d0d33e",
    # its level 6 has the largest batches, one per top point: C(30, 5)
    ("pp4", "spread", "enumerate", "--max-size", "6"):
        "5b7ea75fb2f2dcd69ad8ea773dbd3ad87b0286635f2f730e689e67dc4842fdd7",
    # above order 31 the budget alone bounds the scan: truncated=true
    ("r63", "spread", "enumerate"):
        "025b2546287dd3d3a6d5c78d55f77e9d8a2d288f8f3997033abbeaa9303b555c",
}


# (system, saturate argv before --system): the digest of stdout
SATURATIONS = {
    ("pg4", "min"): "b9d50d8064b246d248a3d17a30c79194517242a04c0d2955b3f3d74f4b7e9a79",
    ("r31", "min"): "2a1f17fe22f4b4c739fe7ea2871e67c2af4ae7c6df68258a1c1349e6b5716d96",
    ("pp4", "min"): "662e5ce8ea32e59e160da0b66b079cc5a9b7fbf56df36b50232a624d4156cd43",
}


def _built(name, tmp_path, capsys):
    """The path of system name of SYSTEMS, built in tmp_path."""
    path = str(tmp_path / (name + ".txt"))
    assert main([*SYSTEMS[name], "--out", path]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("argv", LISTINGS, ids=" ".join)
def test_listing_stdout_is_pinned(argv, capsys, tmp_path):
    name, *rest = argv
    assert main(["analyze", "--system", _built(name, tmp_path, capsys), *rest]) == 0
    assert _sha(capsys.readouterr().out.encode()) == LISTINGS[argv]


@pytest.mark.parametrize("argv", SATURATIONS, ids=" ".join)
def test_saturate_stdout_is_pinned(argv, capsys, tmp_path):
    name, *rest = argv
    assert main(["saturate", *rest, "--system", _built(name, tmp_path, capsys)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == SATURATIONS[argv]
