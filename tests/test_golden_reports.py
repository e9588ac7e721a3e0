"""Golden digests of CLI report and workspace bytes.

Each case runs one command through `cli.main` in `--format json` and in
`--format text` and pins the SHA-256 of the report each prints and of the
workspace it writes.  The Radford algebras cover the rational case and the
conductors 3, 4 and 8, so a change to the scalar layer that moves a single
byte of a report or a workspace fails here.  The double biproducts of the
Sweedler input and of the braided lines over kC4 pin the products Z, C><H
and H><B and the twist of Z.  Reports echo the command line, so every file
is named relative to a fresh working directory.
"""

import hashlib
import json

import pytest

from crossbial.cli import Workspace, main, save_workspace
from crossbial.linmaps import UNIT, LinMap
from crossbial.scalars import ONE
from crossbial.zoo import braided_line_input, sweedler_crossed_modules
from tests.test_twisting import bicharacter_cocycle

RADFORD = [(2, 1, 2, 1), (3, 1, 3, 1), (4, 1, 4, 1), (8, 1, 8, 4)]

GOLDEN = {
    "radford 2-1-2-1": {
        "workspace":
            "343b82bd4a3a24375895d457fbead04b21e43d69ed73656f67728d718fef7661",
        "check hopf": {
            "json":
                "4224e7c0245a7bf232a5078a2a312194729cdab75ef8807ee22339d6ee573dfa",
            "text":
                "ea672e259e9ebd2236afb0e642772a7032332bde03f5cd3f9a8d30b20c5c1d4d",
        },
        "datum check": {
            "json":
                "e7fffd4e349c73d80f6428b36eccc909e6212b56931831772a1acdb6f67f2926",
            "text":
                "0d1e3658d60d8373f7279b1623c9580f5e31f31de2cc1f9bd1a8a804635a814e",
        },
        "cross decompose": {
            "json":
                "c5eeef32130a60181ad76657a216a54f9b39f476e440293ecc51a6483aa9d1cc",
            "json.ws":
                "6593facf3830147fe6161f6ba2de1d1aff4d7e5532b973a8457c0fb734443e19",
            "text":
                "abfcc8df3751f7e23d7302930b0ae796a53ed4deffb29d2645ad9a14130b19db",
            "text.ws":
                "6593facf3830147fe6161f6ba2de1d1aff4d7e5532b973a8457c0fb734443e19",
        },
    },
    "radford 3-1-3-1": {
        "workspace":
            "a6e27bc51d5db5d8f66e8de9ac2c0b48f44c0de24636d304c5c152f5b96daf32",
        "check hopf": {
            "json":
                "e1724e9fbba8dc3768bc262dbd18da06d5883e6ef1c29f0e2b34f1717d3598cd",
            "text":
                "cc2d2cbbdac7964db94243677b612ff5f3d3d4241d72aa410ad39da6905546e7",
        },
        "datum check": {
            "json":
                "e7fffd4e349c73d80f6428b36eccc909e6212b56931831772a1acdb6f67f2926",
            "text":
                "0d1e3658d60d8373f7279b1623c9580f5e31f31de2cc1f9bd1a8a804635a814e",
        },
        "cross decompose": {
            "json":
                "604d9251c8d2aac1374c1ea4da552efdcc9818069793e55fd94764e10dd5f6a5",
            "json.ws":
                "8147ece00e987a8cec570d9beab650c1e08c6c8b67b1df28fdaac6b45d2e20c0",
            "text":
                "0481a0fdfb7cc26afa62f65b0032581da0bb85a54e913ff7443a35334c2570a1",
            "text.ws":
                "8147ece00e987a8cec570d9beab650c1e08c6c8b67b1df28fdaac6b45d2e20c0",
        },
    },
    "radford 4-1-4-1": {
        "workspace":
            "ea650357ec63a29dfad6e04c632f18d571c2c81afa8bde876ba185855b1d877a",
        "check hopf": {
            "json":
                "0df60d8af055e2543c9f14d5e1ed1cd4c86929ad1ea2892914292ae863812771",
            "text":
                "a3934824c2305a8ab216f7fe203817b257c51094247bc3f86daccce9d64c8004",
        },
        "datum check": {
            "json":
                "e7fffd4e349c73d80f6428b36eccc909e6212b56931831772a1acdb6f67f2926",
            "text":
                "0d1e3658d60d8373f7279b1623c9580f5e31f31de2cc1f9bd1a8a804635a814e",
        },
        "cross decompose": {
            "json":
                "410609a1191138686540fbf9fdac880a54e7aecf791976380d3bee481e79ca21",
            "json.ws":
                "19cf58a5f490bc49e6233f40a6ec8e877674cc265cc40ab9b238c0f237b58b36",
            "text":
                "49764d9504594a8a8254ad2fc7df611aab0c9a78f89a8af76b623a64cc1b3063",
            "text.ws":
                "19cf58a5f490bc49e6233f40a6ec8e877674cc265cc40ab9b238c0f237b58b36",
        },
    },
    "radford 8-1-8-4": {
        "workspace":
            "467e976585e502527ca5bd1fe79abf0b9301cb061849c56456ca09cb1dd19496",
        "check hopf": {
            "json":
                "0df60d8af055e2543c9f14d5e1ed1cd4c86929ad1ea2892914292ae863812771",
            "text":
                "a3934824c2305a8ab216f7fe203817b257c51094247bc3f86daccce9d64c8004",
        },
        "datum check": {
            "json":
                "e7fffd4e349c73d80f6428b36eccc909e6212b56931831772a1acdb6f67f2926",
            "text":
                "0d1e3658d60d8373f7279b1623c9580f5e31f31de2cc1f9bd1a8a804635a814e",
        },
        "cross decompose": {
            "json":
                "89d58e8946153f140524f451cc3f0ea2244e2afdae6eb7d15ce51672f237b237",
            "json.ws":
                "25cdc4c22304caafc05d26cbcf905b5328371152f39379936d9a44bdb330f7e0",
            "text":
                "a16b9127d8d0cc37ec4f28d107aa9b2201ae7e557288989ead024d6c8348c807",
            "text.ws":
                "25cdc4c22304caafc05d26cbcf905b5328371152f39379936d9a44bdb330f7e0",
        },
    },
    "twist C2xC2": {
        "workspace":
            "ed684ee1cbb800a7fd45e28456afaf32190317fcb8dd3c9ff6a004750dc51165",
        "twist apply": {
            "json":
                "db2ca2d3a3c4e02ead81d676f16ad38d4197fc0a2e96c2a0a85906d2ce4fb248",
            "json.ws":
                "f5016eb0c9f3069578884366cd2718c96b74fcfa02a61aab3c678bd7dd049aba",
            "text":
                "b0e46c6d3a6ddef943017d70034c4e47173b2f94331deaf76d1bf704e7836544",
            "text.ws":
                "f5016eb0c9f3069578884366cd2718c96b74fcfa02a61aab3c678bd7dd049aba",
        },
    },
}


# Ore towers from `zoo build ore --spec`: Sweedler's algebra over C2 and an
# anticommuting C2 x C2 family (x1 x2 = -x2 x1).  Their data are read off
# their splittings, so these rows pin what that reading gives.
ORE = {
    "ore C2 t=1": {"orders": [2], "t": 1, "g": [[1]], "g_star": [[1]]},
    "ore C2xC2 t=2 anticommuting": {"orders": [2, 2], "t": 2,
                                    "g": [[1, 0], [0, 1]],
                                    "g_star": [[1, 1], [1, 1]]},
}

ORE_GOLDEN = {
    "ore C2 t=1": {
        "workspace":
            "15f5cbb436fe2d93d133d83e045f20f00386898aa806a75382d3cf2fd684eec1",
        "datum check": {
            "json":
                "11bb8b48d771be1f1c01611b7d9a337eab270715be91dfa5410267bf572c057a",
            "text":
                "a1d26ad52193af935ef9bbec9e7b06b052ba67272c94c349d0f6a7d5710b9ea8",
        },
    },
    "ore C2xC2 t=2 anticommuting": {
        "workspace":
            "6af7ccf1010a0701b0d42288f70090fdad708b6473134b33f1b80199fad9ac7a",
        "datum check": {
            "json":
                "11bb8b48d771be1f1c01611b7d9a337eab270715be91dfa5410267bf572c057a",
            "text":
                "a1d26ad52193af935ef9bbec9e7b06b052ba67272c94c349d0f6a7d5710b9ea8",
        },
    },
}


# `cross trivalent` and `datum classify` report verdicts and the pattern
# alone, and every Radford tower splits as the same biproduct "1010", so
# the four towers share one set of digests.
TRIVALENCE_GOLDEN = {
    "cross trivalent": {
        "json":
            "fe9cb14802cc98d1dc22a92e856fb99dec3e711fd129e4d013587d69bc9d27cd",
        "text":
            "2c765ddd3c0571e9f4568c7b53814cb12a93136f8072cb0084585a0bf82322a6",
    },
    "datum classify": {
        "json":
            "5b9ace761874c2c6aefe13b4e7928c075ba6f4cb4d1ba5ba721981f0734c1e4d",
        "text":
            "f7ed9fec07d811f5ba99d9e3718d966de6e77927caf223721302f695591172b8",
    },
}


# Radford(8,1,8,1), of dim 64, the largest tower the default
# CROSSBIAL_MAX_DIM admits.  These digests were taken on the tree that
# still evaluated associativity and mult-comult as full diagrams, before
# those laws were checked on algebra generators.
DIM_64 = (8, 1, 8, 1)

DIM_64_GOLDEN = {
    "workspace":
        "b79c96ab53f74270967693ea46e8ce9d18db049999c5c4f775e02136eb10b6ac",
    "check hopf": {
        "json":
            "ecb58796529e707f2ab94e506668eace52228fe7d13fdd454e7738d81714654e",
        "text":
            "e23b1e054c994ad9db462c017646f54368e6642e4741b71f030cd96d5270ef7c",
    },
    "datum check": {
        "json":
            "e7fffd4e349c73d80f6428b36eccc909e6212b56931831772a1acdb6f67f2926",
        "text":
            "0d1e3658d60d8373f7279b1623c9580f5e31f31de2cc1f9bd1a8a804635a814e",
    },
    "cross decompose": {
        "json":
            "f182bbcf04295254ab35cd1f4f67d26925a6cb860dd4e1f546e6210b8d0ba5dc",
        "json.ws":
            "650a0639e169b48a468a9ecc75a49d6e5b8d1eb841b3c33974ad0d4fc5142279",
        "text":
            "e8b447fc8e6efdc570f768d2a78bdb42bf8763bd5ed00abfc47598b3a5b22ab3",
        "text.ws":
            "650a0639e169b48a468a9ecc75a49d6e5b8d1eb841b3c33974ad0d4fc5142279",
    },
    "cross trivalent": {
        "json":
            "fe9cb14802cc98d1dc22a92e856fb99dec3e711fd129e4d013587d69bc9d27cd",
        "text":
            "2c765ddd3c0571e9f4568c7b53814cb12a93136f8072cb0084585a0bf82322a6",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _run(capsys, out, *argv):
    """Digests of the report in each format and of the workspace written."""
    digests = {}
    for fmt in ("json", "text"):
        extra = ("-o", f"{out}.{fmt}.json") if out else ()
        code = main([*argv, "--format", fmt, *extra])
        assert code == 0
        digests[fmt] = _sha(capsys.readouterr().out.encode())
        if out:
            digests[f"{fmt}.ws"] = _file_sha(f"{out}.{fmt}.json")
    if out:
        assert digests["json.ws"] == digests["text.ws"]
    return digests


def _build_radford(capsys, params):
    n, q, big_n, nu = params
    assert main(["zoo", "build", "radford", "--n", str(n), "--q-exp", str(q),
                 "--N", str(big_n), "--nu", str(nu), "-o", "rad.json"]) == 0
    capsys.readouterr()


def _radford_digests(capsys, params):
    _build_radford(capsys, params)
    return {
        "workspace": _file_sha("rad.json"),
        "check hopf": _run(capsys, None, "check", "hopf", "--in", "rad.json"),
        "datum check": _run(capsys, None, "datum", "check",
                            "--in", "rad.json"),
        "cross decompose": _run(capsys, "parts", "cross", "decompose",
                                "--in", "rad.json"),
    }


@pytest.mark.parametrize("params", RADFORD,
                         ids=["-".join(map(str, p)) for p in RADFORD])
def test_radford_reports_are_byte_identical(capsys, monkeypatch, tmp_path,
                                            params):
    monkeypatch.chdir(tmp_path)
    key = "radford " + "-".join(map(str, params))
    assert _radford_digests(capsys, params) == GOLDEN[key]


@pytest.mark.parametrize("params", RADFORD,
                         ids=["-".join(map(str, p)) for p in RADFORD])
def test_radford_trivalence_reports_are_byte_identical(capsys, monkeypatch,
                                                       tmp_path, params):
    monkeypatch.chdir(tmp_path)
    _build_radford(capsys, params)
    assert {cmd: _run(capsys, None, *cmd.split(), "--in", "rad.json")
            for cmd in TRIVALENCE_GOLDEN} == TRIVALENCE_GOLDEN


def test_dim_64_reports_are_byte_identical(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    got = _radford_digests(capsys, DIM_64)
    got["cross trivalent"] = _run(capsys, None, "cross", "trivalent",
                                  "--in", "rad.json")
    assert got == DIM_64_GOLDEN


def _ore_digests(capsys, spec):
    with open("spec.json", "w") as fh:
        json.dump(spec, fh)
    assert main(["zoo", "build", "ore", "--spec", "spec.json",
                 "-o", "ore.json"]) == 0
    capsys.readouterr()
    return {
        "workspace": _file_sha("ore.json"),
        "datum check": _run(capsys, None, "datum", "check",
                            "--in", "ore.json"),
    }


@pytest.mark.parametrize("key", sorted(ORE))
def test_ore_reports_are_byte_identical(capsys, monkeypatch, tmp_path, key):
    monkeypatch.chdir(tmp_path)
    assert _ore_digests(capsys, ORE[key]) == ORE_GOLDEN[key]


# The C2 x C2 x C2 Ore tower with t = 3 and g = g* = the unit vectors, of
# dim 64 = 8 * 2^3.  These digests were taken on the tree that still built
# each flip as a strand permutation.
ORE_64 = {"orders": [2, 2, 2], "t": 3,
          "g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "g_star": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}

ORE_64_GOLDEN = {
    "workspace":
        "dbcb8a16d9652c24380a13eb533c93ccb2d38c3a894eb7e85f8048c8808ca957",
    "datum check": {
        "json":
            "11bb8b48d771be1f1c01611b7d9a337eab270715be91dfa5410267bf572c057a",
        "text":
            "a1d26ad52193af935ef9bbec9e7b06b052ba67272c94c349d0f6a7d5710b9ea8",
    },
    "check hopf": {
        "json":
            "51f91e557c7018f7dee99b5ad8eed31921b51e30756b75ddb63a45f5cea100e2",
        "text":
            "bd3de844d83ed75460917987627ec0b2e82dce5bef51f9c1eb762f1ef61140cc",
    },
    "cross decompose": {
        "json":
            "95c4098a3ae193cea848086c9f6b8b399e96e5341bd09de1df0daa73ae37c0e0",
        "json.ws":
            "3d4695897c3bcdf2de45dec565a2e103ece1f9a678b0e8a192b267263782540c",
        "text":
            "f765a09b70dfe580d336bb32d590c447502c50b763aedbbb070713c47a111813",
        "text.ws":
            "3d4695897c3bcdf2de45dec565a2e103ece1f9a678b0e8a192b267263782540c",
    },
    "cross trivalent": {
        "json":
            "b7f7428196524a390901eb4df9e803af759be1bf40229ce842b81b5980d512c9",
        "text":
            "b108e2853360af482d39d0afb61a2155bda8524694a3ffcb331ffdeec317b31f",
    },
}


def test_ore_dim_64_reports_are_byte_identical(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    got = _ore_digests(capsys, ORE_64)
    for cmd, out in (("check hopf", None), ("cross decompose", "parts"),
                     ("cross trivalent", None)):
        got[cmd] = _run(capsys, out, *cmd.split(), "--in", "ore.json")
    assert got == ORE_64_GOLDEN


def _twist_digests(capsys):
    gg, c = bicharacter_cocycle(2)
    save_workspace(Workspace().add_structure("main", gg)
                   .add_map("chi", c.chi), "tw.json")
    return {
        "workspace": _file_sha("tw.json"),
        "twist apply": _run(capsys, "twisted", "twist", "apply",
                            "--in", "tw.json"),
    }


def test_bicharacter_twist_report_is_byte_identical(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.chdir(tmp_path)
    assert _twist_digests(capsys) == GOLDEN["twist C2xC2"]


# `datum build` assembles the cross product of a Radford tower's datum
DATUM_BUILD_GOLDEN = {
    "2-1-2-1": {
        "json":
            "c2304e47d4b1440fb6624fb2ffcc0c150db8f80429679a45cad66b4403ecbc7c",
        "json.ws":
            "0e9d05f7b8de057674a8182ca952886c64da75bf434f42bfdac05a47740ca014",
        "text":
            "c5db07ff4f555b26502828bcb1fda1494c51c73fcc765c2d629ac7be6af496a1",
        "text.ws":
            "0e9d05f7b8de057674a8182ca952886c64da75bf434f42bfdac05a47740ca014",
    },
    "3-1-3-1": {
        "json":
            "5f2147bd9a550b74059caa30abc7651214a91cfdb3c41accd0ec36f74bf395e6",
        "json.ws":
            "e1430200bd1f980e0f91cc5017f3bf8b3cb7836c12579e8d94eb0ed5699c8127",
        "text":
            "b3e6bc6bd09d1debe555d0dbe13eedc6508d096aed95844cf51739338128ad14",
        "text.ws":
            "e1430200bd1f980e0f91cc5017f3bf8b3cb7836c12579e8d94eb0ed5699c8127",
    },
}


@pytest.mark.parametrize("key", sorted(DATUM_BUILD_GOLDEN))
def test_datum_build_report_is_byte_identical(capsys, monkeypatch, tmp_path,
                                              key):
    monkeypatch.chdir(tmp_path)
    _build_radford(capsys, tuple(map(int, key.split("-"))))
    assert _run(capsys, "built", "datum", "build",
                "--in", "rad.json") == DATUM_BUILD_GOLDEN[key]


# double-biproduct inputs, each paired by rho(1 (x) 1) = rho(x (x) x) = 1
DOUBLE_BIPRODUCT = {
    "sweedler": sweedler_crossed_modules,
    "braided line N=4": lambda: braided_line_input(4),
}

DOUBLE_BIPRODUCT_GOLDEN = {
    "sweedler": {
        "workspace":
            "8a7becf2908da6c09fa194258931cd2d2633bc6dddbc649e6c09fe13b6add3d2",
        "double-biproduct build": {
            "json":
                "8975f9aecbdba0cf0c2900962b27dffd900ee825b575559a98c354a8ce0bf2b8",
            "json.ws":
                "1c6a3d3252042dbc831dcf903aee77a562e5e817110ad00075c31b9c828e31ed",
            "text":
                "f1bebf3296ceb280e396978d86706c3d672b6528e37b15ce101bcb30346d98c3",
            "text.ws":
                "1c6a3d3252042dbc831dcf903aee77a562e5e817110ad00075c31b9c828e31ed",
        },
    },
    "braided line N=4": {
        "workspace":
            "69a0bf4f0d10dec180a1fb7078144ec77a88f698a78a24210e9382a49d824f0a",
        "double-biproduct build": {
            "json":
                "127be15046ace815bdceab1d29bfba1cab49ae207a53f2d86e69677458b47284",
            "json.ws":
                "f8c92cc9703a48b5b0cf8bdb01dac32e642dbe76d5113ddf92fa713836151a6a",
            "text":
                "134d4e13ecd7d1d649160385aa138c3867de334751c40c9a91a19b13e3198153",
            "text.ws":
                "f8c92cc9703a48b5b0cf8bdb01dac32e642dbe76d5113ddf92fa713836151a6a",
        },
    },
}


def _double_biproduct_digests(capsys, inp):
    rho = LinMap((inp.B.space, inp.C.space), UNIT,
                 {(0, 0): ONE, (0, 3): ONE})
    ws = (Workspace().add_structure("h", inp.H).add_structure("b", inp.B)
          .add_structure("c", inp.C))
    for k in ("b_act", "b_coact", "c_act", "c_coact"):
        ws.add_map(k, getattr(inp, k))
    save_workspace(ws.add_map("rho", rho), "dbp.json")
    return {
        "workspace": _file_sha("dbp.json"),
        "double-biproduct build": _run(capsys, "dbp_out", "double-biproduct",
                                       "build", "--in", "dbp.json"),
    }


@pytest.mark.parametrize("key", sorted(DOUBLE_BIPRODUCT))
def test_double_biproduct_report_is_byte_identical(capsys, monkeypatch,
                                                   tmp_path, key):
    monkeypatch.chdir(tmp_path)
    assert (_double_biproduct_digests(capsys, DOUBLE_BIPRODUCT[key]())
            == DOUBLE_BIPRODUCT_GOLDEN[key])
