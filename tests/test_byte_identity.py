"""Byte-identity gate for the exact outputs of the CLI and of the benchmark.

The SHA-256 digests were recorded from the CLI before the exact layers
moved to integer arithmetic and colour-refined canonical keys, and the
mu tables at the benchmark's k_max = 96 (past the CLI's limit) before
the eigenvalues moved from the per-k a-recursion to the closed sum, and
the `magic` reports at the CLI's limits (8 loops, k_max = 64) before the
engine dropped its mirrored generator family.  Any
change to these bytes is a change of result, not of speed.
"""

from __future__ import annotations

import hashlib

import pytest

from boxmagic.cli import main
from boxmagic.magic import mu_table_payload, payload_to_json

PINNED_JSON = {
    ("mu", "--loops", "1", "--k-max", "8", "--format", "json"):
        "35de77a1dfba3c2e760ac0a50a6098260ac249ed411214c631043ae1d01629b0",
    ("mu", "--loops", "2", "--k-max", "16", "--format", "json"):
        "d71d6bceaadd59c352714bfcceb827caf68ea412751d747486eafb6b6d738437",
    ("mu", "--loops", "4", "--k-max", "32", "--format", "json"):
        "7682b696000eec84334dddcb20397c31ba4162248a7501628027883ea34ccb87",
    ("mu", "--loops", "16", "--k-max", "64", "--format", "json"):
        "6f62620079e4706fc046fff40f20be948ad6ce67f99cc0eecfca022715a6e339",
    ("acoeff", "--loops", "3", "--k", "8", "--format", "json"):
        "97b24144f3b7ff197ab5d1c8433ecc14c72f9d7f780782a6513e9b36ef91aec4",
    ("acoeff", "--loops", "8", "--k", "24", "--format", "json"):
        "c826ddca638141119c4871c83f0701a3a29878f21157e16d504012ffa4f65be0",
    ("magic", "--loops", "2", "--k-max", "8", "--json"):
        "e610bd2efd7ba6b622d0816dbd5d4a1b7d9a282e75735704386677b64dd2ee6f",
    ("magic", "--loops", "3", "--k-max", "8", "--json"):
        "2b59d4d6fce451dbf95a526a90c12432072fa4b2eb333d65f97afeea926e1766",
    ("magic", "--loops", "4", "--k-max", "12", "--json"):
        "65034be480fdd263265149dd41be20c2a76c96400ee865a2a3b7cf149aac883e",
    ("magic", "--loops", "5", "--k-max", "12", "--json"):
        "9f6687f28214da06c647dc7510f48ad867b5223e0bf2c8d25eedd9266d3e2190",
    ("magic", "--loops", "8", "--k-max", "64", "--json"):
        "d90568b7d6eceab3e68f447994ee6fc5c384ca4c17141615ba09a596fbf650f3",
}

# Text and CSV outputs of the same `mu` and `acoeff` argument sets,
# recorded before the two commands shared one table emitter.
PINNED_TABLES = {
    ("mu", "--loops", "1", "--k-max", "8", "--format", "text"):
        "879a4959e2735ba71da40c4b5875fea85fb2567aa2488f1218fff315dcad6078",
    ("mu", "--loops", "1", "--k-max", "8", "--format", "csv"):
        "54e4fbf5b3f49942ceb80174f4d8d7cf84011203a6497bc91f2a80e335bfee94",
    ("mu", "--loops", "2", "--k-max", "16", "--format", "text"):
        "7cf7688b6504f32d5d5a7ced1f3363b8c5244d3801bb23154c194a56dbdff890",
    ("mu", "--loops", "2", "--k-max", "16", "--format", "csv"):
        "f1cfa3a874fcc97b218346d57d372e0d2419117980784ff1b9bd67ac50f2f55e",
    ("mu", "--loops", "4", "--k-max", "32", "--format", "text"):
        "296846c9d4d62d0a307a264fd4cfb4b370f6cc20498259c794f23401fa7a4143",
    ("mu", "--loops", "4", "--k-max", "32", "--format", "csv"):
        "7260589fc1a2b3ce08211a6df355cf5a2ba84f56a754f821c3ec73eaeefa6cc8",
    ("mu", "--loops", "16", "--k-max", "64", "--format", "text"):
        "c8ab5c38eee9823dbe8f147b2410fa1a583b25190a160ba02a24f572a6717785",
    ("mu", "--loops", "16", "--k-max", "64", "--format", "csv"):
        "e823bb83983ea44610225a13e51e5331377470be4fc4268faf63d3be3623e7fb",
    ("acoeff", "--loops", "3", "--k", "8", "--format", "text"):
        "997d033b67c85f44486d64d4c03b7a2b7dbe2c65708b30bbad82a7d61e768866",
    ("acoeff", "--loops", "3", "--k", "8", "--format", "csv"):
        "1a94ad8f5d5cc508e38b6dd01c0f3ebe0d296b3e6780c7ed7edbb58310f76b59",
    ("acoeff", "--loops", "8", "--k", "24", "--format", "text"):
        "13e9244ea48735366a671c881b1a344b721a5168714844870ce11543fffecf4b",
    ("acoeff", "--loops", "8", "--k", "24", "--format", "csv"):
        "9c629b414c6344c68db9c729f33b4fa8d1bfff8ee161104b18c302dcaa211335",
}

# payload_to_json(mu_table_payload(n, 96)), the mu jobs of the benchmark's `exact` workload.
PINNED_MU_96 = {
    2: "498b98f9ba1153246ca98b8fcdde98bc3a6124f5c3baac2d82b7b4737b48730f",
    20: "0413faa85a61a088e0f5974cf2eb6b4a3220a43ec781e4be4fb53102c299b272",
}

# Digest of repr(sorted DOT file contents), with each file's own name
# (boxdiag_n{n}_{i}) replaced by NAME: only the discovery index i may move.
PINNED_DOT = {
    1: "787689c6f40ecd6cdd2c65b36080f2d8b53f7929825f17cb14188126bc265a4b",
    2: "97ed21b2302fa7f7069bd918cd81e06b3cb582d6289f2ce2710a2151600a996f",
    3: "78031cab8463e6d8495541d64db2a511700c6b01f51a1777eea8016b65d2c6c4",
    4: "542e586121da77be0f0acd90882ed32d44ecc8f6563b7d2d9134723d190cf50a",
    5: "303c3b5b7c0fefb1649fb43cbf8c23a9347227e199e58ecf9a2ccb9e3e0ef08a",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINNED_JSON), ids=" ".join)
def test_json_bytes(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == PINNED_JSON[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_TABLES), ids=" ".join)
def test_table_bytes(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == PINNED_TABLES[argv]


@pytest.mark.parametrize("n", sorted(PINNED_MU_96))
def test_mu_payload_bytes_at_benchmark_size(n):
    assert _sha256(payload_to_json(mu_table_payload(n, 96))) == PINNED_MU_96[n]


@pytest.mark.parametrize("n", sorted(PINNED_DOT))
def test_dot_multiset(capsys, tmp_path, n):
    assert main(["diagrams", "--loops", str(n), "--dot-dir", str(tmp_path)]) == 0
    texts = sorted(p.read_text(encoding="utf-8").replace(p.stem, "NAME") for p in tmp_path.iterdir())
    assert _sha256(repr(texts)) == PINNED_DOT[n]
