"""Byte-identity gate for the exact outputs of the CLI.

The SHA-256 digests were recorded from the CLI before the exact layers
moved to integer arithmetic and colour-refined canonical keys.  Any
change to these bytes is a change of result, not of speed.
"""

from __future__ import annotations

import hashlib

import pytest

from boxmagic.cli import main

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


@pytest.mark.parametrize("n", sorted(PINNED_DOT))
def test_dot_multiset(capsys, tmp_path, n):
    assert main(["diagrams", "--loops", str(n), "--dot-dir", str(tmp_path)]) == 0
    texts = sorted(p.read_text(encoding="utf-8").replace(p.stem, "NAME") for p in tmp_path.iterdir())
    assert _sha256(repr(texts)) == PINNED_DOT[n]
