"""Byte-level golden outputs of the quiver subcommands.

Each entry pins the exit status and the sha256 of stdout for one cheap
command, recorded before the preset handling was refactored.  A refactor
of `cli.py` or `quiver.py` must leave every entry unchanged; a deliberate
change of output format must update the digests in the same change.
"""

from __future__ import annotations

import hashlib

import pytest

from test_cli import invoke

BALANCED_P3 = "m1=-2,m4=-2,n1=2,n4=2,theta0=1/2,theta3=3"

GOLDEN = [
    ("quiver-build --preset p1 --format json", 0, "1bccb152b88f58c17943f598eb02b6d1e935474e6fe3d88c4e8ba7994201fb87"),
    ("quiver-build --preset p1 --format dot", 0, "071485c0636f0d85dbc5ac6fbfa70e82acf8cfb79502f8800db55d5c5e6a866b"),
    ("quiver-build --preset p2 --format json", 0, "eb3a5e5cc90e0b30c231b8224eada26ff48ebe75bf6d71886b7bb1af882563a3"),
    ("quiver-build --preset p2 --format dot", 0, "4cff46f12265402b8d43671f65bf4d8681ee40eaf88cfda9210ddc18686adb78"),
    ("quiver-build --preset sl3 --format json", 0, "4ead0bbd3f382faea5ce69fb09be66d88af387f5d0865c8a4ec5833bec80beda"),
    ("quiver-build --preset sl3 --format dot", 0, "abbbfda6c17a2a291f987d6a51c576bd313e7867ea31ad913a65bab5c576a6fc"),
    ("export-dot --preset sl3", 0, "abbbfda6c17a2a291f987d6a51c576bd313e7867ea31ad913a65bab5c576a6fc"),
    ("export-dot --preset p2 --p 3", 0, "4cff46f12265402b8d43671f65bf4d8681ee40eaf88cfda9210ddc18686adb78"),
    ("quiver-check --preset p1 --format json", 0, "60818889f404d12b409d081cb20eec2e70740d2784c7dd6bf19510ec237c7f09"),
    ("quiver-check --preset p1 --format tsv", 0, "66b6723bc24cff9c7cdb956bd30abd6da8674b97af353f49b1ce09b144bae913"),
    ("quiver-check --preset p2 --p 3 --format json", 0, "b6ccdf39404a7ad561902d3979b747fe7d87d6343b4f8fb8714681c9d3defb79"),
    ("quiver-check --preset p2 --p 3 --format tsv", 0, "070f315cd0e89f8b52fe49eba940b83d87b11044c914caeee19ec811d61d9be9"),
    (f"quiver-check --preset p2 --p 3 --scalars {BALANCED_P3} --format json", 0, "4c5d35a1ee9d0d91f953e9b08a0127500d255ba86678b96b57877a18730a376e"),
    (f"quiver-check --preset p2 --p 3 --scalars {BALANCED_P3} --format tsv", 0, "070f315cd0e89f8b52fe49eba940b83d87b11044c914caeee19ec811d61d9be9"),
    ("quiver-check --preset sl3 --scalars a=2/3,b=3,r=0 --format json", 0, "db3f07d0a11984e3b6dc76e61abd2d835b26a19439780c1b33ccbe232cf8a54f"),
    ("quiver-check --preset sl3 --scalars a=2/3,b=3,r=0 --format tsv", 0, "15e058d917c552b4b83ab47934d27c6475379cfd7567ffeceafa01fa619327bf"),
    # failing controls: the bare relation families, one unbalanced square scalar
    ("quiver-check --preset p2 --p 3 --no-boundary-loops", 1, "3e79ba9b6acc364381de841b00c3914455c06203f01774cbbee9325b1f120d7a"),
    ("quiver-check --preset p2 --p 3 --scalars m1=2", 1, "963af53d7661303abc4be7e33fd440c4cb8e4914768b6aef7ff254357b821180"),
    ("verify --suite quiver --p 3", 0, "406af0ed1ed8802c9580df3f462cd4630177f1d88f66447c4850b8aad69050c7"),
]


@pytest.mark.parametrize("command,status,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_golden(command, status, digest):
    code, out = invoke(command.split())
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
