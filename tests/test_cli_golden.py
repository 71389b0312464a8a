"""Byte-level golden outputs of the quiver and weight-side subcommands.

Each entry pins the exit status and the sha256 of stdout for one cheap
command.  The quiver entries were recorded before the preset handling was
refactored, the weight-side entries before the factor tables became a walk
over p-adic digits, the six weight-side hot loops before peeling, linkage,
Hom and the generator family stopped rebuilding a dict per step, and the
last six quiver checks before the linear engine was folded by symmetries of
the vertex pairs.  A refactor of `cli.py`, `quiver.py`, `deltafilt.py` or
`weights.py` must leave every entry unchanged; a deliberate change of output
format must update the digests in the same change.
"""

from __future__ import annotations

import hashlib

import pytest

from test_cli import invoke

BALANCED_P3 = "m1=-2,m4=-2,n1=2,n4=2,theta0=1/2,theta3=3"
_P7_SQUARES = [x for x in range(14) if x % 7 not in (0, 6)]
BALANCED_P7 = ",".join(
    [f"m{x}=-2" for x in _P7_SQUARES] + [f"n{x}=2" for x in _P7_SQUARES] + ["theta0=1/2", "theta7=3"]
)

GOLDEN = [
    ("quiver-build --preset p1 --format json", 0, "1bccb152b88f58c17943f598eb02b6d1e935474e6fe3d88c4e8ba7994201fb87"),
    ("quiver-build --preset p1 --format dot", 0, "071485c0636f0d85dbc5ac6fbfa70e82acf8cfb79502f8800db55d5c5e6a866b"),
    ("quiver-build --preset p2 --format json", 0, "eb3a5e5cc90e0b30c231b8224eada26ff48ebe75bf6d71886b7bb1af882563a3"),
    ("quiver-build --preset p2 --format dot", 0, "4cff46f12265402b8d43671f65bf4d8681ee40eaf88cfda9210ddc18686adb78"),
    ("quiver-build --preset sl3 --format json", 0, "4ead0bbd3f382faea5ce69fb09be66d88af387f5d0865c8a4ec5833bec80beda"),
    ("quiver-build --preset sl3 --format dot", 0, "abbbfda6c17a2a291f987d6a51c576bd313e7867ea31ad913a65bab5c576a6fc"),
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
    # excluded_boundary_pairs beyond p=3
    ("quiver-check --preset p2 --p 5", 0, "5c71040ccb1582adb7397c4a4881c11dae4d7ec2f4045c3e2bf21521523a9b6d"),
    # an unsaturated truncation: the NotSaturated witness, then the dims it leaves
    ("quiver-check --preset sl3 --scalars a=1,b=1,r=1", 1, "01072234980a6a926ed18be75028ea56e801a678391f3d7d15e0f55963292509"),
    ("quiver-check --preset sl3 --scalars a=1,b=1,r=1 --allow-unsaturated", 1, "9de45c81b1b03f616982e8f6dcfd01138f3e24c05788f4415a4489335e11453f"),
    # weight side: factor tables, characters, Hom, cell indices, generators
    ("delta-factors --p 5 --r 2 --weight 10", 0, "a9fcb0812fd52646605b3077fc60b08116676e9f16eb8288e051e803b7277737"),
    ("delta-factors --p 3 --r 3 --weight -19 --format tsv", 0, "f5e58cadaa858f8c91da949e1e56b340af07b63be3dfb82c110fc3aedeb1b064"),
    ("delta-factors --p 7 --r 2 --weight 33 --format tsv", 0, "8f6950bc29be5a43b176e09b61f4c79f6b741ccb9f6341ab7223fa63ca401635"),
    ("delta-factors --p 3 --r 400 --weight 10", 0, "4a12ac740b1b3073d6052cfb5e024201815ec1382dd9e0eb5740e8c316874753"),
    ("char --kind tilting --p 3 --r 3 --weight 13", 0, "17b503b4907e04fd7970258aeccd5db8934e0a475622264ef890e8fdef14ff1a"),
    ("char --kind tilting --p 5 --r 2 --weight -7 --format tsv", 0, "c825c3bf68acc06c0d34321647b012681affe67aa6dddb75ac66228ac9eb0684"),
    ("hom-dim --p 3 --r 3 --weight 0 --weight 52", 0, "97171e5abdf06c99084f2020bd593d55f9a30ef3347646594eb037aa4554f058"),
    ("hom-dim --p 5 --r 2 --weight 10 --weight -12", 0, "8fe0096eb66e8e1f6a6ca3472cc8765fda3960cdac0c41441debd6ed888ab1ed"),
    ("cell-basis --source 0,4 --target 4,8 --p 3 --r 2", 0, "7cd64ba56e5e21fadaef5f28772b025b71fa6f002a2d813127456ec9db085630"),
    ("generators --p 3 --r 3", 0, "bfbb10a0e2a21911efc0071d029536474e7059353a04eb16005cab433a0d71e9"),
    ("generators --p 5 --r 2 --principal-block --format tsv", 0, "a2b6f8064968c2f45e281259f23fc3ad032d2b0b6a694980992ac5e7b6ea435b"),
    # weight-side verify suites: every suite at (3, 2), four over an explicit window
    ("verify --suite all --p 3 --r 2", 0, "3ee9a9f887e9f55866cf1c980dd1796c2599f93ae192d7fb78634ab813f010b5"),
    ("verify --suite reciprocity --p 5 --r 2 --lo -30 --hi 30", 0, "aad51d94ddd30c135029c4095b8e43fb4f086641f13293b71b0dc240157c9410"),
    ("verify --suite bounds --p 5 --r 2 --lo -30 --hi 30", 0, "bf761a296230357a1e758b6ec5d6b725f82ee5b9ffa5992b98cab01c336c0bed"),
    ("verify --suite linkage --p 5 --r 2 --lo -30 --hi 30", 0, "190a28b159a258c238569aff7a879cdec9b0d394cd3be0f7d816b030916ae28e"),
    ("verify --suite multfree --p 5 --r 2 --lo -30 --hi 30", 0, "27a143dc41e088ffdf988d1c8de197e20fa174b14d54abf4773a11045edf5dd5"),
    ("verify --suite steinberg --p 3 --r 3", 0, "7aa987b0097239bd4c5fd3089e4153a57a306d09b6703b162ea3624f87b33537"),
    # the four hot loops of the weight side: linkage over two periods, peeling,
    # the level-drop Hom sweep, generators, Hom of far-apart weights, cell indices
    ("verify --suite linkage --p 3 --r 3 --lo -54 --hi 53", 0, "65da99194be15c4dcfaa9a0121aaa32dbae5aa534c8e4b321b8558ce0925f939"),
    ("verify --suite reciprocity --p 3 --r 3 --lo -27 --hi 26", 0, "3a3cea7f1212e39f76739227cef15acd17ed21dbfda967d76aaab5f38bb0f8e5"),
    ("verify --suite steinberg --p 5 --r 3 --lo -30 --hi 30", 0, "a117f2e6afe4e78ef69603a5c4dc96b0bd29ca056ea30bd75e70112acfd45883"),
    ("generators --p 3 --r 4 --format tsv", 0, "249ca89b4f0bc60ca75ec5a4c6a03686bc852a8b775a619d71301e6952559696"),
    ("hom-dim --p 3 --r 3 --weight 0 --weight 500", 0, "33f77ebe099948d2bdab943c044ab5484e47b2445363336e1068d58c738f8f1d"),
    ("cell-basis --source 0,30 --target 4,60 --p 3 --r 2", 0, "994c538fd1d997d6401c7ade4673833705c5c383acf404a524975c4064c80b13"),
    # the linear engine across translates, both directions of each pair and
    # the sl3 mirror: the largest ladder checked, a wider window, a longer
    # truncation, and an unsaturated sl3 truncation past the default length
    ("quiver-check --preset p2 --p 7", 0, "3fbc6c198c1bbd5eaf3f015bf6def644921187c8e69ce590e2c6fdb1f47bb1d9"),
    (f"quiver-check --preset p2 --p 7 --scalars {BALANCED_P7}", 0, "ef5a029bc76d1a080d7227e019980262101b39471809b1473c33539d7f565496"),
    ("quiver-check --preset p2 --p 3 --window 2", 0, "a5eea3fdb82950453ef771b1904a4d9942d823c74a36ec13938e1a0e6dd543ea"),
    ("quiver-check --preset sl3", 0, "7f73ca8d991f3f16a7ed38e6063451ff139b563d90905dafbecd5946cc2b35a2"),
    ("quiver-check --preset p2 --p 3 --max-len 6", 0, "000e081432603abc2e810575279692d2e14a8a82c41447d4c37fd9d099954e12"),
    ("quiver-check --preset sl3 --scalars a=1,b=1,r=1 --max-len 8 --allow-unsaturated", 1, "b7779522c136f7db0c5b59b306bd2d739cd8cc2219039ded57b8fefda5b0c49a"),
]


@pytest.mark.parametrize("command,status,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_golden(command, status, digest):
    code, out = invoke(command.split())
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
