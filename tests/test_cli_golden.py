"""Byte-level golden outputs of the quiver and weight-side subcommands.

Each entry pins the exit status and the sha256 of stdout for one cheap
command.  The quiver entries were recorded before the preset handling was
refactored, the weight-side entries before the factor tables became a walk
over p-adic digits, the six weight-side hot loops before peeling, linkage,
Hom and the generator family stopped rebuilding a dict per step, the six
quiver checks across translates before the linear engine was folded by
symmetries of the vertex pairs, the five emitter entries before every
command wrote through one emitter, the four ladder shapes before p1 and p2
were built by one ladder builder, the two `verify` sweeps before `verify`
counted its passing weight checks instead of storing them, the
`cell-basis` entry with multiplicities before `cell-basis` tallied standard
factors in one pass, the three two-period sweeps before the bounds,
linkage and multfree sweeps counted their passing checks too, and the last
four, one per `char` kind not pinned before, before characters became plain
dicts.  The three entries with a mult-free report were re-recorded when that
report's context gained the window (lo, hi) that the other weight reports
carry.  The eleven entries that print a ladder's `excluded_boundary_pairs`
were re-recorded when that count became the number of boundary pairs with
an alive path, no longer the nonzero ones only.  A refactor of `cli.py`,
`quiver.py`, `deltafilt.py`, `charring.py`, `weights.py`, `cellbasis.py` or
`report.py` must leave every entry unchanged; a deliberate change of output
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
    ("quiver-check --preset p2 --p 3 --format json", 0, "c47474f0c83793bdc0621d58222ea10d70cf3f24f397a50ab84ae500cd9b97b3"),
    ("quiver-check --preset p2 --p 3 --format tsv", 0, "070f315cd0e89f8b52fe49eba940b83d87b11044c914caeee19ec811d61d9be9"),
    (f"quiver-check --preset p2 --p 3 --scalars {BALANCED_P3} --format json", 0, "4ffe9ffc3f0abc71d09177a334aabfb1a38a46112eed365bd9e562ab348cb046"),
    (f"quiver-check --preset p2 --p 3 --scalars {BALANCED_P3} --format tsv", 0, "070f315cd0e89f8b52fe49eba940b83d87b11044c914caeee19ec811d61d9be9"),
    ("quiver-check --preset sl3 --scalars a=2/3,b=3,r=0 --format json", 0, "db3f07d0a11984e3b6dc76e61abd2d835b26a19439780c1b33ccbe232cf8a54f"),
    ("quiver-check --preset sl3 --scalars a=2/3,b=3,r=0 --format tsv", 0, "15e058d917c552b4b83ab47934d27c6475379cfd7567ffeceafa01fa619327bf"),
    # failing controls: the bare relation families, one unbalanced square scalar
    ("quiver-check --preset p2 --p 3 --no-boundary-loops", 1, "cce35436fb863fc4cb94fdb9e7943a65fff6353fe541768c255f8a6205df2207"),
    ("quiver-check --preset p2 --p 3 --scalars m1=2", 1, "4115669f88f96e9acc3debedf09746969cdeb780441aa11bcc436ef223983850"),
    ("verify --suite quiver --p 3", 0, "9b41422d9e37cd9d9ffb6d0bb3370454e8b65c26256bddbdb4474a7041f16bb7"),
    # excluded_boundary_pairs beyond p=3
    ("quiver-check --preset p2 --p 5", 0, "e6c587e1f7ede95f92b7822f8ff26fe8c7e4722f7b26f98ceee82e7ed479d79e"),
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
    ("verify --suite all --p 3 --r 2", 0, "eb94b18c47cd33b5c698ec4d2c63a91d2b3639024eb671b4fd4298cb430fbf19"),
    ("verify --suite reciprocity --p 5 --r 2 --lo -30 --hi 30", 0, "aad51d94ddd30c135029c4095b8e43fb4f086641f13293b71b0dc240157c9410"),
    ("verify --suite bounds --p 5 --r 2 --lo -30 --hi 30", 0, "bf761a296230357a1e758b6ec5d6b725f82ee5b9ffa5992b98cab01c336c0bed"),
    ("verify --suite linkage --p 5 --r 2 --lo -30 --hi 30", 0, "190a28b159a258c238569aff7a879cdec9b0d394cd3be0f7d816b030916ae28e"),
    ("verify --suite multfree --p 5 --r 2 --lo -30 --hi 30", 0, "3b144ca824060d0f575ffac89cf85bce23f4ccc3dc9549033576bd70d3e2b8f9"),
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
    ("quiver-check --preset p2 --p 7", 0, "ed5c4b35e479bc92fc2a885a7829b9b95577dc745bff0c2b451f928ba0bc1395"),
    (f"quiver-check --preset p2 --p 7 --scalars {BALANCED_P7}", 0, "37aa920ac11260c517db4df2952c3d136448ebf5635dc7b0d765aa75cf3b0d19"),
    ("quiver-check --preset p2 --p 3 --window 2", 0, "0c4ff105617639b3485c307e4dcd93b138e8f15071f364ea20e3fe133d73ba37"),
    ("quiver-check --preset sl3", 0, "7f73ca8d991f3f16a7ed38e6063451ff139b563d90905dafbecd5946cc2b35a2"),
    ("quiver-check --preset p2 --p 3 --max-len 6", 0, "e667a82616a4936b85d83a61a0baa7b8ee56fb60e6f6a15ba28caf9160d0b2e5"),
    ("quiver-check --preset sl3 --scalars a=1,b=1,r=1 --max-len 8 --allow-unsaturated", 1, "b7779522c136f7db0c5b59b306bd2d739cd8cc2219039ded57b8fefda5b0c49a"),
    # the remaining emitter paths: an empty TSV table (one newline), a simple
    # character, the sl3 generator pairs in both formats, and a report as TSV
    ("char --kind weyl --weight -1 --format tsv", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("char --kind simple --p 3 --weight 7", 0, "cd0b758481e54a234f5292c9a9bbe355464c3b27a4b8336a22318d0dce245139"),
    ("generators --preset sl3", 0, "08635ee41c88afa3813fe5d8688e677a20e76cf1a92aab81b05e508220e5d8f9"),
    ("generators --preset sl3 --format tsv", 0, "515cdb4e98ebcffcf90761ddc4cb8679c43bca136cefcc8c032e9e93b720e65e"),
    ("quiver-check --preset sl3 --scalars a=1,b=1,r=1 --format tsv", 1, "40d9f1d8bc2c188eeeb1b4476a9ccd5fe93a41e6af6330b3c43fc0cd92ed329c"),
    # the ladders beyond their default shapes: a wider p1 window at p=5, a
    # wider p2 window, and p2 without the chain-top loops and with fractional
    # scalars, relation by relation
    ("quiver-build --preset p1 --p 5 --window 3 --format json", 0, "f84920ec796262030b138dd2b38e57ea02b1452cb90dba98f3089166593d436d"),
    ("quiver-build --preset p2 --p 5 --window 2 --format json", 0, "cd32c3ffb9c84401ef5c5dbe8ec028d21677c52465d4acf5f05635c64595f192"),
    ("quiver-build --preset p2 --p 3 --no-boundary-loops --format json", 0, "8b78a7565ee9835190ff1f2694fb3ad94439176f52ee16da5c951996fc0d698d"),
    (f"quiver-build --preset p2 --p 3 --scalars {BALANCED_P3} --format json", 0, "fa3ddc681ea643353b5f87411f76221327f83193fdeaffe995cdf865eaf59cba"),
    # the heaviest verify shapes of the weight-sweeps benchmark: the level-drop
    # sweep over about two periods of p^(r-1), and a reciprocity half period
    ("verify --suite steinberg --p 3 --r 5 --lo -244 --hi 244", 0, "8881d22bdc6c0254aaf251c3e0ada56625c5488e16308414bc9c30cd29a8723c"),
    ("verify --suite reciprocity --p 3 --r 5 --lo -897 --hi -655", 0, "fb03e01dac2e782932a7d2310c9c452cb3bb1a8b9039c45585b011a59f48fd5f"),
    # cell indices of objects with multiplicities, over repeated flags: i
    # runs to 3 and j to 2
    ("cell-basis --source 0,4,4 --source 8 --target 4,8,8 --target 4 --p 3 --r 2", 0, "eef2ac6f48f02afb4192ef51d7dfe031853630ce71a59272341a07c2b99df730"),
    # the other weight-sweeps shapes, two full periods 2p^r each: bounds at
    # (3, 5), whose child sets the benchmark's peak RSS, linkage at (3, 4)
    # and multfree at (3, 5)
    ("verify --suite bounds --p 3 --r 5 --lo 378 --hi 1349", 0, "f779b5580c089a31456485dbc9b3838ec6c4c61a5a894807afe8f929eac62ac1"),
    ("verify --suite linkage --p 3 --r 4 --lo 40 --hi 363", 0, "ae73125818fb3a54c2cd4bc87284439db0f7bd4ab7acb48e7cb5cf5f7276e4ed"),
    ("verify --suite multfree --p 3 --r 5 --lo -731 --hi 240", 0, "cacd0272cccf94e56f4449963b6e7518a948c0079b941bbae4c53f65bd573892"),
    # the character kinds no entry above reaches: a level-r simple below
    # zero, a standard character, a Weyl character with coefficients -1, and
    # a simple character of two base-p digits
    ("char --kind simple-r --p 3 --r 2 --weight -5", 0, "aa464747dbcbc6c6c2b79c91488c66054c74225b3bead78ed004ebc548c05ac1"),
    ("char --kind baby-verma --p 5 --r 2 --weight 7 --format tsv", 0, "1e59aaca5f259e066356c4d1dafeae7236e6a16980dc33817130fd98f3efeb96"),
    ("char --kind weyl --weight -4", 0, "e2c54e2c5bac8e5171bafee9210b48ec9bc6efec1f958c8b63e3550d823bae58"),
    ("char --kind simple --p 5 --weight 24 --format tsv", 0, "4830268547e834ed0fac6f5f694a9c601bcc31b268c10044dd21ad2984fe0f26"),
]


@pytest.mark.parametrize("command,status,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_golden(command, status, digest):
    code, out = invoke(command.split())
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
