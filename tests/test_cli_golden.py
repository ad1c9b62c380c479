"""Golden CLI outputs: the SHA-256 of stdout and the exit code per command.

The first 49 digests were recorded from the code before the unused flags,
aliases and duplicate helpers were deleted, so a passing run shows that
those deletions changed no output byte and no exit code.  The two witness
groups after them (5,4,13,1F -> 5,4,9,C, which goes through alpha
normalisation, the k -> m-k swap and witness inversion, and
6,1,12,1 -> 6,5,2A,39) were recorded from the code that still composed
linear maps as linearized-polynomial coefficients, before PairMap moved
to basis images.  The last four rows (enumerate-beta at m = 12, k = 5 and
m = 15, k = 7, classes at m = 12, and enumerate-beta at m = 9 under the
modulus 0x211) were recorded from the code that still built the log table
with m shift-and-XOR passes per doubling step and took orbit minima with
m - 1 squaring passes; they cover odd m, a degree that is not a power of
two, several orbit lengths and a non-default modulus.  The three
--modulus 6=0x49 rows for check-apn, aut and witness were recorded from
the code that still held a member's parameters apart from its field;
f_(1, 1, 0x2) is APN over 0x49 but not over the default 0x43 (exit 3, 2
and 2 without the override), so they fail if a member loses its field
on the way to a verdict, an automorphism order or a witness.  The five
rows after them (enumerate-beta in JSON at m = 1, k = 1 and m = 17, k = 3,
in pretty at m = 12, k = 5; classes in CSV at m = 12 and in pretty at
m = 16, k = 3) were recorded from the code that still formatted every
element, orbit and class row as a Python string and encoded the JSON with
json.dumps; they cover a single-element list (no trailing comma), hex
values of five digits, the pretty orbit lines and the even-m beta_star
null ("" in CSV, "*" in pretty) next to the per-orbit rows.  The earlier
commands run in each of the three formats (commands without a CSV form
fall back to their pretty output); all run on inputs small enough for the
default suite.
"""

import hashlib
import shlex

import pytest

from taniapn.cli import main
from taniapn.families import BivariateFunction, GoldFunction

GOLDEN = [
    ("--format pretty table --m 2..8", 0, "27bc44f761040ff38a023243d6f91f3d77398d29b74bca34cf5fb8ddac869b26"),
    ("--format json table --m 2..8", 0, "76c20f9a0891fff82836ef8c6d7192cee8ce48c7924b252778189eed8590b470"),
    ("--format csv table --m 2..8", 0, "48440fbe569aabd3ca321e787caaf32d90318cbba3f23f473794a583cdb708a7"),
    ("--format pretty table --m 2..8 --full", 0, "5c5cc519e4a61b2f0d3a66678aec0e294a416c4c2abe3a0da275366ac88f9322"),
    ("--format json table --m 2..8 --full", 0, "a513514feb67f20f8ccb3fe32ad79b50dbea7e65ae8b18162f2728285d41cc6c"),
    ("--format csv table --m 2..8 --full", 0, "2b3462e92da601588ce94bbe7010447c9e3ab3d44b1ffed6ebc53ee71168eca4"),
    ("--format pretty audit --m-max 8", 0, "1015d29876f95b24f98bcdc50d38fd1ce65a2a827c3236a3c5941ea985d77461"),
    ("--format json audit --m-max 8", 0, "153574b07ca3a176bfdaab8dc0e85c739410595ad5dea451e90626b62da9ac49"),
    ("--format csv audit --m-max 8", 0, "1015d29876f95b24f98bcdc50d38fd1ce65a2a827c3236a3c5941ea985d77461"),
    ("--format pretty audit --m-max 8 --k-policy all", 0, "5e83e1414388c125b3e58f3ca2497079b984346527fd10c6deec41514869bb8e"),
    ("--format json audit --m-max 8 --k-policy all", 0, "16f199b6a45842a640d21dbf7fe1bb45e5feeb7e697190f51c7976c14eb3c555"),
    ("--format csv audit --m-max 8 --k-policy all", 0, "5e83e1414388c125b3e58f3ca2497079b984346527fd10c6deec41514869bb8e"),
    ("--format pretty check-apn taniguchi --m 4 --k 1 --alpha 1 --beta 9 --exhaustive --spectrum", 0, "93c24ffa550c21e8b49e6604460dcf57579ec0e98c3f48e5e9e323c32d88d1f8"),
    ("--format json check-apn taniguchi --m 4 --k 1 --alpha 1 --beta 9 --exhaustive --spectrum", 0, "35cf5fd46219bd5bbb0f75523bc4d1e08faa05dfb7a68abb9d586439b59908c8"),
    ("--format csv check-apn taniguchi --m 4 --k 1 --alpha 1 --beta 9 --exhaustive --spectrum", 0, "93c24ffa550c21e8b49e6604460dcf57579ec0e98c3f48e5e9e323c32d88d1f8"),
    ("--format pretty check-apn taniguchi --m 4 --k 1 --alpha 0 --beta 1 --exhaustive --spectrum", 3, "4237f311acf4daeb25585e7c54b324d765fd252cb1f041673074a082040bda44"),
    ("--format json check-apn taniguchi --m 4 --k 1 --alpha 0 --beta 1 --exhaustive --spectrum", 3, "a479ac31546edc721e2abdc2ffe982b414b12deff541ee2e450c1e0bbef77a22"),
    ("--format csv check-apn taniguchi --m 4 --k 1 --alpha 0 --beta 1 --exhaustive --spectrum", 3, "4237f311acf4daeb25585e7c54b324d765fd252cb1f041673074a082040bda44"),
    ("--format pretty check-apn pott-zhou --m 4 --k 1 --s 2 --alpha 2 --exhaustive --spectrum", 0, "549fa8adb8c2b29043298205bb3ad0d937f861abfb7fd92b05dcce7190a8f4fb"),
    ("--format json check-apn pott-zhou --m 4 --k 1 --s 2 --alpha 2 --exhaustive --spectrum", 0, "3a5d1244d08c6c60a75a8a4858601d1ea64c645018800653516acb970fb15e71"),
    ("--format csv check-apn pott-zhou --m 4 --k 1 --s 2 --alpha 2 --exhaustive --spectrum", 0, "549fa8adb8c2b29043298205bb3ad0d937f861abfb7fd92b05dcce7190a8f4fb"),
    ("--format pretty check-apn gold --n 7 --i 3 --exhaustive --spectrum", 0, "a861352c76f22ee5324dbcadda916cf068af24edfe0b38ded181f007760de41b"),
    ("--format json check-apn gold --n 7 --i 3 --exhaustive --spectrum", 0, "508303f39846b19c4f326b0526abe73c284f4c998d9dee5f92ca4a5fc41c4b57"),
    ("--format csv check-apn gold --n 7 --i 3 --exhaustive --spectrum", 0, "a861352c76f22ee5324dbcadda916cf068af24edfe0b38ded181f007760de41b"),
    ("--format pretty spectrum taniguchi --m 3 --k 1 --alpha 1 --beta 1", 0, "f34678ba4db5f4f0af038fe84e86426310beaa7258f7469d1f9f30de88f020d2"),
    ("--format json spectrum taniguchi --m 3 --k 1 --alpha 1 --beta 1", 0, "97d3f6e3f87316d0edc6362ddab4a807234de4c4b48fac0b60634ebc1662c7ec"),
    ("--format csv spectrum taniguchi --m 3 --k 1 --alpha 1 --beta 1", 0, "86c6c4e387e2a731a6adbe16fb788225ed3cf46e4028efa963adf67bbc718640"),
    ("--format pretty enumerate-beta --m 6 --k 1", 0, "0a49973726c460d66eb93b72399f37653debb94d24091a4812b3f54a23a0202d"),
    ("--format json enumerate-beta --m 6 --k 1", 0, "78503094b721768d2d58e4d7f71de9f83324541d6103903627f9f7dacef99b98"),
    ("--format csv enumerate-beta --m 6 --k 1", 0, "d8f4899cbaf187a1420ed7114a805a3da9d901320864d34e2a8f8687561e6e50"),
    ("--format pretty classes --m 7", 0, "95c04746d41fe69db52db0b96bb2dc290ae489d90f9681bbc69a5ddf179527be"),
    ("--format json classes --m 7", 0, "7919ca2e0376be44a39e06cd02972fc8cb964ca8e8f068ab9cd8e601f7c8c3d8"),
    ("--format csv classes --m 7", 0, "4a0158093a0b0175b4a0bffd2def2f301ed080ad522952b8282ce83084ed5d33"),
    ("--format pretty classes --m 8 --k 5", 0, "52a33f87f522bb09ee4c83df70adaf8f24293f0475e3224d477aaff671bebb85"),
    ("--format json classes --m 8 --k 5", 0, "874c225aff62209c7232f315c96f0455468fca5bcfc051154beeb110d04757a4"),
    ("--format csv classes --m 8 --k 5", 0, "2f3bc25b0a68f2473b4719ccaea42819fe66200375a7dcf98d1b7129576e1245"),
    ("--format pretty witness --from 4,1,1,9 --to 4,1,1,D", 0, "4825c599ce1c27d1baf8c4d56f0ce2d89aed2d7cc508843907706f8b07a32e7f"),
    ("--format json witness --from 4,1,1,9 --to 4,1,1,D", 0, "5cdd3027e7681b3bd342d3b25c6b1c65e5c6715f1d50c1d9511e3a18da1d22e7"),
    ("--format csv witness --from 4,1,1,9 --to 4,1,1,D", 0, "4825c599ce1c27d1baf8c4d56f0ce2d89aed2d7cc508843907706f8b07a32e7f"),
    ("--format pretty witness --from 4,1,1,9 --to 4,1,1,1", 3, "ccda944d2aea6b8336f2c400a70a3de985ac0d00758decc8ffa510a9f58f5741"),
    ("--format json witness --from 4,1,1,9 --to 4,1,1,1", 3, "c74581fc4cad4e8de3eb62b5755ef172be23d71cb9961e49f856122af3260dd6"),
    ("--format csv witness --from 4,1,1,9 --to 4,1,1,1", 3, "ccda944d2aea6b8336f2c400a70a3de985ac0d00758decc8ffa510a9f58f5741"),
    ("--format pretty witness --from 4,1,0,2 --to 4,3,0,2", 0, "dfcb33afaf4bc1e24a2d29f8e71a5d31eaaeb88fb30e3bf4666731914d96c2a4"),
    ("--format json witness --from 4,1,0,2 --to 4,3,0,2", 0, "2d0c05cea05804e13a16695a73a9f2fca7535ab1cc4931c923ab7b2c7a917a4b"),
    ("--format csv witness --from 4,1,0,2 --to 4,3,0,2", 0, "dfcb33afaf4bc1e24a2d29f8e71a5d31eaaeb88fb30e3bf4666731914d96c2a4"),
    ("--format pretty aut --m 4 --k 1 --alpha 0 --beta 2", 0, "9ceb8edb56f33fc2dfaa2cd053235af8204fda27420a65b8f72e5c183c2d4fa5"),
    ("--format json aut --m 4 --k 1 --alpha 0 --beta 2", 0, "4bc24c0f464fa127a38f1b87d5c062c50ced713ca7e974442dd781b2914ad930"),
    ("--format csv aut --m 4 --k 1 --alpha 0 --beta 2", 0, "9ceb8edb56f33fc2dfaa2cd053235af8204fda27420a65b8f72e5c183c2d4fa5"),
    ("--modulus 6=0x49 --format json enumerate-beta --m 6 --k 1", 0, "3435fe38ffcbb04c362779698e2cf96a6dc341b84f9b5389ff24deeeddf4b1d2"),
    ("--format pretty witness --from 5,4,13,1F --to 5,4,9,C", 0, "c804872a5b4edf0ef0a23f169e633bef4d221f08389f71fe3e5fe869e1bea62e"),
    ("--format json witness --from 5,4,13,1F --to 5,4,9,C", 0, "d7e2573b75a2ec959908c10367529f04afc0e5e174af4797d525207daf6be796"),
    ("--format csv witness --from 5,4,13,1F --to 5,4,9,C", 0, "c804872a5b4edf0ef0a23f169e633bef4d221f08389f71fe3e5fe869e1bea62e"),
    ("--format pretty witness --from 6,1,12,1 --to 6,5,2A,39", 0, "3d80c1e33b3ef8826290d699dd895d12553b54d51d330589551708b2ba3d22b1"),
    ("--format json witness --from 6,1,12,1 --to 6,5,2A,39", 0, "1d7f42f7cfcb6607c3842e856a2ae03b3c4389492ef53a53e8b743abb9daac47"),
    ("--format csv witness --from 6,1,12,1 --to 6,5,2A,39", 0, "3d80c1e33b3ef8826290d699dd895d12553b54d51d330589551708b2ba3d22b1"),
    ("--format json enumerate-beta --m 12 --k 5", 0, "7fc7a64a1124266b05b68fc8aa5779850e65930f6f77c00d918ff45ec81d2702"),
    ("--format csv enumerate-beta --m 15 --k 7", 0, "f1a0c0922c3951cfff54b81e49b7b860b04f7510240535bf519c0800f731890c"),
    ("--format json classes --m 12", 0, "2489438f7f3e12c2172fcf67b9855c1b0ec5875c3469a9457b61d4c0aaa069b8"),
    ("--modulus 9=0x211 --format csv enumerate-beta --m 9 --k 2", 0, "3b0520c57eee33d09294a47fa29ccebab98f53a77b9a883f8e3f63e55852c176"),
    ("--modulus 6=0x49 --format json check-apn taniguchi --m 6 --k 1 --alpha 1 --beta 2", 0, "5db1475dc5a29790169b828a419d030014766ef7be939c0213c05fcf01572d06"),
    ("--modulus 6=0x49 --format json aut --m 6 --k 1 --alpha 1 --beta 2", 0, "ce2d1c66a272919eda7ec4e26f009b034582a3bbc2b3d2058119329d7ee6500e"),
    ("--modulus 6=0x49 --format json witness --from 6,1,1,2 --to 6,5,2A,18", 0, "7b7d5e5b949832867eb4ba0a46ba60c113b9616a5dc6c27c76281b6f6030e2be"),
    ("--format json enumerate-beta --m 1 --k 1", 0, "e095868e7c68634982cff9cdbe40d8a5eac0c6b877000a0c40fc2304eccc9277"),
    ("--format json enumerate-beta --m 17 --k 3", 0, "8314da5e3ecb9f37fd6f0378ca1f3d87f43124d35333c39d2860cec8df418c54"),
    ("--format pretty enumerate-beta --m 12 --k 5", 0, "3be707a34c9dfc5a519a6dd98ffa356c205fc74ca7d711f17534af0d9d2f1e88"),
    ("--format csv classes --m 12", 0, "6ffab21b1a91916df2942cf755fc3e59875f76dd7e87d309315d1d496e8fa231"),
    ("--format pretty classes --m 16 --k 3", 0, "347c67905870fac39e256c58a4421762458d5505640934ba418145ce210a05ef"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_bytes_unchanged(capsys, argv, code, digest):
    assert main(shlex.split(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# audit --m-max 10 in each format, recorded from the code that still
# enumerated Phi(m) as two geometric sequences of the generator
AUDIT_TO_10 = [
    ("--format pretty audit --m-max 10", 0, "a2a48c99c10dae769e10474d9ff6b285d0a67b963713d23dbe11610eb5e88fcc"),
    ("--format json audit --m-max 10", 0, "9e996ba0ea7fc1653dde807aa8c266faf3d5095a0c2afda20c9e09089a012a6f"),
    ("--format csv audit --m-max 10", 0, "a2a48c99c10dae769e10474d9ff6b285d0a67b963713d23dbe11610eb5e88fcc"),
]


def test_phi_commands_need_no_generator_or_log_table(capsys, forbid_generator_walk):
    forbid_generator_walk()
    phi_commands = {"enumerate-beta", "classes", "audit"}
    rows = [g for g in GOLDEN if phi_commands & set(g[0].split())] + AUDIT_TO_10
    assert len(rows) == 28
    for argv, code, digest in rows:
        assert main(shlex.split(argv)) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_json_phi_commands_never_walk_the_orbits(capsys, monkeypatch):
    # JSON enumerate-beta, classes and audit print representatives and
    # lengths only, so the per-element orbit walk behind orbit_of never runs
    from taniapn import poly_roots

    def refuse(*_):
        raise AssertionError("the orbit walk ran")

    monkeypatch.setattr(poly_roots, "_orbit_ids", refuse)
    phi_commands = {"enumerate-beta", "classes", "audit"}
    rows = [g for g in GOLDEN + AUDIT_TO_10
            if "--format json" in g[0] and phi_commands & set(g[0].split())]
    assert len(rows) == 11
    for argv, code, digest in rows:
        assert main(shlex.split(argv)) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# check-apn --exhaustive and spectrum at 2m = 6..14 (Taniguchi, alpha = 0
# for even m, APN and not), Pott-Zhou at m = 4, 6 and Gold at n = 9, 11,
# 13, recorded from the code that still built a full truth table for the
# kernel-rank scan
SCANS = [
    ("--format json check-apn taniguchi --m 3 --k 1 --alpha 1 --beta 2 --exhaustive --spectrum", 0, "bcb58eb754ebccdb0dd5e107d0d1b3021dd0eb5a2566ad0435f28fa7b9331108"),
    ("--format json check-apn taniguchi --m 3 --k 1 --alpha 1 --beta 1 --exhaustive", 3, "4a467523600d0299f9d0ff16e6daa19b93c308baab58246af49e1e1a641cbf6f"),
    ("--format pretty spectrum taniguchi --m 3 --k 2 --alpha 3 --beta 1", 0, "c4d34a862d790ae37bb26597ccc2b1767d6448bb7d5dd1579a28f6e5051ce7c5"),
    ("--format json check-apn taniguchi --m 4 --k 1 --alpha 1 --beta 2 --exhaustive", 3, "f405e3129138de46b8b2804bfc588f26b6f9e4265df6e6484e5653ee38a249d1"),
    ("--format pretty spectrum taniguchi --m 4 --k 3 --alpha 3 --beta 2", 0, "2bbdb8f9fbc6ef61a5b84ebc55a4d1a28e6e79643c3c5862816a5c62dac4f4fc"),
    ("--format json check-apn taniguchi --m 4 --k 1 --alpha 0 --beta 2 --exhaustive --spectrum", 0, "83514b23510c7140b286ef11eedcd9172f70d89d77f8ed057f5a520f23198940"),
    ("--format json check-apn taniguchi --m 5 --k 1 --alpha 1 --beta 6 --exhaustive --spectrum", 0, "59b7a3e79d34a4d55f0b1c8e46f65adfd22e7d775b0315c03036e55fe69aefc5"),
    ("--format json check-apn taniguchi --m 5 --k 1 --alpha 1 --beta 3 --exhaustive", 3, "c3fb60638b7e4aeb536763a1640c6daa80bcd5594ba6b2d0491d5502fbd22c46"),
    ("--format pretty spectrum taniguchi --m 5 --k 4 --alpha 3 --beta 3", 0, "9e16ec5b944f6657ca307a5b03b59948aa709cc9b9c798b92920ca2e06cd1af6"),
    ("--format json check-apn taniguchi --m 6 --k 1 --alpha 1 --beta B --exhaustive --spectrum", 0, "9b86f74b360f89006cd5f2075d62916e3f1168cf97d91577127634076267d53e"),
    ("--format json check-apn taniguchi --m 6 --k 1 --alpha 1 --beta 1 --exhaustive", 3, "b31730fea98979f2c93ed301c91313bad8b46d9b6895b85b852f50d47467b6e0"),
    ("--format pretty spectrum taniguchi --m 6 --k 5 --alpha 3 --beta 1", 0, "363f56f179fda1e865ae66109dad68765c9a3da035ebb2c03e7247394049fbc2"),
    ("--format json check-apn taniguchi --m 6 --k 1 --alpha 0 --beta 2 --exhaustive --spectrum", 0, "eedb70215ed4b2238dc7da6557ea86da90a83bfe9d48b744fe9140f75501f2c8"),
    ("--format json check-apn taniguchi --m 7 --k 1 --alpha 1 --beta D --exhaustive --spectrum", 0, "35d336a9a26ac077635d1fc9f0b1a9d28819ff450faab78cae46e5c25c2f7366"),
    ("--format json check-apn taniguchi --m 7 --k 1 --alpha 1 --beta 2 --exhaustive", 3, "41845dd21afdc3154f3e5eebd93be5a2d1f5ec56175eec7a9ee5e8509fa6ba6d"),
    ("--format pretty spectrum taniguchi --m 7 --k 6 --alpha 3 --beta 2", 0, "d64afbf5ab44ecb6eeeac0cdd8db8507bd76c23bad39bbb4ee0f5a68d054ca5b"),
    ("--format json check-apn pott-zhou --m 4 --k 1 --s 1 --alpha 2 --exhaustive", 3, "27515acf63b470f884a8aa24ec550588432182fb1d0e8761825330caf38943a8"),
    ("--format csv spectrum pott-zhou --m 4 --k 3 --s 4 --alpha 3", 0, "c7685dbb2d8c3b50de9f03e9c4f931536453a17da1790ab5033f5cab3e6115bb"),
    ("--format json check-apn pott-zhou --m 6 --k 1 --s 2 --alpha 2 --exhaustive --spectrum", 0, "bbca7aa6f46a86d4314ee21639e79258581abdb8b15be7b75d47c239f1f17715"),
    ("--format json check-apn pott-zhou --m 6 --k 1 --s 1 --alpha 2 --exhaustive", 3, "614a5f185d0037ebf191db04b6506cb0e9df6826173c40b9ae237b30423d1e62"),
    ("--format csv spectrum pott-zhou --m 6 --k 5 --s 4 --alpha 3", 0, "2e147f111d8e8b7e6f4dc568e9f5174a9079f37058f0b24829515df228e85739"),
    ("--format json check-apn gold --n 9 --i 2 --exhaustive --spectrum", 0, "16295fae299ff95758a8d989a8c4748f93412ca01ecaf66cd6d9d92252cc9e06"),
    ("--format pretty spectrum gold --n 9 --i 1", 0, "20961bf775c4561a47cf7a36874a517adcf74a01dfae2f6cb8f7986a18e35a40"),
    ("--format json check-apn gold --n 11 --i 3 --exhaustive --spectrum", 0, "462b34b01c40aba259ab29224cf3fd4fcfccf0cc612c4e9b3744a9389071f0b2"),
    ("--format pretty spectrum gold --n 11 --i 1", 0, "463102f444b94d1629c7c8f975602604b21961662f27770046190a4103714cd7"),
    ("--format json check-apn gold --n 13 --i 5 --exhaustive --spectrum", 0, "33bcdf15a3b64db32a84ea772885445e45b76134a4b9eca6fee733702cead5f6"),
    ("--format pretty spectrum gold --n 13 --i 1", 0, "9e1a7cdbb4e80932f262c85275dff619443f4914bbccf3eb124f7f51c2caf547"),
]


def test_quadratic_scans_build_no_truth_table(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a quadratic scan built a truth table")

    for cls in (BivariateFunction, GoldFunction):
        monkeypatch.setattr(cls, "_table", property(refuse))
    rows = [g for g in GOLDEN if "--exhaustive" in g[0] or " spectrum " in g[0]] + SCANS
    assert len(rows) == 42
    for argv, code, digest in rows:
        assert main(shlex.split(argv)) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
