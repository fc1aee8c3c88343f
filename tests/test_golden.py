"""Golden transcripts of the command line.

A fixed set of sdl commands runs in-process through cli.run, on the zoo
files, a relabelled copy, a morphism and a cofunctor file, the bad inputs
of test_cli and a seeded slice of the pt_4 family.  The exit code and
stdout lines of every command, and the SHA-256 of the file a command
writes with -o, are hashed: one SHA-256 over the whole transcript is
pinned, and on a mismatch the first eight hex digits of each command's own
SHA-256 name the first command whose output moved.

After a deliberate change of output, `PYTHONPATH=src python
tests/test_golden.py` prints the new pins.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import tempfile

from conftest import shuffle_algebra, subsemigroup
from stonedual.algebra import SemigroupMorphism
from stonedual.category import identity_cofunctor
from stonedual.cli import run
from stonedual.duality import counit_epsilon
from stonedual.io import (CofunctorFile, MorphismFile, instance_to_dict,
                          save_instance)
from stonedual.zoo import gen_i, gen_pt, zoo_categories, zoo_semigroups

TRANSCRIPT_SHA256 = 'bc58b3dd5681654b87aba76e682411c6ed4b1db263ba3a281b6e79ef67f071f3'
COMMAND_DIGESTS = """
1b6abf56 51e68d1d e1cd6f12 8903ea19 aab7f7ef 85915e80 19e9b057 01d393a8
f5c7db5d 8134b1f0 28b9376f 730e1290 a90516de 6c4fb8a2 41cb127f 377b1917
dc02cfb7 ed4df17b 05756931 884d8096 dae0ce7d b9269a74 b69149ab c43a55e7
008bf124 22893e82 40a15d03 68153f74 1905862d 8d713e44 5fdbcfda 80240e96
132b338c f4b48b0d 19ca2a55 da1f4c8d ff9b7aed 1eb9109d c9ba1b90 7afee950
bf2a8b02 fb7368aa 1b8db7c3 e0b7a6bc 00ce5b96 32c01240 8004ab27 ec492ff1
26593b82 b729d001 f2e7d4e5 5aff90bd 517a860b ad49648b 18cac608 d43b4e42
a7612e39 93922dd0 7c9c9a21 971437e3 d5f7f12d 9b0e55da edb2269a 2c51dc59
e203d638 3c7b4f37 c543e905 1657fe11 8bf1ca75 b412848e 4aea9415 9540f6f8
708a345f d22bf4a2 245ccaf8 c4f0d6ff f6a4edc9 3bbc522d 3161fc3f 15b40fe6
1e373a3f 5f2147b2 937bc71f c574ae58 2413e3b3 610888f5 b2b14c17 d681fa78
16dda995 fdf02410 c29343de efa4a0b6 ecd63850 bb45587a 054587fb 3e16797e
8981542f 85243e8c f259d211 fc57ac5c 288085e6 1576024b 056dd507 4bdb1730
9e29f6e7 f17df0df 1030752e 1599055d feccc19e d72e4d06 43115415 77248e3f
b7c24af9 c16a1a2d d49f7130 c61aa081 ab645f95 dd360a9a 1c463e77 b01b10dc
ec893ae7 1093454e 1938e60d 43a5c86a 59a57c88 6ec5b66d b14a8720 d44ec963
c6b75b8f ff244ec1 8dd98671 4465e1ec 24b49f1e e60256ea c2137376 1a986a97
74d7ba72 1eb0ac17 79507030 03ee5e8f b3333472 93392f7d 8662c702 986dc21c
428d373b 0c8fb460 6b59c492 0e625f4b 07beb7f8 71356f7e 39106948 46a9ede1
e6a63117 bcd25acb 4a7c9bcb c3374227 71622c05 0c2b0e5f 87658731 f5552b49
c771f82c c7c765c6 64bebd2d d5ee3afa eb5015dc b7eb39f9 919ef8f7 e55f7ff7
7de3162f 1fe5514d e2f3f552 590a596b e3beb71b 0217338e 03a212a9 599013c4
0e740a70 1afbd6fa efbca612 cb1e96e2 18fd4efb ae23f755 6d152b10 d83bc3b5
b036cd8f 8b4cec44 e6ce9453 258738e2 9b3cdfd4 5a39ddd8 affe6ba3 8da5d3b6
ccdd43dc a9ec2bbb d4987336 7674aa10 fee99c85 269e90e3 c029402c 3ae24125
8477c629 a72c55a4 46ef60d2 33b6ac3c a3aad17b 3b7d1c3c 49e36d67 1bc60ebb
f5b01470 f5070721 a65c9e12 e94af830 809bf52a 136a5343 fff36209 e5d31a51
9b95624b 80cc0ea9 dd3080e7 5a392cb2 aa36db5e 77f175ed a178caf1 ec4590cc
db7c3f58 b803d48e e613d980 9cb88c58 7133376c 6e4ecc0f 7337cebd 340d6554
199ee747 a6e6d2cb 9806370e c83bd444 0bcab271 46e30dcf 751c1a9d 12e8658c
8a1d69cd 6d11e047 dc663ea0 1987ef9e d627a8c6 c0377a00 d24f8816 c1ab1b65
b2ab6045 257fa3b7 17b7de46 46faebde 8ca9683c 3de56d2e cdfdd695 f9e99b76
4c4614c7 b54be2db e062baed 120c5195 23a205ad d3c611b0 3c5b798e 86b4e55c
6ace8293 9cdd9191 cbcd30b7 de42eb8d b4a63b09 259bb031 d4419762 0c3b6e1b
8e87c9d9 34470e41 1523ea2f c584f22c 6f3a7233 f02d098c 3b085004 02a9ec65
30655064 2b1af749 3353421b b0a6a6a1 c983cd3d 28ab4a35 b514870f 77d53028
7dbefb5f f2e58993 492570f6 d1db4adb 98a74ceb d067a688 b9044bd4 a740f023
3765097b c989a80b 5cd46bf4 5e50a9d7 762e5d4c c6aa18c2 2dfba2a1 1cbd9c7d
a87a4a92 bd35fa41 269e3637 f1e59b5d 7301a431 542abf47 68ff4dad 41844e3d
88ee8e8d 3a798317 3b945f00 c0d1e263 a17b0f5e 08bb9fbb 185f5066 96b366e4
db413403 d56a5c3e 17be74d2 ce5e40c3 4dda73be 7faeb0ce d87c9790 7dc923a3
cc56c049 b424585a 81fcf270 e1c15eb7 bcc0a552 9eb5451d ef1d9382 75a9bbaf
67d6577a f0f8ecdd 53f24388 55eef501 039264db e904738b 7831d788 b010dff4
bc0617aa bf6809e5 27cc4cd0 a6e45a8c 389cce37 5a0cdba6 fa1acfca ea608309
9a928947 f0ef618b 72fbb4af 0fb656ec 22587b6d bf8116eb 088fcc9b 333de3dc
c78e2433 2fac2c0b 0f0c787b 077fe7e4 9b8b43a7 4eb119d3 f2cac153 1d71764c
c9b1169f 79d6618b 450a6786 ea3a5c45 3d93a06c 748779bc db8c9c7b f9eb3b42
a8cf788b afea001c 89f1d7af 12af5986 27ddcc7d 172648b8 c56e663c 4b469381
dbda7988 2b9b2b27 be9cb564 9d3c24ac 463b5fee 32fadd2d 2a21ed7e 4ea5baad
6938ef3b 9db345e1 811848b6 99856c9e 1915566e 864ed958 706a4365 8af11aac
8a85c6d4 4b092832 1c4b2388 a5e662fc 1416c851 6d914307 862e3c91 78141128
90321fc8 e7a2f98e 0d246d31 66777a7a afa92f02 dfa9f049 1d477edd 3b9e8420
abace2e5 367e46b7 9353c5bc 5f56b759 77c4f545 b7025358 8a72d6cc e33ad16f
9fd9dad4 c3714e3a 21071dee a80fffc1 420068e8 1ad7f0a4 27e95dc4 9277a3f4
dde35f6e 489fa775 5a63567d 10f1b1dc 5b741c17 b2f5c9d8 461ddf5a ccd5a5b2
d43ef89d 88964353 7b7fdf4f 8b3ff4c5 33e9e677 44b5749c 583aae4b 70f637c9
97e02208 f586dde6 6be460e8 919adb05 a56f5ea8 7650114f 438bd2b8 ec96d02f
716f75fd ea15a29e 4b60d6ed 63dda113 efd688f7 ac13672a 53534663 3435f4b5
cf60246a d2a60f5f afee902b 085354b9 4f037f27 fdfffec8 fb93974b 0a21bb7c
ca5574b2 85b5cc85 4c2341d1 991283f7 66af0521 af9f9945 95ef55d8 1b46152f
f440c145 9d39cc8f b5384b43 fb2634bb ed58642c 30ac70db 93224294 a288641a
d44d4305 409692a3 08505b96 0f7520e7 379e03e1 b7782f25 f6000fcf 603a2045
242761c6 0f2f65ce 9f579cf1 d5eb2289 0d2f9b2d 99d90694 4cec1b78 f2ccedfe
65701f3c 5e79ce37 8dd50733 fe261746 9b275d5f 6e7abad3 81030728 9cb2d1df
f464a4c9 eb13cc53 323012f8 d23e02de bb57c3b3
"""


def _pt4_family():
    """Three seeded pairs of sub-semigroups of pt_4, closed under product
    and star with at most 40 elements: the projections of pt_4 and one
    element, and the same with a second element, so the first lies inside
    the second, and both have pt_4's projection lattice."""
    P, rng, pairs = gen_pt(4), random.Random(29), []
    while len(pairs) < 3:
        gens = [*P.projections(), *rng.sample(range(P.n), 2)]
        small, big = subsemigroup(P, gens[:-1], 40), subsemigroup(P, gens, 40)
        if small is not None and big is not None and small.n < big.n:
            pairs.append((small, big))
    return pairs


def _write_files(root):
    """Write the input files into root; return the semigroups by file
    name, the relabelling of pt_2, the names of the bad files and the
    pairs of the pt_4 family by file name."""
    semigroups = zoo_semigroups()
    semigroups["i_1"] = gen_i(1)
    rng = random.Random(26)
    relabelling = list(range(semigroups["pt_2"].n))
    rng.shuffle(relabelling)
    semigroups["pt_2_relabelled"] = shuffle_algebra(semigroups["pt_2"],
                                                    relabelling)
    for name, obj in [*semigroups.items(), *zoo_categories().items()]:
        save_instance(obj, root / f"{name}.json")
    I, P = semigroups["i_2"], semigroups["pt_2"]
    incl = tuple(P.names.index(nm) for nm in I.names)
    save_instance(MorphismFile(SemigroupMorphism(I, P, incl),
                               "i_2.json", "pt_2.json"), root / "incl.json")
    eps = counit_epsilon(zoo_categories()["k_2"])
    save_instance(eps.source, root / "eps_src.json")
    save_instance(CofunctorFile(eps, "eps_src.json", "k_2.json"),
                  root / "eps.json")
    # the bad inputs of test_cli: schema problems, undecodable and deeply
    # nested text, failed laws, out-of-range indices and a damaged cofunctor
    bad = {"no_tables": '{"kind": "semigroup"}', "not_json": "not json",
           "bad_kind": '{"kind": "nope"}', "nested": "[" * 100000}
    nonassoc = {"kind": "semigroup", "elements": ["a", "b"],
                "mult": [[0, 1], [0, 0]], "star": [0, 1]}
    bad["nonassoc"] = json.dumps(nonassoc)
    bad["bad_zero"] = json.dumps({**nonassoc, "zero": 5})
    bad["range"] = json.dumps({"kind": "semigroup", "elements": ["a"],
                               "mult": [[3]], "star": [0]})
    bad["chain"] = json.dumps({"kind": "semigroup",
                               "elements": ["c0", "c1", "c2"],
                               "mult": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                               "star": [0, 1, 2]})
    bad["one"] = json.dumps({"kind": "semigroup", "elements": ["0"],
                             "mult": [[0]], "star": [0], "plus": [0],
                             "zero": 0})
    bad["empty"] = json.dumps({"kind": "semigroup", "elements": [],
                               "mult": [], "star": []})
    bad["self_morphism"] = json.dumps(
        {"kind": "morphism", "source": "self_morphism.json",
         "target": "self_morphism.json", "map": [0]})
    for a, b in (("cof_a", "cof_b"), ("cof_b", "cof_a")):
        bad[a] = json.dumps({"kind": "cofunctor", "source": f"{b}.json",
                             "target": f"{b}.json", "anchor": [], "mu": [],
                             "rho1": []})
    K2 = zoo_categories()["k_2"]
    F = identity_cofunctor(K2)
    payload = instance_to_dict(CofunctorFile(F, "k_2.json", "k_2.json"))
    s, x = next(F.pairs())
    payload["rho1"][s][x] = next(t for t in K2.d_fiber(x) if t != s)
    bad["rho_r"] = json.dumps(payload)
    payload["mu"][K2.n_arr - 1][K2.d[K2.n_arr - 1]] = K2.n_obj
    bad["mu_range"] = json.dumps(payload)
    for name, text in bad.items():
        (root / f"{name}.json").write_text(text)
    (root / "undecodable.json").write_bytes(
        b'{"kind": "semigroup", "elements": ["\xff"]}')
    family = {}
    for k, (small, big) in enumerate(_pt4_family()):
        family[f"pt4_{k}a", f"pt4_{k}b"] = small, big
        save_instance(small, root / f"pt4_{k}a.json")
        save_instance(big, root / f"pt4_{k}b.json")
    return semigroups, relabelling, [*bad, "undecodable"], family


def _commands(semigroups, relabelling, bad, family):
    rng = random.Random(7)
    files = [*semigroups, *zoo_categories(), "incl", "eps", *bad]
    commands = [[verb, f"{name}.json"]
                for name in files
                for verb in ("check", "classify", "roundtrip", "adjunction")]
    # maps: identities, the inclusions by name, the constant map to the
    # zero, the relabelling and a corruption of it, and seeded maps
    maps = []
    for a, S in semigroups.items():
        for b, T in semigroups.items():
            if set(S.names) <= set(T.names):
                maps.append((a, b, [T.names.index(nm) for nm in S.names]))
            if a == b:
                maps.append((a, b, [T.zero] * S.n))
            maps.append((a, b, [rng.randrange(T.n) for _ in range(S.n)]))
    maps.append(("i_1", "i_2", [gen_i(2).zero, gen_i(2).names.index("12")]))
    maps.append(("pt_2", "pt_2_relabelled", relabelling))
    swapped = list(relabelling)
    swapped[1], swapped[5] = swapped[5], swapped[1]
    maps.append(("pt_2", "pt_2_relabelled", swapped))
    maps.append(("pt_2_relabelled", "pt_2",
                 [relabelling.index(i) for i in range(gen_pt(2).n)]))
    for a, b, m in maps:
        for t in "1234":
            commands.append(["morphism", "check", f"{a}.json", f"{b}.json",
                             ",".join(map(str, m)), "--type", t])
    # bad endpoints and bad maps
    for name in ["k_2", "incl", *bad]:
        commands.append(["morphism", "check", f"{name}.json", "pt_2.json",
                         "0", "--type", "1"])
        commands.append(["morphism", "check", "pt_1.json", f"{name}.json",
                         "0,0", "--type", "3"])
    for m in ("0,1,2", "zero,one", "", "0,1,2,3,4,5,6,7,9"):
        commands.append(["morphism", "check", "i_2.json", "pt_2.json", m,
                         "--type", "2"])
    # the files written: germ categories of the semigroups, and slice and
    # bislice semigroups of the categories
    commands += [["germs", f"{name}.json", "-o", "out.json"]
                 for name in semigroups]
    commands += [["slices", f"{name}.json", *flag, "-o", "out.json"]
                 for name in zoo_categories() for flag in ([], ["--bislices"])]
    # the pt_4 family: each member classified, and the inclusion, the
    # identity, the constant map to the zero and a seeded map checked
    for (a, b), (small, big) in family.items():
        commands += [["classify", f"{a}.json"], ["classify", f"{b}.json"]]
        for x, y, m in ((a, b, [big.names.index(nm) for nm in small.names]),
                        (b, b, range(big.n)),
                        (a, b, [big.detected_zero()] * small.n),
                        (a, b, [rng.randrange(big.n) for _ in range(small.n)])):
            for t in "1234":
                commands.append(["morphism", "check", f"{x}.json", f"{y}.json",
                                 ",".join(map(str, m)), "--type", t])
    # a seeded map may repeat another
    return [list(argv) for argv in dict.fromkeys(map(tuple, commands))]


def _transcript(commands):
    """One text per command: its argv, its exit code and its stdout, and
    the SHA-256 of the file it wrote to out.json, if any."""
    out = []
    written = pathlib.Path("out.json")
    for argv in commands:
        written.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        if written.exists():
            digest = hashlib.sha256(written.read_bytes()).hexdigest()
            buf.write(f"wrote sha256={digest}\n")
        out.append(f"$ {' '.join(argv)}\nexit {code}\n{buf.getvalue()}")
    return out


def _pins(root):
    """The transcripts of the commands, run in the directory root, the
    first eight SHA-256 hex digits of each and the SHA-256 of them all."""
    texts = _transcript(_commands(*_write_files(root)))
    digests = [hashlib.sha256(t.encode()).hexdigest()[:8] for t in texts]
    return texts, digests, hashlib.sha256("".join(texts).encode()).hexdigest()


def test_cli_transcripts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts, digests, total = _pins(tmp_path)
    if total != TRANSCRIPT_SHA256:
        pinned = COMMAND_DIGESTS.split()
        k = next((k for k, d in enumerate(digests)
                  if k >= len(pinned) or pinned[k] != d), len(digests))
        moved = texts[k] if k < len(texts) else "(fewer commands)\n"
        raise AssertionError("first command whose output moved:\n" + moved)


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        _, digests, total = _pins(pathlib.Path(root))
        os.chdir(home)
    print(f"TRANSCRIPT_SHA256 = {total!r}")
    print('COMMAND_DIGESTS = """')
    for k in range(0, len(digests), 8):
        print(" ".join(digests[k:k + 8]))
    print('"""')
