"""Pinned tables of the zoo generators and of slice and bislice semigroups.

Each digest is the SHA-256 of repr((names, mult, star, plus, zero)), taken
before the generators and slice_semigroup shared one table builder: any change
to a table, to the element order or to a name fails here.  The test_numpy_
variants check the same digests with every table sent down the numpy path.
FILE_DIGESTS pin whole instance files byte for byte, as written before
dumps_canonical stopped calling the standard library's indenting encoder.
"""

import hashlib

import pytest

from stonedual.category import FinCat, slice_semigroup
from stonedual.io import dumps_canonical, instance_to_dict
from stonedual.zoo import (gen_free_arrow, gen_i, gen_pair_groupoid, gen_pt,
                           gen_triangular)

GENERATORS = {"pt": gen_pt, "i": gen_i, "triangular": gen_triangular}

GENERATOR_DIGESTS = {
    ("pt", 1):
        "bd747a4f30ffc91e835f3f3e2f6a189845b466d996fecf093dcc03366183e2f9",
    ("pt", 2):
        "96ea7da37f041650fb9018fece9122ed382f151a1281defbd2baa0b3ba4db5ec",
    ("pt", 3):
        "f0b09086d62cb223b49cc9bce91b9e05326865ab122e963c51ac9e18824c0c52",
    ("pt", 4):
        "2d8b219a88086c98255de40d4f0600f1b0046763626ca40bef09d4f470d46824",
    ("i", 1):
        "bd747a4f30ffc91e835f3f3e2f6a189845b466d996fecf093dcc03366183e2f9",
    ("i", 2):
        "81d72721500d3cb1c771494d8cbf85aa09611471f82d1da0b587fd3f1e3ad793",
    ("i", 3):
        "daab95a7a90165b89d86937ef14613844f56e280e6d917a23fea6d8a3aa5b92d",
    ("i", 4):
        "1fe56c51f592eeb0a08ae07b688a303d4e0082172ffab17fe37b6f1bd1a40fcd",
    ("triangular", 1):
        "bd747a4f30ffc91e835f3f3e2f6a189845b466d996fecf093dcc03366183e2f9",
    ("triangular", 2):
        "fb3f147ad0f8eaf6fb544026cf4a48d0fd2b299daf254ec8790d63fcade82c20",
    ("triangular", 3):
        "69871b2cfb7bf25288ff4fe627859fda1909b822f64531d810305ff83931ca9e",
    ("triangular", 4):
        "b7ff1404d5ff7695651079e653bcdec3e2895732d99d10e73180bc42a8c5445c",
}

# (category, bislices_only): the pair groupoids K_1..K_4 and the free arrow
SLICE_DIGESTS = {
    ("k_1", False):
        "ef7371a5950949e491309954370fcd10039bf44faeb247d689355a5782864690",
    ("k_1", True):
        "ef7371a5950949e491309954370fcd10039bf44faeb247d689355a5782864690",
    ("k_2", False):
        "b950dc089e2a04236f9a6770b01da3238347c0918f0a2c84748600bfdfe9b943",
    ("k_2", True):
        "7b45039e515835f2421ae1bca42d08a1f87b2ead25f909eae7bd2ac5cc0a6a77",
    ("k_3", False):
        "f582f17c592b3178a32187ffa401565bc566002ff88e6ebeaaf8bf99a95dd2e1",
    ("k_3", True):
        "2c4b389d1e91c1c8fcdceb6cfc1eb6bf129fc0669f84f133f49c4e4b979689f6",
    ("k_4", False):
        "37f2590f46e1c0dc577e8e6450f763beff60ff3e5d9cb57124272a66d0207a2d",
    ("k_4", True):
        "7725d409183d8bfbf3171ac33af06e6c8bf6bd40777955da5a19ca44a1583c98",
    ("free_arrow", False):
        "4eeb37f6723ac7495926306961f233da61d49f1a279c108a75e73dcd0446dc6e",
    ("free_arrow", True):
        "6f6e1227ee8dc64e2e6c699fdededa8e63327e8f8fff25bffa6fb30805490a46",
}

# over the slice and then the bislice digest of each of the 398 corpus
# categories, in corpus order
CORPUS_DIGEST = \
    "49922720789f0128b68d5b8cf1fb6fc3269d71dc2fa0bae4a6aa1918bc6cc387"


# SHA-256 of each instance file, as dumps_canonical wrote it with the
# standard library's pure-Python encoder
FILE_DIGESTS = {
    "pt_4": "3cd3f4939a7bb38546dc735657891161b89830b2752c4503241fd4a518111181",
    "i_4": "f8826f065dbbee604ff44a9ba9950f2c185a2e57c76eadb76d61b265899700ab",
    "k_4": "13e08b001653fec94d2f39245a6e61c0f79daec71d12dd161c610a99e6ac5c2f",
    "free_arrow":
        "693c441bbc8babb0f043246457296f69f6b638590a5c5624317b8f9d938f9bcf",
}
FILE_INSTANCES = {"pt_4": lambda: gen_pt(4), "i_4": lambda: gen_i(4),
                  "k_4": lambda: gen_pair_groupoid(4),
                  "free_arrow": gen_free_arrow}


def digest(S):
    return hashlib.sha256(
        repr((S.names, S.mult, S.star, S.plus, S.zero)).encode()).hexdigest()


@pytest.mark.parametrize("name,n", sorted(GENERATOR_DIGESTS))
def test_generator_tables_pinned(name, n):
    assert digest(GENERATORS[name](n)) == GENERATOR_DIGESTS[name, n]


@pytest.mark.parametrize("name,n", sorted(GENERATOR_DIGESTS))
def test_numpy_generator_tables_pinned(numpy_kernel, name, n):
    test_generator_tables_pinned(name, n)


@pytest.mark.parametrize("cat,bislices", sorted(SLICE_DIGESTS))
def test_slice_tables_pinned(cat, bislices):
    C = gen_free_arrow() if cat == "free_arrow" else \
        gen_pair_groupoid(int(cat[2:]))
    S = slice_semigroup(C, bislices_only=bislices)
    assert digest(S) == SLICE_DIGESTS[cat, bislices]


@pytest.mark.parametrize("cat,bislices", sorted(SLICE_DIGESTS))
def test_numpy_slice_tables_pinned(numpy_kernel, cat, bislices):
    test_slice_tables_pinned(cat, bislices)


def test_corpus_slice_tables_pinned(corpus_cats):
    assert len(corpus_cats) == 398
    h = hashlib.sha256()
    for _, C in corpus_cats:
        # a fresh copy: the session's categories keep their slice semigroups
        C = FinCat(C.objects, C.arrows, C.d, C.r, C.unit, C.comp)
        for bislices in (False, True):
            S = slice_semigroup(C, bislices_only=bislices)
            h.update(digest(S).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_numpy_corpus_slice_tables_pinned(corpus_cats, numpy_kernel):
    test_corpus_slice_tables_pinned(corpus_cats)


@pytest.mark.parametrize("name", sorted(FILE_DIGESTS))
def test_instance_files_pinned(name):
    text = dumps_canonical(instance_to_dict(FILE_INSTANCES[name]()))
    assert hashlib.sha256(text.encode()).hexdigest() == FILE_DIGESTS[name]
