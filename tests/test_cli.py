import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dumps_canonical_reference
from stonedual import cli
from stonedual.algebra import SemigroupMorphism
from stonedual.category import identity_cofunctor, slice_semigroup
from stonedual.cli import run
from stonedual.duality import counit_epsilon, germ_category, iso_categories
from stonedual.io import (CofunctorFile, MorphismFile, dumps_canonical,
                          instance_to_dict, load_instance, save_instance)
from stonedual.zoo import gen_i, gen_pair_groupoid, gen_pt


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, obj in (("pt2", gen_pt(2)), ("i2", gen_i(2)),
                      ("k2", gen_pair_groupoid(2)),
                      ("k3", gen_pair_groupoid(3))):
        path = tmp_path / f"{name}.json"
        save_instance(obj, path)
        out[name] = str(path)
    eps = counit_epsilon(gen_pair_groupoid(2))
    src = tmp_path / "eps_src.json"
    save_instance(eps.source, src)
    cof = tmp_path / "eps.json"
    save_instance(CofunctorFile(eps, "eps_src.json", "k2.json"), cof)
    out["cof"] = str(cof)
    I, P = gen_i(2), gen_pt(2)
    incl = tuple(P.names.index(nm) for nm in I.names)
    morph = tmp_path / "incl.json"
    save_instance(MorphismFile(SemigroupMorphism(I, P, incl),
                               "i2.json", "pt2.json"), morph)
    out["morph"] = str(morph)
    out["dir"] = tmp_path
    return out


# -- io ------------------------------------------------------------------------

def test_serialization_is_byte_exact(files):
    for key in ("pt2", "i2", "k2", "k3", "cof", "morph"):
        path = files[key]
        text = open(path).read()
        payload = instance_to_dict(load_instance(path))
        assert dumps_canonical(payload) == text
        assert dumps_canonical_reference(payload) == text


@pytest.mark.parametrize("name", [*sorted(cli._GENERATORS), "germ"])
def test_saved_files_are_the_canonical_text(tmp_path, name):
    # save_instance writes the layout piece by piece; the bytes are those
    # of the joined text, for every zoo generator (at 3 points) and for a
    # category the library builds, the germ category of Slice(K_2)
    if name == "germ":
        obj = germ_category(slice_semigroup(gen_pair_groupoid(2))).category
    else:
        gen, arity = cli._GENERATORS[name]
        obj = gen(*[3] * arity)
    path = tmp_path / "saved.json"
    save_instance(obj, path)
    assert path.read_bytes() == dumps_canonical(instance_to_dict(obj)).encode()


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
            | st.floats() | st.text())
_JSON_LIKE = st.recursive(
    _SCALARS | st.lists(st.integers()) | st.lists(st.integers() | st.booleans()),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers() | st.floats()
                                     | st.booleans(), inner, max_size=4)
                   | st.dictionaries(st.none(), inner, max_size=1)),
    max_leaves=30)


@settings(deadline=None, max_examples=300, database=None)
@given(_JSON_LIKE)
@example({})
@example([])
@example([[]])
@example([True, 1])
@example([1, 1.0])
@example([-0.0, 1e300, float("nan"), float("-inf")])
@example({"\u00e9\u2603\U0001f600": ['"\\', "\x00\x1f\n", None]})
@example({2: 0, 10: 1})
@example({"kind": "semigroup", "mult": [[0, 1], [1, 1]], "t": ((), ([],))})
def test_canonical_layout_matches_stdlib(payload):
    assert dumps_canonical(payload) == dumps_canonical_reference(payload)


@pytest.mark.parametrize("payload", [{(1, 2): 0}, {"a": {1}}, [object()],
                                     {1: 0, "1": 0}])
def test_canonical_layout_rejects_what_stdlib_rejects(payload):
    with pytest.raises(TypeError):
        dumps_canonical_reference(payload)
    with pytest.raises(TypeError):
        dumps_canonical(payload)


def test_morphism_file_resolves_relative_paths(files):
    mf = load_instance(files["morph"])
    assert isinstance(mf, MorphismFile)
    assert mf.morphism.source.names == gen_i(2).names
    assert mf.morphism.target.names == gen_pt(2).names


def test_loader_rejects_schema_problems(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "semigroup"}')
    assert run(["check", str(bad)]) == 2
    bad.write_text("not json")
    assert run(["check", str(bad)]) == 2
    bad.write_text('{"kind": "nope"}')
    assert run(["check", str(bad)]) == 2
    assert run(["check", str(tmp_path / "absent.json")]) == 2


def test_loader_rejects_undecodable_and_deeply_nested_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "semigroup", "elements": ["\xff"]}')
    assert run(["check", str(bad)]) == 2
    bad.write_text("[" * 100000)
    assert run(["check", str(bad)]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_empty_name_lists_round_trip(tmp_path, capsys):
    # the one-element semigroup's germ category has no objects
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"kind": "semigroup", "elements": ["0"],
                               "mult": [[0]], "star": [0], "plus": [0],
                               "zero": 0}))
    germ = str(tmp_path / "germ.json")
    assert run(["germs", str(one), "-o", germ]) == 0
    assert json.loads(open(germ).read())["objects"] == []
    assert run(["check", germ]) == 0
    assert run(["slices", germ, "-o", str(tmp_path / "s.json")]) == 0
    assert run(["roundtrip", germ]) == 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "semigroup", "elements": [],
                                 "mult": [], "star": []}))
    assert run(["check", str(empty)]) == 0
    capsys.readouterr()
    assert run(["roundtrip", str(empty)]) == 1
    assert "witness=" in capsys.readouterr().out


def test_endpoint_kind_is_checked_before_it_is_loaded(tmp_path, capsys):
    (tmp_path / "m.json").write_text(json.dumps(
        {"kind": "morphism", "source": "m.json", "target": "m.json",
         "map": [0]}))
    for a, b in (("a", "b"), ("b", "a")):
        (tmp_path / f"{a}.json").write_text(json.dumps(
            {"kind": "cofunctor", "source": f"{b}.json",
             "target": f"{b}.json", "anchor": [], "mu": [], "rho1": []}))
    for name, want in (("m", "is a morphism, not a semigroup"),
                       ("a", "is a cofunctor, not a category")):
        start = time.perf_counter()
        assert run(["check", str(tmp_path / f"{name}.json")]) == 2
        assert time.perf_counter() - start < 1
        assert want in capsys.readouterr().err


def test_loader_flags_math_failures_as_exit_1(tmp_path):
    # shape-valid but non-associative
    payload = {"kind": "semigroup", "elements": ["a", "b"],
               "mult": [[0, 1], [0, 0]], "star": [0, 1]}
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(payload))
    assert run(["check", str(path)]) == 1


def test_out_of_range_index_is_schema_error(tmp_path):
    payload = {"kind": "semigroup", "elements": ["a"],
               "mult": [[3]], "star": [0]}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(payload))
    assert run(["check", str(path)]) == 2
    # a malformed file exits 2 even when it also fails a law
    payload = {"kind": "semigroup", "elements": ["a", "b"],
               "mult": [[0, 1], [0, 0]], "star": [0, 1]}
    path.write_text(json.dumps(payload))
    assert run(["check", str(path)]) == 1  # not associative
    path.write_text(json.dumps({**payload, "zero": 5}))
    assert run(["check", str(path)]) == 2
    K2 = gen_pair_groupoid(2)
    save_instance(K2, tmp_path / "k2.json")
    F = identity_cofunctor(K2)
    payload = instance_to_dict(CofunctorFile(F, "k2.json", "k2.json"))
    s, x = next(F.pairs())
    payload["rho1"][s][x] = next(t for t in K2.d_fiber(x) if t != s)
    path.write_text(json.dumps(payload))
    assert run(["check", str(path)]) == 1  # rho-r fails at (s, x)
    last = K2.n_arr - 1
    assert last > s
    payload["mu"][last][K2.d[last]] = K2.n_obj
    path.write_text(json.dumps(payload))
    assert run(["check", str(path)]) == 2


# -- loader fuzz -------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_payloads(tmp_path_factory):
    """One valid payload per file kind, written beside its endpoint files,
    with the table cells a mutation may hit: (path, low, bound)."""
    base = tmp_path_factory.mktemp("fuzz")
    P, I, K2, big = gen_pt(2), gen_i(2), gen_pair_groupoid(2), gen_i(3)
    eps = counit_epsilon(K2)
    for name, obj in (("pt2", P), ("i2", I), ("k2", K2),
                      ("eps_src", eps.source)):
        save_instance(obj, base / f"{name}.json")
    incl = tuple(P.names.index(nm) for nm in I.names)
    morph = MorphismFile(SemigroupMorphism(I, P, incl), "i2.json", "pt2.json")
    cof = CofunctorFile(eps, "eps_src.json", "k2.json")
    n, C = P.n, eps.source
    cells = {
        "semigroup": [(("mult", i, j), 0, n) for i in range(n)
                      for j in range(n)]
        + [((key, i), 0, n) for key in ("star", "plus") for i in range(n)]
        + [(("zero",), 0, n)],
        "category": [(("arrows", a, key), 0, K2.n_obj)
                     for a in range(K2.n_arr) for key in ("dom", "cod")]
        + [(("units", o), 0, K2.n_arr) for o in range(K2.n_obj)]
        + [(("comp", a, b), -1, K2.n_arr) for a in range(K2.n_arr)
           for b in range(K2.n_arr)],
        # 34 elements: above the size cutoff, where a list table is
        # checked by its conversion to an int16 array
        "big-semigroup": [(("mult", i, j), 0, big.n) for i in range(big.n)
                          for j in range(big.n)],
        "morphism": [(("map", i), 0, P.n) for i in range(I.n)],
        "cofunctor": [(("anchor", x), 0, C.n_obj) for x in range(K2.n_obj)]
        + [((key, s, x), -1, bound) for key, bound in
           (("mu", K2.n_obj), ("rho1", K2.n_arr))
           for s in range(C.n_arr) for x in range(K2.n_obj)],
    }
    payloads = {"semigroup": instance_to_dict(P),
                "big-semigroup": instance_to_dict(big),
                "category": instance_to_dict(K2),
                "morphism": instance_to_dict(morph),
                "cofunctor": instance_to_dict(cof)}
    return base, {kind: (payloads[kind], cells[kind]) for kind in payloads}


_CELL_VALUES = st.one_of(st.integers(-3, 12), st.sampled_from([-2, -1]),
                         st.integers(10 ** 6, 10 ** 20), st.booleans(),
                         st.none(), st.text(max_size=2),
                         st.floats(-2, 12, allow_nan=False),
                         st.lists(st.integers(0, 2), max_size=2))


@settings(deadline=None, max_examples=75, database=None)
@given(st.sampled_from(["semigroup", "big-semigroup", "category", "morphism",
                        "cofunctor"]), st.data())
def test_mutated_files_exit_cleanly(fuzz_payloads, kind, data):
    base, kinds = fuzz_payloads
    payload, cells = kinds[kind]
    payload = json.loads(json.dumps(payload))
    picked = data.draw(st.lists(st.sampled_from(cells), min_size=1,
                                max_size=3, unique_by=lambda c: c[0]))
    malformed = False
    for path, low, bound in picked:
        value = data.draw(_CELL_VALUES)
        *outer, last = path
        holder = payload
        for key in outer:
            holder = holder[key]
        holder[last] = value
        if value is None and path == ("zero",):
            continue  # a null zero means no zero
        malformed |= type(value) is not int or not low <= value < bound
    target = base / f"mutated_{kind}.json"
    target.write_text(json.dumps(payload))
    code = run(["check", str(target)])
    assert code == 2 if malformed else code in (0, 1, 2)


_NEST = "[" * 5000 + "]" * 5000
# JSON texts a key's value may be retyped to
_RETYPED = ["null", '"x"', "1.5", "1e999", "true", "[]", "{}", '[["a"]]',
            _NEST]
_COMMANDS = ["check", "classify", "roundtrip", "adjunction", "translate",
             "germs", "slices"]


@st.composite
def _damaged(draw, payload):
    """The bytes of payload, damaged in one way."""
    raw = json.dumps(payload).encode()
    how = draw(st.sampled_from(["truncate", "flip", "insert", "key", "kind",
                                "not-object"]))
    if how in ("truncate", "flip", "insert"):
        i = draw(st.integers(0, len(raw) - 1))
        if how == "truncate":
            return raw[:i]
        if how == "flip":
            return raw[:i] + bytes([raw[i] ^ (1 << draw(st.integers(0, 7)))]) \
                + raw[i + 1:]
        return raw[:i] + draw(st.sampled_from(
            [b"[", b"]", b"{", b"}", b"1e999", b"\xff"])) + raw[i:]
    if how == "key":
        key = draw(st.sampled_from(sorted(payload)))
        value = draw(st.sampled_from([None, *_RETYPED]))
        if value is None:  # delete the key
            return json.dumps({k: v for k, v in payload.items()
                               if k != key}).encode()
        return json.dumps({**payload, key: "@"}).replace('"@"', value).encode()
    if how == "kind":
        kind = draw(st.sampled_from(["semigroup", "category", "morphism",
                                     "cofunctor", "nope", ""]))
        return json.dumps({**payload, "kind": kind}).encode()
    return draw(st.sampled_from(["[]", "3", '"semigroup"', "null", _NEST,
                                 "[" + json.dumps(payload) + "]"])).encode()


@settings(deadline=None, max_examples=60, database=None)
@given(st.sampled_from(["semigroup", "category", "morphism", "cofunctor"]),
       st.sampled_from(_COMMANDS), st.data())
def test_damaged_files_exit_cleanly(fuzz_payloads, kind, command, data):
    # byte-level damage, where the cell mutations above keep the JSON
    # shape: any exception other than the two error kinds escapes run()
    base, kinds = fuzz_payloads
    target = base / f"damaged_{kind}.json"
    target.write_bytes(data.draw(_damaged(kinds[kind][0])))
    out = ["-o", str(base / "out.json")] if command in ("germs", "slices") \
        else []
    assert run([command, str(target), *out]) in (0, 1, 2)


# -- commands --------------------------------------------------------------------

def test_check_and_classify(files, capsys):
    assert run(["check", files["pt2"]]) == 0
    assert run(["classify", files["pt2"]]) == 0
    out = capsys.readouterr().out
    assert "range=true" in out
    assert "corestriction=false" in out


def test_classify_needs_a_semigroup(files):
    assert run(["classify", files["k2"]]) == 2


def test_germs_command(files, tmp_path, capsys):
    out = tmp_path / "germ.json"
    assert run(["germs", files["pt2"], "-o", str(out)]) == 0
    G = load_instance(str(out))
    assert iso_categories(G, gen_pair_groupoid(2)) is not None


def test_germs_rejects_non_preboolean(tmp_path):
    payload = {"kind": "semigroup", "elements": ["c0", "c1", "c2"],
               "mult": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
               "star": [0, 1, 2]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    assert run(["germs", str(path), "-o", str(tmp_path / "g.json")]) == 1


def test_slices_command(files, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["slices", files["k2"], "-o", str(out)]) == 0
    assert load_instance(str(out)).n == 9
    assert run(["slices", files["k2"], "--bislices", "-o", str(out)]) == 0
    assert load_instance(str(out)).n == 7


def test_parser_is_built_once_and_left_as_it_was(files, tmp_path, capsys):
    # one argparse tree serves every run of a process: neither a parse
    # with an option nor a usage error carries over to the next command
    assert cli._build_parser() is cli._build_parser()
    out = str(tmp_path / "s.json")
    assert run(["slices", files["k2"], "--bislices", "-o", out]) == 0
    with pytest.raises(SystemExit):
        run(["slices", files["k2"]])
    assert run(["slices", files["k2"], "-o", out]) == 0
    assert load_instance(out).n == 9
    assert "PASS slice-semigroup" in capsys.readouterr().out


def test_slices_size_guard(files, tmp_path, capsys):
    # K_5 has 6^5 = 7776 slices, over the size bound
    k5 = str(tmp_path / "k5.json")
    save_instance(gen_pair_groupoid(5), k5)
    out = str(tmp_path / "s.json")
    for argv in (["slices", k5, "-o", out], ["roundtrip", k5],
                 ["adjunction", k5]):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1
        assert "7776 exceeds bound 1000" in capsys.readouterr().err
    assert run(["slices", files["k3"], "-o", out]) == 0


def test_slices_invariant_failure_exits_1(files, tmp_path, capsys,
                                          fail_slice_flag):
    fail_slice_flag("etale_range")
    assert run(["slices", files["k2"], "-o", str(tmp_path / "s.json")]) == 1
    line = capsys.readouterr().out.strip()
    assert line.startswith("FAIL InvariantViolation")
    assert line.endswith("witness=(etale_range,(planted))")


def test_roundtrip_semigroup(files, capsys):
    assert run(["roundtrip", files["i2"]]) == 0
    out = capsys.readouterr().out
    assert "PASS unit-injective" in out
    assert "INFO unit-iso=False" in out
    assert "PASS bd/corestricted-unit-preserves-all-tables" in out


def test_roundtrip_category(files, capsys):
    assert run(["roundtrip", files["k2"]]) == 0
    out = capsys.readouterr().out
    assert "PASS counit-bijective-on-arrows" in out
    assert "PASS germ-of-slices-iso-to-original" in out


def test_adjunction_single_and_corpus(files, tmp_path, capsys):
    assert run(["adjunction", files["pt2"]]) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for key in ("pt2", "i2", "k2"):
        (corpus / f"{key}.json").write_text(open(files[key]).read())
    assert run(["adjunction", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "PASS i2.json" in out and "PASS pt2.json" in out
    (corpus / "zz.json").write_text("{broken")
    assert run(["adjunction", "--corpus", str(corpus)]) == 2


def test_adjunction_corpus_goes_on_past_an_unreadable_file(files, tmp_path,
                                                           capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.json").write_text(open(files["pt2"]).read())
    (corpus / "b.json").write_text("{broken")
    (corpus / "c.json").write_text(open(files["k2"]).read())
    assert run(["adjunction", "--corpus", str(corpus)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0] == "PASS a.json" and lines[2] == "PASS c.json"
    assert lines[1].startswith("ERROR b.json ")
    # with every file readable, a failed check gives 1
    chain = {"kind": "semigroup", "elements": ["c0", "c1", "c2"],
             "mult": [[0, 0, 0], [0, 1, 1], [0, 1, 2]], "star": [0, 1, 2]}
    (corpus / "b.json").write_text(json.dumps(chain))
    assert run(["adjunction", "--corpus", str(corpus)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL b.json ") and lines[2] == "PASS c.json"


def test_adjunction_corpus_needs_a_listable_directory_of_files(tmp_path,
                                                                capsys):
    missing, empty = tmp_path / "missing", tmp_path / "empty"
    empty.mkdir()
    assert run(["adjunction", "--corpus", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot list {missing}: No such file or directory\n")
    assert run(["adjunction", "--corpus", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: no .json files in {empty}\n"


def test_adjunction_corpus_reports_a_failed_check(files, tmp_path,
                                                  monkeypatch, capsys):
    # the triangle check of pt_2 is planted to fail with witness
    # ("planted",); the report's first failure is its witness
    real = cli.verify_adjunction

    def planted(obj):
        rep = real(obj)
        rep.check("planted", False, ("planted",))
        return rep
    monkeypatch.setattr(cli, "verify_adjunction", planted)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "pt2.json").write_text(open(files["pt2"]).read())
    assert run(["adjunction", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().out == (
        "FAIL pt2.json witness=(planted,(planted))\n")


def test_adjunction_requires_input(files):
    with pytest.raises(SystemExit):
        run(["adjunction"])


def test_adjunction_rejects_file_with_corpus(files, capsys):
    corpus = files["dir"] / "corpus"
    corpus.mkdir()
    (corpus / "pt2.json").write_text(open(files["pt2"]).read())
    with pytest.raises(SystemExit) as exc:
        run(["adjunction", files["k2"], "--corpus", str(corpus)])
    assert exc.value.code == 2
    assert "exactly one of FILE and --corpus DIR" in capsys.readouterr().err


def test_unwritable_output_is_an_input_error(files, capsys):
    missing = files["dir"] / "missing"
    cases = [["zoo", "pt", "2", "-o", str(missing / "x.json")],
             ["zoo", "pt", "2", "-o", str(files["dir"])],
             ["germs", files["pt2"], "-o", str(missing / "g.json")]]
    for argv in cases:
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert not missing.exists()


def test_morphism_check_command(files, capsys):
    incl = ",".join(str(gen_pt(2).names.index(nm)) for nm in gen_i(2).names)
    for t in ("1", "2", "3", "4"):
        assert run(["morphism", "check", files["i2"], files["pt2"],
                    incl, "--type", t]) == 0
    assert run(["morphism", "check", files["pt2"], files["pt2"],
                ",".join("0" * 9), "--type", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL type-1-morphism witness=" in out
    assert run(["morphism", "check", files["i2"], files["pt2"],
                "0,1,2", "--type", "1"]) == 2
    assert run(["morphism", "check", files["i2"], files["pt2"],
                "zero,one", "--type", "1"]) == 2


def test_translate_command(files, capsys):
    assert run(["translate", files["cof"]]) == 0
    out = capsys.readouterr().out
    assert "f0=" in out and "f1=" in out
    assert "PASS covering-round-trip-exact" in out


def test_translate_names_the_first_difference(files, capsys, monkeypatch):
    # a cofunctor between other categories than the file's comes back
    monkeypatch.setattr(cli, "covering_to_cofunctor", lambda g:
                        identity_cofunctor(gen_pair_groupoid(1)))
    assert run(["translate", files["cof"]]) == 1
    out = capsys.readouterr().out
    assert "FAIL covering-round-trip-exact witness=(categories)" in out


def test_zoo_command(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["zoo", "pt", "2", "-o", str(out)]) == 0
    assert load_instance(str(out)).n == 9
    assert run(["zoo", "free-arrow", "-o", str(out)]) == 0
    assert load_instance(str(out)).n_arr == 3
    assert run(["zoo", "pt", "-o", str(out)]) == 2
    assert run(["zoo", "nonesuch", "1", "-o", str(out)]) == 2
    assert run(["zoo", "pt", "9", "-o", str(out)]) == 2
    capsys.readouterr()
    # (n+1)^n would be too long to print; the guard never forms it
    assert run(["zoo", "pt", "2000", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: size ")


def test_every_zoo_output_passes_check(tmp_path):
    cases = [["pt", "1"], ["pt", "2"], ["i", "2"], ["triangular", "2"],
             ["triangular", "3"], ["pair-groupoid", "1"],
             ["pair-groupoid", "2"], ["pair-groupoid", "3"], ["free-arrow"]]
    for i, args in enumerate(cases):
        out = tmp_path / f"z{i}.json"
        assert run(["zoo", *args, "-o", str(out)]) == 0
        assert run(["check", str(out)]) == 0


def test_removed_search_command_is_a_usage_error(capsys):
    # the cosupport question is answered by the exhaustive pins of test_zoo
    with pytest.raises(SystemExit) as exc:
        run(["search-no-cosupport"])
    assert exc.value.code == 2
    assert "invalid choice: 'search-no-cosupport'" in capsys.readouterr().err


def test_console_script(files):
    proc = subprocess.run([sys.executable, "-m", "stonedual.cli",
                           "check", files["pt2"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS semigroup-axioms" in proc.stdout
