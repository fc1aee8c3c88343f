"""Checks on the library's source text."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import stonedual
from stonedual.algebra import BiUnaryAlgebra, _memo
from stonedual.category import FinCat


def test_library_has_no_assert_statements():
    # python -O drops asserts, and a failing one escapes the CLI as a
    # traceback: library checks raise InvariantViolation instead
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_imported_name_is_used():
    # an import that a deletion left behind: every name a module imports
    # is read there, apart from the package's re-exports in __init__ and
    # the two that duality keeps under their stonedual.duality names
    re_exports = {"duality": {"category_signature", "iso_categories"}}
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno}:{name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  for name in [alias.asname or alias.name.split(".")[0]]
                  if name not in read
                  and name not in re_exports.get(path.stem, ())]
    assert found == []


def test_library_reads_flags_one_at_a_time():
    # .flags evaluates every rule of a classification; library code reads
    # the flags it needs as attributes (cls.range) or through witness, so
    # that the checks of the other flags never run
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "flags"]
    assert found == []


def test_importing_the_package_leaves_numpy_unloaded():
    # importing the package does not load numpy: every numpy import sits
    # inside the function that needs it.  Nor does a small table: the
    # natural order is a Python loop at every size, and every other scan
    # takes its Python form up to the size cutoff, so classifying pt_2 with
    # every flag forced, its unit and its adjunction check stay numpy-free.
    # A fresh interpreter shows whether an import leaked
    code = ("import sys, stonedual as sd; S = sd.gen_pt(2); "
            "sd.classify(S).flags; sd.unit_eta(S); "
            "assert sd.verify_adjunction(S).passed; "
            "print('numpy' in sys.modules)")
    src = str(Path(stonedual.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# every function with a Python and a numpy form, as README "Design" lists
# them; a twin is declared here and kept while forcing either of its sides
# slows a benchmark workload beyond its spread, which README's cost table
# records, one row per site
TWIN_SITES = {
    "algebra._check_assoc", "algebra._star_axiom_witness",
    "algebra._plus_axiom_witness", "algebra._restriction_witness",
    "algebra._br1_witness", "algebra._br3_witness", "algebra._unpreserved",
    "algebra._refine", "category._slice_algebra"}


def test_twin_sites_are_the_declared_ones():
    # a function is a twin site when it, or a function nested in it, reads
    # the size cutoff
    found = set()
    for path in Path(stonedual.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef)]
            else:
                defs = [(node.name, node)] if isinstance(
                    node, ast.FunctionDef) else []
            found |= {f"{path.stem}.{name}" for name, f in defs
                      if any(getattr(x, "id", getattr(x, "attr", None))
                             == "_NUMPY_THRESHOLD" for x in ast.walk(f))}
    assert found == TWIN_SITES
    design = (Path(__file__).parents[1] / "README.md").read_text()
    design = design[design.index("## Design"):]
    assert all(f"`{site.split('.', 1)[1]}`" in design
               or f"`{site}`" in design for site in TWIN_SITES)
    # the cost table of "One size cutoff": one row per site, named by the
    # site's last part in its first cell
    cutoff = design[design.index("**One size cutoff.**"):]
    cutoff = cutoff[:cutoff.index("\n- **")]
    rows = re.findall(r"^ *\| `(\w+)` \|", cutoff, re.MULTILINE)
    assert sorted(rows) == sorted(site.rsplit(".", 1)[1]
                                  for site in TWIN_SITES)


# every numpy kernel that scans a whole table a block of rows at a time,
# so that apart from the tables an algebra keeps and the refinement's
# signature matrix no temporary exceeds _CHUNK_CELLS cells, as README
# "Bounded temporaries" lists them
BLOCKED_KERNELS = {
    "algebra._least_array", "algebra._assoc_numpy", "algebra._generators",
    "algebra._check_assoc", "algebra._star_axiom_witness",
    "algebra._plus_axiom_witness", "algebra._restriction_witness",
    "algebra._br1_witness", "algebra._br3_scan", "algebra._unpreserved",
    "algebra._refine_array", "category._slice_tables"}


def test_blocked_kernels_are_the_declared_ones():
    # a kernel is blocked when it takes its row ranges from _blocks, or
    # has _first_failure walk them (which _first_failure itself does)
    found = set()
    for path in Path(stonedual.__file__).parent.glob("*.py"):
        found |= {f"{path.stem}.{node.name}"
                  for node in ast.parse(path.read_text(), str(path)).body
                  if isinstance(node, ast.FunctionDef)
                  and any(isinstance(x, ast.Call) and getattr(
                      x.func, "id", getattr(x.func, "attr", None))
                      in ("_blocks", "_first_failure")
                      for x in ast.walk(node))}
    assert found - {"algebra._first_failure"} == BLOCKED_KERNELS
    design = (Path(__file__).parents[1] / "README.md").read_text()
    blocked = design[design.index("**Bounded temporaries.**"):]
    blocked = blocked[:blocked.index("\n- **")]
    assert all(f"`{kernel.split('.', 1)[1]}`" in blocked
               for kernel in BLOCKED_KERNELS)


def test_only_blocks_reads_the_chunk_size():
    # one block rule: apart from its definition, only _blocks names
    # _CHUNK_CELLS, so every blocked kernel splits its rows the same way
    found = []
    for path in Path(stonedual.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if path.stem == "algebra" and (
                    getattr(node, "name", None) == "_blocks" or
                    isinstance(node, ast.Assign) and ast.unparse(
                        node.targets[0]) == "_CHUNK_CELLS"):
                continue
            found += [f"{path.name}:{x.lineno}" for x in ast.walk(node)
                      if getattr(x, "id", getattr(x, "attr", None))
                      == "_CHUNK_CELLS"]
    assert found == []


def test_library_has_no_open_mesh_gathers():
    # a[np.ix_(r, c)] gathers every cell through broadcast index arrays; a
    # row gather then a column gather, a[r][:, c], took 0.35 against 2.5 ms
    # on pt_4's 625 x 625 table, and 1.5 against 3.7 ms for the whole
    # isomorphism check of a pt_4 map
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{i}" for path in paths
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "np.ix_" in line]
    assert found == []


# the memos read through tables_of (see algebra._memo), which depend on the
# tables alone, and those kept per object, whose values carry names: the
# projection GBA's universe and the probe algebra of the cosupport
TABLE_MEMOS = {
    BiUnaryAlgebra: {"_detected_zero", "_order_masks", "_up_rank",
                     "_down_rank", "_holders", "joins", "_mult_array",
                     "_join_arrays", "_deterministic_sets", "classification",
                     "iso_structure", "iso_codes"},
    FinCat: {"_d_fibers", "iso_structure", "_iso_binary", "iso_codes"}}
PER_OBJECT_MEMOS = {BiUnaryAlgebra: {"_projection_gba", "_cosupport"},
                    FinCat: set()}


def test_only_table_memos_follow_tables_of():
    # an object sharing another's tables reads that object's table memos,
    # so a memo added later is declared here one way or the other
    for cls in TABLE_MEMOS:
        memos = {name: m for name, m in vars(cls).items()
                 if isinstance(m, _memo)}
        assert {n for n, m in memos.items() if m.tables} == TABLE_MEMOS[cls]
        assert {n for n, m in memos.items()
                if not m.tables} == PER_OBJECT_MEMOS[cls]
    # and no table memo reads a name or a link to another object
    links = {"names", "name", "objects", "arrows", "slice_parent",
             "slice_sets", "germ", "germ_of", "eta"}
    bodies, found = set(), []
    for path in Path(stonedual.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "_table_memo"
                    for d in node.decorator_list):
                bodies.add(node.name)
                found += [f"{path.name}:{x.lineno}" for x in ast.walk(node)
                          if isinstance(x, ast.Attribute) and x.attr in links]
    assert bodies == set().union(*TABLE_MEMOS.values())
    assert found == []


# the attributes that library code sets on an object other than self, by
# function: the links between objects, and the table and generators that
# make_algebra hands its algebra; every other derived value is a _memo,
# kept on its object or shared through tables_of
DECLARED_LINKS = {
    "slice_semigroup": {"slice_sets", "slice_parent", "slice_sg",
                        "bislice_sg"},
    "_slice_algebra": {"tables_of"},
    "germ_category": {"germ_of", "tables_of", "germ"},
    "unit_eta": {"eta"},
    "make_algebra": {"_mult_array", "_generating_set"}}


def _set_attributes(target):
    """The attributes an assignment target sets, through tuples and stars."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for t in target.elts for a in _set_attributes(t)]
    if isinstance(target, ast.Starred):
        return _set_attributes(target.value)
    return [target] if isinstance(target, ast.Attribute) else []


def test_derived_state_is_set_only_through_memos_and_declared_links():
    # and a failed derivation is raised, never kept as a value to be
    # tested with isinstance
    links, tested = {}, []
    for path in Path(stonedual.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            for f in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(f, ast.FunctionDef):
                    links.setdefault(f.name, set()).update(
                        a.attr for x in ast.walk(f)
                        for t in getattr(x, "targets",
                                         [getattr(x, "target", None)])
                        for a in _set_attributes(t)
                        if getattr(a.value, "id", None) != "self")
        tested += [f"{path.name}:{x.lineno}" for x in ast.walk(tree)
                   if isinstance(x, ast.Call)
                   and getattr(x.func, "id", None) == "isinstance"
                   and "MathFail" in ast.unparse(x.args[1])]
    links = {f: a for f, a in links.items() if a}
    assert (links, tested) == (DECLARED_LINKS, [])


def _names(tree):
    """Every name that tree reads, imports or reads as an attribute."""
    return {getattr(x, "id", None) or getattr(x, "attr", None)
            or getattr(x, "name", None) for x in ast.walk(tree)
            if isinstance(x, (ast.Name, ast.Attribute, ast.alias))}


def test_every_oracle_is_used():
    # a reference that no test reads checks nothing: every top-level
    # function and class of tests/oracles.py is named in another test
    # file, or in an oracle that is, as a helper of it
    tests = Path(__file__).parent
    defs = {node.name: node
            for node in ast.parse((tests / "oracles.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo = set().union(*(_names(ast.parse(path.read_text()))
                         for path in tests.glob("*.py")
                         if path.name != "oracles.py")) & defs.keys()
    used = set()
    while todo:
        name = todo.pop()
        used.add(name)
        todo |= (_names(defs[name]) & defs.keys()) - used
    assert sorted(defs.keys() - used) == []
