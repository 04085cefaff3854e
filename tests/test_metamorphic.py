"""Relations between the outputs of two inputs, checked through the whole
pipeline (spec parse, KL basis, cells, cell characters, JSON) with no
oracle.

* Scaling: the weights cL give the cells and cell characters of L, and
  the `klbasis` entries of L with every exponent times c.
* Relabelling: permuting the generators, the rows and columns of the
  Coxeter matrix with their weights, gives the same group with its
  elements renamed (an element is the product of the letters of its
  word, each letter renamed).  Under that renaming the cells are the
  same sets, the cell characters the same up to the induced bijections
  of the classes and of the irreducible rows, and every `klbasis`
  coefficient the same.
* Lex to rational: B3 with lex weights (e_2, e_2, e_1) lies in the
  asymptotic chamber of (1, 1, N) for N > 2, so e_1 -> N, e_2 -> 1 maps
  its `klbasis` entries to those of (1, 1, N) and its cells are theirs;
  likewise (e_1, e_1, e_2) and (N, N, 1) (Bonnafe and Iancu, "Left cells
  in type B_n with unequal parameters", Represent. Theory 7 (2003)).

Only the `group` and `key` fields name the weights, so every other field
must agree.
"""

import json

import pytest

from api_helpers import laurent_from_terms, laurent_terms
from klcells.cli import main
from klcells.coxeter import build_group
from klcells.ordered_coeffs import LaurentElt, OrderedExponent
from klcells.specfile import parse_spec

F4_MATRIX = "group matrix\n4\n3 2 2\n4 2\n3\n"


def weighted(head, weights, lex=False):
    """The spec `head` with the weights, in generator order s, t, u, v."""
    style = "L lex" if lex else "L"
    return head + "".join(f"{style} {g} = {x}\n" for g, x in zip("stuv", weights))


def run(capsys, tmp_path, command, spec, options=("--no-cache",)):
    path = tmp_path / "in.spec"
    path.write_text(spec, encoding="utf-8")
    code = main([command, str(path), *options])
    out = capsys.readouterr()
    assert (code, out.err) == (0, ""), out.err
    return json.loads(out.out)


CELL_PAIRS = {
    "B3 (1,1,3/2) ~ (2,2,3)": (weighted("group B 3\n", ["1", "1", "3/2"]),
                               weighted("group B 3\n", ["2", "2", "3"])),
    "B4 (1,1,1,2) ~ (3,3,3,6)": (weighted("group B 4\n", ["1", "1", "1", "2"]),
                                 weighted("group B 4\n", ["3", "3", "3", "6"])),
    "F4 (1,1,2,2) ~ (1/2,1/2,1,1)": (weighted(F4_MATRIX, ["1", "1", "2", "2"]),
                                     weighted(F4_MATRIX, ["1/2", "1/2", "1", "1"])),
    "B3 lex (e2,e2,e1) ~ (1,1,5)": (weighted("group B 3\n", ["e_2", "e_2", "e_1"], lex=True),
                                    weighted("group B 3\n", ["1", "1", "5"])),
    "B3 lex (e1,e1,e2) ~ (5,5,1)": (weighted("group B 3\n", ["e_1", "e_1", "e_2"], lex=True),
                                    weighted("group B 3\n", ["5", "5", "1"])),
}


@pytest.mark.parametrize("pair", CELL_PAIRS.values(), ids=CELL_PAIRS)
def test_cells_agree_apart_from_the_weights(pair, tmp_path, capsys):
    a, b = (run(capsys, tmp_path, "cells", spec) for spec in pair)
    assert a["group"]["weights"] != b["group"]["weights"]
    for doc in (a, b):
        del doc["group"], doc["key"]
    assert a == b


def entries(doc):
    """{(section, w, y): coefficient text} over `c_basis` and `cs_products`."""
    return {(section, w, y): text for section in ("c_basis", "cs_products")
            for w, row in doc[section].items() for y, text in row.items()}


def assert_entries_map(source, target, phi, count):
    """Every `klbasis` entry of `target` is that of `source` with each
    exponent e replaced by the rational phi(e), and there are `count`."""
    mode, arity = source["mode"], source["arity"]
    want = entries(target)
    got = entries(source)
    assert set(got) == set(want) and len(want) == count
    for k, text in got.items():
        x = LaurentElt.parse(text, mode, arity)
        image = laurent_from_terms([(OrderedExponent.rational(phi(e.value)), c)
                                    for e, c in laurent_terms(x)])
        assert image == LaurentElt.parse(want[k]), (k, text, want[k])


def test_klbasis_scales_with_the_weights(tmp_path, capsys):
    half = run(capsys, tmp_path, "klbasis", weighted("group B 3\n", ["1", "1", "3/2"]))
    whole = run(capsys, tmp_path, "klbasis", weighted("group B 3\n", ["2", "2", "3"]))
    assert_entries_map(half, whole, lambda e: 2 * e[0], 1039)


def test_lex_klbasis_maps_into_its_chamber(tmp_path, capsys):
    lex = run(capsys, tmp_path, "klbasis",
              weighted("group B 3\n", ["e_2", "e_2", "e_1"], lex=True))
    for n in (3, 5, 20):
        rational = run(capsys, tmp_path, "klbasis",
                       weighted("group B 3\n", ["1", "1", str(n)]))
        assert_entries_map(lex, rational, lambda e: n * e[0] + e[1], 1037)


RELABELLINGS = {
    "B3 (1,1,3/2)": (weighted("group B 3\n", ["1", "1", "3/2"]), (2, 0, 1)),
    "B4 (1,1,1,2)": (weighted("group B 4\n", ["1", "1", "1", "2"]), (3, 1, 0, 2)),
    "D4": (weighted("group D 4\n", ["1", "1", "1", "1"]), (1, 3, 0, 2)),
    "F4 (1,1,2,2)": (weighted(F4_MATRIX, ["1", "1", "2", "2"]), (2, 0, 3, 1)),
}


def relabelled(text, perm):
    """(spec, group, names): the spec `text` with generator i the old
    generator perm[i], its rows and columns of the Coxeter matrix and its
    weight moved with it, the group of that spec, and the renaming {old
    name: new name} of the generators and of the elements, an element
    renamed as the product of the renamed letters of its word."""
    old = parse_spec(text)
    m, rank = old.matrix.entries, len(perm)
    spec = (f"group matrix\n{rank}\n"
            + "".join(" ".join(str(m[perm[i]][perm[j]]) for j in range(i + 1, rank)) + "\n"
                      for i in range(rank - 1))
            + weighted("", [old.weights[p].render() for p in perm]))
    new = parse_spec(spec)
    old_group = build_group(old.matrix, gen_names=old.gen_names)
    group = build_group(new.matrix, gen_names=new.gen_names)
    position = {p: i for i, p in enumerate(perm)}
    names = {old.gen_names[p]: new.gen_names[i] for i, p in enumerate(perm)}
    names.update((old_group.name(w), group.name(group.element_by_word(
        position[g] for g in old_group.word(w)))) for w in range(len(old_group)))
    return spec, group, names


@pytest.mark.parametrize("case", RELABELLINGS.values(), ids=RELABELLINGS)
def test_relabelled_generators_rename_every_output(case, tmp_path, capsys):
    """The relabelling relation on `cells`, `characters` and `klbasis`:
    the same cells, cell characters that agree under the bijections of
    classes and of irreducible rows that the renaming induces, and the
    same `klbasis` entries."""
    text, perm = case
    spec, group, names = relabelled(text, perm)
    options = ("--cache-dir", str(tmp_path / "kl"))  # cells and klbasis share each table
    a, b = (run(capsys, tmp_path, "cells", s, options) for s in (text, spec))
    blocks = {kind: [frozenset(block) for block in b[kind]["blocks"]]
              for kind in ("left_cells", "right_cells", "two_sided_cells")}
    for kind, theirs in blocks.items():
        assert {frozenset(map(names.get, block)) for block in a[kind]["blocks"]} == set(theirs)
    # Old class k goes to the new class holding the image of its
    # representative, and old row r to the new row with its values there.
    element = {group.name(w): w for w in range(len(group))}
    classes = group.conjugacy_classes()
    assert [group.name(r) for r in classes.representatives] == b["class_representatives"]
    class_map = [classes.class_of[element[names[rep]]] for rep in a["class_representatives"]]
    assert sorted(class_map) == list(range(len(class_map)))
    old_rows, new_rows = (run(capsys, tmp_path, "characters", s, ())["irreducibles"]
                          for s in (text, spec))
    row_index = {tuple(map(tuple, row)): r for r, row in enumerate(new_rows)}
    moved = sorted(range(len(class_map)), key=class_map.__getitem__)  # old k at new class j
    row_map = [row_index[tuple(tuple(row[k]) for k in moved)] for row in old_rows]
    assert sorted(row_map) == list(range(len(new_rows)))
    cell_of = {block: i for i, block in enumerate(blocks["left_cells"])}
    theirs = {c["cell"]: c for c in b["cell_characters"]}
    for mine in a["cell_characters"]:
        block = a["left_cells"]["blocks"][mine["cell"]]
        other = theirs[cell_of[frozenset(map(names.get, block))]]
        assert [other["values"][b["class_representatives"][j]] for j in class_map] == [
            mine["values"][rep] for rep in a["class_representatives"]]
        assert [other["multiplicities"][r] for r in row_map] == mine["multiplicities"]
    a, b = (run(capsys, tmp_path, "klbasis", s, options) for s in (text, spec))
    assert {names[w]: {names[y]: t for y, t in row.items()}
            for w, row in a["c_basis"].items()} == b["c_basis"]
    products = {}
    for key, row in a["cs_products"].items():
        g, w = key.split("|")
        products[f"{names[g]}|{names[w]}"] = {names[y]: t for y, t in row.items()}
    assert products == b["cs_products"]
