import random
from math import factorial

import pytest

from api_helpers import (descents, element_by_name, generators, lex_generic,
                         longest_element, reflections)
from klcells.coxeter import (ConjugacyViolation, CoxeterMatrix,
                             InfiniteOrTooLarge, WeightFunction, build_group,
                             conjugate_generator_components,
                             named_coxeter_matrix, validate_weights)
from klcells.specfile import parse_spec
from test_klbasis_golden import SPECS_BY_COMMAND


CLASSIFIED_ORDERS = [
    ("A", 1, 2),
    ("A", 2, 6),
    ("A", 3, 24),
    ("A", 4, 120),
    ("B", 2, 8),
    ("B", 3, 48),
    ("D", 4, 192),
    ("I2", 3, 6),
    ("I2", 4, 8),
    ("I2", 5, 10),
    ("I2", 6, 12),
    ("I2", 7, 14),
    ("I2", 8, 16),
]


@pytest.mark.parametrize("kind,n,order", CLASSIFIED_ORDERS)
def test_classified_orders(kind, n, order):
    W = build_group(named_coxeter_matrix(kind, n))
    assert len(W) == order


def test_classification_formulas():
    for n in (1, 2, 3):
        assert len(build_group(named_coxeter_matrix("A", n))) == factorial(n + 1)
    for n in (2, 3):
        assert len(build_group(named_coxeter_matrix("B", n))) == 2 ** n * factorial(n)
    assert len(build_group(named_coxeter_matrix("D", 4))) == 2 ** 3 * factorial(4)
    for m in (3, 5, 8):
        assert len(build_group(named_coxeter_matrix("I2", m))) == 2 * m


def test_infinite_group_rejected():
    # Affine A_2: all bonds 3, rank 3; the root system never closes.
    affine = CoxeterMatrix.from_rows([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(InfiniteOrTooLarge):
        build_group(affine, size_cap=500)


def test_size_cap_respected():
    with pytest.raises(InfiniteOrTooLarge):
        build_group(named_coxeter_matrix("A", 3), size_cap=10)
    with pytest.raises(InfiniteOrTooLarge):  # before Q(zeta_(2 * 10**8)) is built
        build_group(named_coxeter_matrix("I2", 10**8))


def test_multiply_basics():
    W = build_group(named_coxeter_matrix("I2", 3))
    e = W.identity
    s, t = generators(W)
    assert W.mul(s, e) == s
    assert W.mul(s, s) == e
    st = W.mul(s, t)
    assert W.mul(W.mul(st, st), st) == e  # (st)^3 = e from m_st = 3


@pytest.mark.parametrize("matrix", [
    named_coxeter_matrix("A", 3), named_coxeter_matrix("B", 4),
    named_coxeter_matrix("D", 4), named_coxeter_matrix("I2", 5),
    CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 3], [2, 3, 1]]),  # H3
], ids=["A3", "B4", "D4", "I2(5)", "H3"])
def test_left_multiplication_table(matrix):
    W = build_group(matrix)
    for g in range(W.rank):
        s = W.generator(g)
        for w in range(len(W)):
            assert W.lmul_gen(g, w) == W.mul(s, w), (W.gen_names[g], W.name(w))


def test_length_properties():
    W = build_group(named_coxeter_matrix("B", 3))
    for w in range(len(W)):
        assert W.length(w) == W.length(W.inv(w))
        assert W.length(w) == len(W.word(w))
        for g in range(W.rank):
            assert abs(W.length(W.lmul_gen(g, w)) - W.length(w)) == 1


def test_descents():
    W = build_group(named_coxeter_matrix("I2", 4))
    assert descents(W, W.identity, "left") == []
    assert descents(W, W.identity, "right") == []
    w0 = longest_element(W)
    assert descents(W, w0, "left") == [0, 1]
    assert descents(W, w0, "right") == [0, 1]
    # Brute-force check of both sides against the length table.
    for w in range(len(W)):
        left = [g for g in range(W.rank) if W.length(W.lmul_gen(g, w)) < W.length(w)]
        assert W.left_descents(w) == left


def test_sts_descents_in_a2():
    W = build_group(named_coxeter_matrix("A", 2))
    sts = element_by_name(W, "s t s")
    assert sts == longest_element(W)
    assert W.left_descents(sts) == [0, 1]


def test_exchange_condition_spot_checks():
    W = build_group(named_coxeter_matrix("B", 3))
    rng = random.Random(2024)
    for _ in range(40):
        w = rng.randrange(len(W))
        for s in W.left_descents(w):
            # some reduced word of w starts with s: s * (sw) is reduced
            sw = W.lmul_gen(s, w)
            assert W.length(sw) == W.length(w) - 1
            assert W.element_by_word((s,) + W.word(sw)) == w


def test_canonical_words_are_reduced_and_shortlex():
    W = build_group(named_coxeter_matrix("B", 2))
    words = [W.word(w) for w in range(len(W))]
    for w, word in enumerate(words):
        assert len(word) == W.length(w)
    # ShortLex order of canonical words agrees with the element order.
    keys = [(len(word), word) for word in words]
    assert keys == sorted(keys)


def test_action_is_faithful():
    W = build_group(named_coxeter_matrix("A", 3))
    perms = set()
    for w in range(len(W)):
        image = tuple(W.mul(w, g) for g in generators(W))
        perms.add((W.length(w), image))
    assert len(perms) == len(W)


def test_reflections_count_equals_positive_roots():
    for kind, n in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("I2", 5), ("I2", 6)]:
        W = build_group(named_coxeter_matrix(kind, n))
        assert len(reflections(W)) == len(W.roots) // 2


def test_conjugacy_class_counts():
    assert len(build_group(named_coxeter_matrix("A", 1)).conjugacy_classes()) == 2
    assert len(build_group(named_coxeter_matrix("A", 2)).conjugacy_classes()) == 3
    assert len(build_group(named_coxeter_matrix("B", 2)).conjugacy_classes()) == 5


def test_conjugacy_classes_partition():
    W = build_group(named_coxeter_matrix("B", 2))
    classes = W.conjugacy_classes()
    seen = sorted(w for block in classes.blocks for w in block)
    assert seen == list(range(len(W)))
    for block in classes.blocks:
        rep = block[0]
        for w in block:
            # some conjugator exists: brute force
            assert any(W.mul(W.mul(g, w), W.inv(g)) == rep for g in range(len(W)))


def test_odd_path_criterion_matches_true_conjugacy():
    for kind, n in [("A", 3), ("B", 3), ("I2", 4), ("I2", 5), ("D", 4)]:
        W = build_group(named_coxeter_matrix(kind, n))
        comp = conjugate_generator_components(W.matrix)
        classes = W.conjugacy_classes()
        gens = generators(W)
        for i in range(W.rank):
            for j in range(W.rank):
                same_class = classes.class_of[gens[i]] == classes.class_of[gens[j]]
                assert same_class == (comp[i] == comp[j])


def test_validate_weights():
    b2 = named_coxeter_matrix("I2", 4)
    validate_weights(b2, WeightFunction.rational([1, 2]))  # not conjugate: ok
    a2 = named_coxeter_matrix("A", 2)
    with pytest.raises(ConjugacyViolation) as err:
        validate_weights(a2, WeightFunction.rational([1, 2]))
    assert err.value.gen_a == "s" and err.value.gen_b == "t"
    validate_weights(a2, WeightFunction.rational([0, 0]))  # L = 0 is fine
    with pytest.raises(ValueError):
        validate_weights(a2, WeightFunction.rational([-1, -1]))


def test_lex_generic_weights_validate_on_b2_only():
    b2 = named_coxeter_matrix("I2", 4)
    validate_weights(b2, lex_generic(2))
    a2 = named_coxeter_matrix("A", 2)
    with pytest.raises(ConjugacyViolation):
        validate_weights(a2, lex_generic(2))


def reference_enumeration(W):
    """Words, inverses and left products by generators from a breadth-first
    search keyed by the full permutation of the roots, the element keys of
    the first enumeration (which the simple-root images replaced)."""
    nroots = len(W.roots)
    gen_perms = W._gen_perms
    identity = tuple(range(nroots))
    index = {identity: 0}
    perms, words = [identity], [()]
    queue = [0]
    while queue:
        nxt = []
        for w in queue:
            for g, pg in enumerate(gen_perms):
                image = tuple(perms[w][pg[r]] for r in range(nroots))
                if image not in index:
                    index[image] = len(perms)
                    perms.append(image)
                    words.append(words[w] + (g,))
                    nxt.append(index[image])
        queue = nxt
    inverses = []
    for pw in perms:
        inverse = [0] * nroots
        for r, image in enumerate(pw):
            inverse[image] = r
        inverses.append(index[tuple(inverse)])
    lmul = [[index[tuple(pg[r] for r in pw)] for pw in perms] for pg in gen_perms]
    return words, inverses, lmul


ENUMERATION_GROUPS = {
    "A3": named_coxeter_matrix("A", 3),
    "B4": named_coxeter_matrix("B", 4),
    "D4": named_coxeter_matrix("D", 4),
    "H3": CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 3], [2, 3, 1]]),
    "F4": CoxeterMatrix.from_rows([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3],
                                   [2, 2, 3, 1]]),
    "I2(7)": named_coxeter_matrix("I2", 7),
    "A1xA2": CoxeterMatrix.from_rows([[1, 2, 2], [2, 1, 3], [2, 3, 1]]),
    # An element's key is one int at rank 1; rank 0 is the trivial group.
    "A1": named_coxeter_matrix("A", 1),
    "rank 0": CoxeterMatrix.from_rows([]),
}


@pytest.mark.parametrize("name", sorted(ENUMERATION_GROUPS))
def test_enumeration_order_matches_full_permutation_keys(name):
    W = build_group(ENUMERATION_GROUPS[name])
    words, inverses, lmul = reference_enumeration(W)
    assert [W.word(w) for w in range(len(W))] == words
    assert [W.inv(w) for w in range(len(W))] == inverses
    assert [[W.lmul_gen(s, w) for w in range(len(W))] for s in range(W.rank)] == lmul


# One spec per distinct group of the goldens (the text before its weights).
GOLDEN_GROUP_SPECS = dict({spec.split("\nL")[0]: (name, spec)
                           for specs in SPECS_BY_COMMAND.values()
                           for name, spec in specs.items()}.values())


@pytest.mark.parametrize("name", sorted(GOLDEN_GROUP_SPECS))
def test_walk_sets_every_edge_from_both_ends(name):
    """The enumeration looks a key up only along an ascent w -> ws and sets
    the descent ws -> w with it; on every group of the goldens, each right
    product is set, right multiplication by s is an involution, and the
    two ends of each edge differ in length by one."""
    spec = parse_spec(GOLDEN_GROUP_SPECS[name])
    W = build_group(spec.matrix, gen_names=spec.gen_names)
    n = len(W)
    for w, row in enumerate(W._rmul):
        assert len(row) == W.rank and all(0 <= ws < n for ws in row)
        for s, ws in enumerate(row):
            assert W._rmul[ws][s] == w
            assert abs(W.length(ws) - W.length(w)) == 1
