"""Branching structure: levels, split profiles, classification, embedding."""

import random
from fractions import Fraction

import pytest

from cantormeasure.constructions import make_named
from cantormeasure.errors import NotANode, PresentationError
from cantormeasure.measure import mu_cylinder
from cantormeasure.splits import SplitProfile, canon_embed, classify, level, split_profile
from cantormeasure.trees import (
    BlockTree,
    ExplicitTree,
    FullTree,
    SilverTree,
    StaircaseNavigator,
    StaircaseTree,
    Subtree,
    children,
    contains,
    node_words,
    parse_tree_expr,
    product,
    validate,
)
from cantormeasure.words import EMPTY, BinWord, all_words, parse_words

E = BlockTree(3, frozenset(parse_words(["000", "001", "011", "111"])))
Q = BlockTree(
    4, frozenset(parse_words(["0000", "0001", "0011", "0111", "1000", "1001", "1011", "1111"]))
)
U = BlockTree(2, frozenset(parse_words(["00", "11"])))
FULL = FullTree()
BST = StaircaseTree()


def oracle_level(tree, w):
    """Splitting proper prefixes, counted with children() only."""
    return sum(
        1 for n in range(len(w)) if children(tree, w.prefix(n)) == (0, 1)
    )


def test_level_matches_oracle_everywhere():
    for tree in (E, Q, U, FULL, product(E, U)):
        for w in node_words(tree, 8):
            assert level(tree, w) == oracle_level(tree, w), w


def test_level_examples():
    assert level(FULL, BinWord((0, 1, 1))) == 3
    assert level(E, BinWord((0, 0, 0))) == 3
    assert level(E, BinWord((1, 1, 1))) == 1
    assert level(Q, BinWord((0, 1, 1, 1))) == 2
    assert level(Q, BinWord((0, 0, 0, 0))) == 4
    with pytest.raises(NotANode):
        level(E, BinWord((1, 0)))


def test_split_profile_full():
    profile = split_profile(FULL, 3)
    assert profile.s == (0, 1, 2)
    assert profile.S == (0, 1, 2)
    assert [len(pts) for pts in profile.split_points] == [1, 2, 4]


def test_split_profile_E():
    profile = split_profile(E, 3)
    assert profile.split_points[0] == (EMPTY,)
    assert profile.split_points[1] == tuple(parse_words(["0", "111"]))
    assert profile.split_points[2] == tuple(
        parse_words(["00", "011", "1110", "111111"])
    )
    assert profile.s == (0, 1, 2)
    assert profile.S == (0, 3, 6)


def test_split_profile_U():
    profile = split_profile(U, 4)
    assert profile.s == (0, 2, 4, 6)
    assert profile.S == (0, 2, 4, 6)


def test_split_profile_staircase():
    profile = split_profile(StaircaseTree(), 3)
    # one branching point per depth and splits stay separated
    for i in range(2):
        assert profile.s[i + 1] > profile.S[i]


def _bfs_split_profile(P, levels):
    """Reference: the breadth-first walk that found the split levels before
    they were read off the canonical embedding; it expands every node until
    its branch has passed the requested number of levels."""
    if levels <= 0:
        return SplitProfile((), (), (), 0)
    nav = P.navigator()
    points = [[] for _ in range(levels)]
    frontier = [(EMPTY, nav.initial, 0)]
    horizon = 0
    while frontier:
        nxt = []
        for w, state, count in frontier:
            bs = nav.bits(state)
            if len(bs) == 2:
                points[count].append(w)
                count += 1
            if count < levels:
                nxt.extend((w.append(b), nav.step(state, b), count) for b in bs)
        if nxt:
            horizon = max(len(w) for w, _, _ in nxt)
        frontier = nxt
    return SplitProfile(
        tuple(tuple(sorted(pts)) for pts in points),
        tuple(min(map(len, pts)) for pts in points),
        tuple(max(map(len, pts)) for pts in points),
        horizon,
    )


def _random_tree(rng, depth=0):
    roll = rng.random()
    if roll < 0.4 or depth == 2:
        if rng.random() < 0.5:
            k = rng.choice((1, 2, 3, 4))
            return BlockTree(k, frozenset(rng.sample(list(all_words(k)), rng.randint(1, 2**k))))
        period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))) + (-1,)
        return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))), period)
    if roll < 0.75:
        return product(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    base = _random_tree(rng, depth + 1)
    return Subtree(base, rng.choice(list(node_words(base, 4))))


def test_split_profile_matches_breadth_first_reference():
    named = [FULL] + [make_named(n).presentation for n in ("E", "Q", "PJ", "U", "BST")]
    cases = [(tree, levels) for tree in named for levels in range(5)]
    rng = random.Random(1609)
    while len(cases) < 2030:
        if rng.random() < 0.05:
            tree = Subtree(BST, rng.choice(list(node_words(BST, 6))))
        else:
            tree = _random_tree(rng)
        if validate(tree).perfect:
            cases.append((tree, rng.randint(0, 4)))
    for tree, levels in cases:
        assert split_profile(tree, levels) == _bfs_split_profile(tree, levels), (tree, levels)


def test_split_profile_of_a_tree_without_splits_fails(monkeypatch):
    # the tree is one branch: the walk to its first split must fail, not
    # grow ever longer words
    built = 0
    post_init = BinWord.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        if built > 10_000:
            raise RuntimeError("more than 10,000 words built")
        post_init(self)

    monkeypatch.setattr(BinWord, "__post_init__", counting)
    with pytest.raises(PresentationError):
        split_profile(parse_tree_expr("blocks(1){0}"), 1)


def test_classify_exact_families():
    c = classify(FULL)
    assert c.balanced and c.uniform and c.silver and c.exact_to is None

    c = classify(E)
    assert not c.balanced and not c.uniform and not c.silver
    assert c.exact_to is None

    c = classify(U)
    assert c.balanced and c.uniform and c.exact_to is None
    # 0^⌢0 is a node but 1^⌢0 is not: the same-extension condition fails
    assert not c.silver

    c = classify(SilverTree((0,), (-1, 1)))
    assert c.balanced and c.uniform and c.silver and c.exact_to is None


def test_classify_silver_condition_is_extension_equality():
    # uniform, and every same-length pair allows the same extensions
    for tree in (SilverTree((), (-1, 0, 1)), SilverTree((1,), (-1,))):
        c = classify(tree)
        assert c.silver
        for w in node_words(tree, 8):
            for v in node_words(tree, 8):
                if len(w) == len(v):
                    assert children(tree, w) == children(tree, v)


def test_classify_depth_qualified_for_explicit():
    tree = ExplicitTree(2, frozenset(parse_words(["00", "01", "10", "11"])))
    c = classify(tree, depth=2)
    assert c.balanced and c.uniform and c.silver
    assert c.exact_to == 2


def test_classify_staircase(monkeypatch):
    reads = 0
    row = StaircaseNavigator.row

    def counting_row(self, state):
        nonlocal reads
        reads += 1
        return row(self, state)

    monkeypatch.setattr(StaircaseNavigator, "row", counting_row)
    c = classify(StaircaseTree(), depth=24)
    assert c.balanced and not c.uniform and not c.silver
    assert c.exact_to == 24
    # one row read per node above depth 24: the staircase has d + 1 nodes at depth d
    assert reads == sum(d + 1 for d in range(24))


def test_classify_not_balanced_witnessed_by_profile():
    # s_2 = 2 <= S_1 = 3 in the three-bit block tree
    profile = split_profile(E, 3)
    assert profile.s[2] <= profile.S[1]
    assert not classify(E).balanced


def test_canon_embed_identity_on_full():
    for n in range(5):
        for w in all_words(n):
            assert canon_embed(FULL, w) == w


def test_canon_embed_lands_on_splits_with_right_level():
    for tree in (E, Q, U, product(U, U)):
        for n in range(5):
            for w in all_words(n):
                image = canon_embed(tree, w)
                assert children(tree, image) == (0, 1)
                assert level(tree, image) == len(w)
                # pushforward law: the cylinder at the image has measure 1/2^|w|
                assert mu_cylinder(tree, image) == Fraction(1, 2 ** len(w))


def test_canon_embed_preserves_order_and_prefixes():
    tree = E
    images = {w: canon_embed(tree, w) for w in all_words(4)}
    for u in all_words(3):
        for b in (0, 1):
            assert images.get(u.append(b)) is not None
            iu = canon_embed(tree, u)
            assert iu.is_prefix_of(images[u.append(b)])
    for u, iu in images.items():
        for v, iv in images.items():
            if u < v:
                assert iu < iv


def test_canon_embed_examples():
    assert canon_embed(E, EMPTY) == EMPTY
    assert canon_embed(E, BinWord((0,))) == BinWord((0,))
    assert canon_embed(E, BinWord((1,))) == BinWord((1, 1, 1))
    assert canon_embed(U, BinWord((1,))) == BinWord((1, 1))


def test_split_measure_bound():
    # a node one past a level-n deepest split has measure at most 1/2^(n+1)
    for tree in (E, Q, U):
        profile = split_profile(tree, 3)
        for n in range(3):
            for w in profile.split_points[n]:
                for b in children(tree, w):
                    assert mu_cylinder(tree, w.append(b)) <= Fraction(1, 2 ** (n + 1))


def test_unreachable_words_raise():
    with pytest.raises(NotANode):
        level(U, BinWord((0, 1)))
    assert not contains(U, BinWord((0, 1)))
