"""Presentation semantics against brute-force membership oracles.

Each presentation kind gets an independent definition-level membership
predicate; automata must agree with it on every word up to a test depth.
"""

import importlib
import pkgutil
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantormeasure
from cantormeasure.errors import (
    HorizonExceeded,
    NotANode,
    ParseError,
    PresentationError,
    UnsupportedPresentation,
)
from cantormeasure.splits import classify
from cantormeasure.trees import (
    BlockTree,
    ExplicitTree,
    FullTree,
    Navigator,
    ProductNavigator,
    ProductTree,
    SilverTree,
    StaircaseNavigator,
    StaircaseTree,
    StemNavigator,
    Subtree,
    TableNavigator,
    TreePresentation,
    ValidationReport,
    _tokenize,
    children,
    contains,
    frontier_words,
    node_words,
    parse_tree_expr,
    product,
    silver_split,
    tabulate,
    to_dsl,
    validate,
    walk,
)
from cantormeasure.words import EMPTY, BinWord, all_words, parse_words

K = parse_words(["000", "001", "011", "111"])
E = BlockTree(3, frozenset(K))
U = BlockTree(2, frozenset(parse_words(["00", "11"])))


def oracle_block(tree: BlockTree, w: BinWord) -> bool:
    blocks = {b.bits for b in tree.blocks}
    prefixes = {b.bits[:n] for b in tree.blocks for n in range(tree.k + 1)}
    for i in range(0, len(w), tree.k):
        chunk = w.bits[i : i + tree.k]
        if len(chunk) == tree.k:
            if chunk not in blocks:
                return False
        elif chunk not in prefixes:
            return False
    return True


def oracle_silver(tree: SilverTree, w: BinWord) -> bool:
    return all(tree.entry(n) in (-1, b) for n, b in enumerate(w.bits))


def oracle_product(in_left, in_right, w: BinWord) -> bool:
    return in_left(BinWord(w.bits[0::2])) and in_right(BinWord(w.bits[1::2]))


def all_up_to(depth):
    for n in range(depth + 1):
        yield from all_words(n)


@pytest.mark.parametrize("tree", [E, U, BlockTree(1, frozenset(parse_words(["0", "1"])))])
def test_block_membership_matches_oracle(tree):
    for w in all_up_to(9):
        assert contains(tree, w) == oracle_block(tree, w), w


@pytest.mark.parametrize(
    "tree",
    [
        SilverTree((), (-1,)),
        SilverTree((0, 1), (-1, 0)),
        SilverTree((-1,), (1, -1, -1)),
    ],
)
def test_silver_membership_matches_oracle(tree):
    for w in all_up_to(9):
        assert contains(tree, w) == oracle_silver(tree, w), w


def test_product_membership_matches_oracle():
    tree = product(E, U)
    for w in all_up_to(10):
        expected = oracle_product(
            lambda u: oracle_block(E, u), lambda v: oracle_block(U, v), w
        )
        assert contains(tree, w) == expected, w


def test_subtree_membership():
    root = BinWord((1, 1, 1))
    sub = Subtree(E, root)
    for w in all_up_to(7):
        comparable = root.is_prefix_of(w) or w.is_prefix_of(root)
        assert contains(sub, w) == (comparable and oracle_block(E, w)), w


def test_subtree_rejects_non_node():
    with pytest.raises(PresentationError):
        Subtree(E, BinWord((1, 0)))


def test_explicit_membership_and_horizon():
    tree = ExplicitTree(3, frozenset(parse_words(["010", "011", "110"])))
    assert contains(tree, BinWord((0, 1)))
    assert not contains(tree, BinWord((0, 0)))
    with pytest.raises(HorizonExceeded):
        contains(tree, BinWord((0, 1, 1, 0)))


def test_explicit_invariants():
    with pytest.raises(PresentationError):
        ExplicitTree(3, frozenset())
    with pytest.raises(PresentationError):
        ExplicitTree(3, frozenset(parse_words(["01"])))


def test_block_invariants():
    with pytest.raises(PresentationError):
        BlockTree(0, frozenset(parse_words(["0"])))
    with pytest.raises(PresentationError):
        BlockTree(2, frozenset())
    with pytest.raises(PresentationError):
        BlockTree(2, frozenset(parse_words(["00", "1"])))


def test_silver_invariants():
    with pytest.raises(PresentationError):
        SilverTree((), ())
    with pytest.raises(PresentationError):
        SilverTree((), (0, 1))
    with pytest.raises(PresentationError):
        SilverTree((2,), (-1,))


def test_children_of_block_tree():
    assert children(E, EMPTY) == (0, 1)
    assert children(E, BinWord((0, 0))) == (0, 1)
    assert children(E, BinWord((1,))) == (1,)
    with pytest.raises(NotANode):
        children(E, BinWord((1, 0)))


def test_node_and_frontier_words():
    ws = list(node_words(U, 2))
    assert ws == list(parse_words(["ε", "0", "1", "00", "11"]))
    assert frontier_words(U, 3) == list(parse_words(["000", "001", "110", "111"]))


def test_full_tree():
    full = FullTree()
    assert len(frontier_words(full, 5)) == 32
    report = validate(full)
    assert report.pruned and report.perfect and report.exact_to is None


def test_validate_named_trees_exact():
    for tree in (E, U, product(E, U), Subtree(E, BinWord((1, 1, 1)))):
        report = validate(tree)
        assert report.pruned and report.perfect and report.exact_to is None


def test_validate_detects_imperfect_block_tree():
    # single block: one forced branch, no splits at all
    tree = BlockTree(2, frozenset(parse_words(["01"])))
    report = validate(tree)
    assert report.pruned and not report.perfect
    assert report.witnesses


def test_validate_explicit_depth_qualified():
    tree = ExplicitTree(2, frozenset(parse_words(["00", "01", "10", "11"])))
    report = validate(tree)
    assert report.pruned and report.perfect and report.exact_to == 2
    thin = ExplicitTree(2, frozenset(parse_words(["00"])))
    report = validate(thin)
    assert report.pruned and not report.perfect
    # witnesses at two depths come in lexicographic order, not shortest first
    tree = ExplicitTree(3, frozenset(parse_words(["000", "010", "011", "100"])))
    assert validate(tree) == ValidationReport(True, False, parse_words(["00", "1", "10"]), 3)


def test_staircase_one_split_per_depth():
    tree = StaircaseTree()
    report = validate(tree)
    assert report.pruned and report.perfect
    for d in range(12):
        splits = [w for w in frontier_words(tree, d) if children(tree, w) == (0, 1)]
        assert len(splits) == 1, d


def test_validate_subtree_of_staircase_and_unknown_navigators():
    report = validate(Subtree(StaircaseTree(), BinWord((0, 1))))
    assert report.pruned and report.perfect
    # a stem above an explicit trie keeps the trie's nodes comparable with
    # it, checked exactly up to the trie's depth
    explicit = ExplicitTree(2, frozenset(parse_words(["00", "01", "10", "11"])))
    assert validate(Subtree(explicit, BinWord((0,)))) == ValidationReport(True, True, exact_to=2)
    assert validate(Subtree(Subtree(explicit, BinWord((0,))), BinWord((0, 1)))) == (
        ValidationReport(True, False, parse_words(["", "0"]), exact_to=2)
    )
    uneven = ExplicitTree(2, frozenset(parse_words(["00", "01", "10"])))
    assert validate(Subtree(uneven, BinWord((1,)))) == (
        ValidationReport(True, False, parse_words(["", "1"]), exact_to=2)
    )
    # a product with the staircase and no horizon has no exact check: a
    # typed error, not an answer
    with pytest.raises(UnsupportedPresentation):
        validate(product(StaircaseTree(), E))
    # a product with an explicit tree is checked up to its horizon: the
    # right side's depth 2 ends at product depth 2 * 2 + 1; below each
    # witness E's forced bit at depth 4 leaves no split short of depth 5
    witnesses = parse_words(["0010", "0011", "0110", "0111", "1010", "1011", "1110", "1111"])
    assert validate(product(E, explicit)) == ValidationReport(True, False, witnesses, exact_to=5)


def _scan_validate(nav):
    """Reference: shortest words by breadth-first search, then the states
    that reach a splitting state by scans repeated until nothing changes."""
    witness_of = {nav.initial: EMPTY}
    queue = deque([nav.initial])
    while queue:
        s = queue.popleft()
        for b in nav.bits(s):
            t = nav.step(s, b)
            if t is not None and t not in witness_of:
                witness_of[t] = witness_of[s].append(b)
                queue.append(t)
    states = list(witness_of)
    dead = [s for s in states if not nav.bits(s)]
    if dead:
        return ValidationReport(False, False, tuple(sorted(witness_of[s] for s in dead)))
    reach = {s for s in states if len(nav.bits(s)) == 2}
    changed = True
    while changed:
        changed = False
        for s in states:
            if s not in reach and any(nav.step(s, b) in reach for b in nav.bits(s)):
                reach.add(s)
                changed = True
    bad = [s for s in states if s not in reach]
    if bad:
        return ValidationReport(True, False, tuple(sorted(witness_of[s] for s in bad)))
    return ValidationReport(True, True)


@dataclass(frozen=True)
class _TableTree(TreePresentation):
    """A tree given by its transition table, from state 0; a state with an
    empty row is a dead end."""

    table: tuple

    def _compile(self):
        return TableNavigator.from_mapping(0, dict(self.table))


def _random_validation_tree(rng, depth=0):
    roll = rng.random()
    if roll < 0.2:
        n = rng.randint(1, 5)
        rows = []
        for s in range(n):
            kept = [b for b in (0, 1) if rng.random() < 0.7]
            rows.append((s, {b: rng.randrange(n) for b in kept}))
        return _TableTree(tuple(rows))
    if roll < 0.5 or depth == 2:
        k = rng.choice((1, 2, 3))
        blocks = rng.sample(list(all_words(k)), rng.randint(1, 2**k))
        return BlockTree(k, frozenset(blocks))
    if roll < 0.7:
        period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))) + (-1,)
        return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))), period)
    if roll < 0.85:
        return product(
            _random_validation_tree(rng, depth + 1), _random_validation_tree(rng, depth + 1)
        )
    base = _random_validation_tree(rng, depth + 1)
    return Subtree(base, rng.choice(list(node_words(base, 3))))


def test_validate_matches_fixpoint_scan():
    rng = random.Random(2016)
    kinds = set()
    for _ in range(300):
        tree = _random_validation_tree(rng)
        report = validate(tree)
        assert report == _scan_validate(tree.navigator()), tree
        kinds.add((report.pruned, report.perfect))
    assert kinds == {(False, False), (True, False), (True, True)}


def _trie_validate(tree):
    """Reference: the prefix scan that once checked explicit trees, over
    the prefixes of the frontier words comparable with every stem above."""
    stems = []
    while isinstance(tree, Subtree):
        stems.append(tree.root.bits)
        tree = tree.base
    depth = tree.depth
    prefixes = {w.bits[:n] for w in tree.frontier for n in range(depth + 1)}
    node_set = {t for t in prefixes if all(t[: len(s)] == s[: len(t)] for s in stems)}
    nodes = sorted(node_set, key=lambda t: (len(t), t))
    dead = [t for t in nodes if len(t) < depth and not any(t + (b,) in node_set for b in (0, 1))]
    if dead:
        return ValidationReport(False, False, tuple(BinWord(t) for t in dead), exact_to=depth)
    splits = {t for t in nodes if len(t) < depth and all(t + (b,) in node_set for b in (0, 1))}
    bad = [t for t in nodes if len(t) < depth and not any(s[: len(t)] == t for s in splits)]
    if bad:
        return ValidationReport(True, False, tuple(BinWord(t) for t in bad), exact_to=depth)
    return ValidationReport(True, True, exact_to=depth)


def test_validate_explicit_matches_prefix_scan():
    rng = random.Random(1971)
    kinds = set()
    for _ in range(600):
        depth = rng.randint(0, 6)
        frontier = [tuple(rng.randint(0, 1) for _ in range(depth)) for _ in range(rng.randint(1, 12))]
        tree, longest = ExplicitTree(depth, frozenset(BinWord(w) for w in frontier)), ()
        for _ in range(rng.randint(0, 2)):
            # a stem's root is a node of the tree below it
            w = rng.choice([w for w in frontier if w[: len(longest)] == longest])
            root = w[: rng.randint(0, depth)]
            tree, longest = Subtree(tree, BinWord(root)), max(root, longest, key=len)
        report, expected = validate(tree), _trie_validate(tree)
        assert report == ValidationReport(
            expected.pruned, expected.perfect, tuple(sorted(expected.witnesses)), expected.exact_to
        ), tree
        kinds.add(report.perfect)
    assert kinds == {False, True}


def _random_horizoned_tree(rng, depth=0):
    """Products and stems over explicit, block, Silver and full trees."""
    roll = rng.random()
    if roll < 0.3 or depth == 2:
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randint(1, 3)
            return ExplicitTree(n, frozenset(rng.sample(list(all_words(n)), rng.randint(1, 2**n))))
        if kind == 1:
            k = rng.choice((1, 2, 3))
            return BlockTree(k, frozenset(rng.sample(list(all_words(k)), rng.randint(1, 2**k))))
        if kind == 2:
            period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))) + (-1,)
            return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))), period)
        return FullTree()
    if roll < 0.75:
        return product(_random_horizoned_tree(rng, depth + 1), _random_horizoned_tree(rng, depth + 1))
    base = _random_horizoned_tree(rng, depth + 1)
    h = base.navigator().horizon
    return Subtree(base, rng.choice(list(node_words(base, 3 if h is None else min(3, h)))))


def _lazy_navigator(P):
    """P's navigator as built without tables: a ProductNavigator or a
    StemNavigator over the lazy navigators of its parts."""
    if isinstance(P, ProductTree):
        return ProductNavigator(_lazy_navigator(P.left), _lazy_navigator(P.right))
    if isinstance(P, Subtree):
        base = _lazy_navigator(P.base)
        return StemNavigator(P.root.bits, base, walk(base, P.root.bits, base.initial)[0])
    return P.navigator()


def _assert_same_bits(nav, ref, depth):
    """nav gives the bits ref gives along every word up to depth, steps
    exactly where it has a child, and raises ref's HorizonExceeded at its
    horizon."""
    level = [(nav.initial, ref.initial)]
    for d in range(depth + 1):
        nxt = []
        for s, r in level:
            try:
                bits = nav.bits(s)
            except HorizonExceeded as exc:
                assert d == nav.horizon
                with pytest.raises(HorizonExceeded) as ref_exc:
                    ref.bits(r)
                assert str(ref_exc.value) == str(exc)
                continue
            assert bits == ref.bits(r)
            for b in (0, 1):
                t = nav.step(s, b)
                assert (t is None) == (b not in bits)
                if t is not None:
                    nxt.append((t, ref.step(r, b)))
        level = nxt


class _RefNavigator:
    """Reference: the base class's row as it was derived from bits and
    step, while each navigator class implemented those two."""

    def row(self, state):
        bs = self.bits(state)
        return tuple([self.step(state, b) if b in bs else None for b in (0, 1)])


class _RefTable(_RefNavigator):
    """TableNavigator's own bits and step as written, over a table's rows."""

    def __init__(self, nav):
        self.rows, self.trie_depth, self.initial = nav.rows, nav.trie_depth, 0

    def row(self, state):
        row = self.rows[state]
        if row is None:
            raise HorizonExceeded(
                f"explicit tree of depth {self.trie_depth} queried past its horizon"
            )
        return row

    def bits(self, state):
        zero, one = self.row(state)
        return ((), (0,), (1,), (0, 1))[(zero is not None) + 2 * (one is not None)]

    def step(self, state, bit):
        row = self.rows[state]
        return None if row is None else row[bit]


class _RefProduct(_RefNavigator):
    """ProductNavigator's own bits and step as written."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.initial = (left.initial, right.initial, 0)

    def bits(self, state):
        ls, rs, parity = state
        return self.left.bits(ls) if parity == 0 else self.right.bits(rs)

    def step(self, state, bit):
        ls, rs, parity = state
        if parity == 0:
            nl = self.left.step(ls, bit)
            return None if nl is None else (nl, rs, 1)
        nr = self.right.step(rs, bit)
        return None if nr is None else (ls, nr, 0)


class _RefStem(_RefNavigator):
    """StemNavigator's own bits and step as written."""

    def __init__(self, stem, base, base_state):
        self.stem, self.base, self._base_state = stem, base, base_state
        self.initial = ("stem", 0) if stem else ("base", base_state)

    def bits(self, state):
        kind, val = state
        if kind == "stem":
            return (self.stem[val],)
        return self.base.bits(val)

    def step(self, state, bit):
        kind, val = state
        if kind == "stem":
            if bit != self.stem[val]:
                return None
            if val + 1 == len(self.stem):
                return ("base", self._base_state)
            return ("stem", val + 1)
        t = self.base.step(val, bit)
        return None if t is None else ("base", t)


class _RefStaircase(_RefNavigator):
    """StaircaseNavigator's own bits and step as written, with its levels."""

    def __init__(self):
        self.initial = ()
        self._levels = [{(): (-1, True)}]

    def _extend(self):
        d = len(self._levels) - 1
        nxt = {}
        for node, (last, chosen) in self._levels[-1].items():
            if chosen:
                nxt[node + (0,)] = d
                nxt[node + (1,)] = d
            else:
                nxt[node + (0,)] = last
        pick = min(nxt, key=lambda n: (nxt[n], n))
        self._levels.append({n: (ls, n == pick) for n, ls in nxt.items()})

    def _level(self, d):
        while len(self._levels) <= d:
            self._extend()
        return self._levels[d]

    def bits(self, state):
        info = self._level(len(state)).get(state)
        if info is None:
            raise NotANode(f"{BinWord(state)} is not a staircase node")
        return (0, 1) if info[1] else (0,)

    def step(self, state, bit):
        t = state + (bit,)
        return t if t in self._level(len(t)) else None


def _reference_navigator(P):
    """P's navigator built from the reference copies, over the same states
    as _lazy_navigator(P)."""
    if isinstance(P, ProductTree):
        return _RefProduct(_reference_navigator(P.left), _reference_navigator(P.right))
    if isinstance(P, Subtree):
        base = _reference_navigator(P.base)
        state = base.initial
        for b in P.root.bits:
            state = base.step(state, b)
        return _RefStem(P.root.bits, base, state)
    if isinstance(P, StaircaseTree):
        return _RefStaircase()
    return _RefTable(P.navigator())


def _outcome(method, *args):
    try:
        return method(*args)
    except (HorizonExceeded, NotANode) as exc:
        return type(exc), str(exc)


def _assert_same_methods(nav, ref, depth):
    """nav and ref, over the same states, give the same row, bits and step,
    or raise the same error, at every state along every word up to depth."""
    level = [ref.initial]
    assert nav.initial == ref.initial
    for _ in range(depth + 1):
        nxt = []
        for s in level:
            for name, args in (("row", (s,)), ("bits", (s,)), ("step", (s, 0)), ("step", (s, 1))):
                assert _outcome(getattr(nav, name), *args) == _outcome(getattr(ref, name), *args)
            row = _outcome(ref.row, s)
            if row[0] is not HorizonExceeded:
                nxt.extend(t for t in row if t is not None)
        level = nxt


def _random_row_tree(rng):
    """Products and stems, nested, over full, block, Silver, explicit and
    staircase trees."""
    roll = rng.random()
    if roll < 0.3:
        tree = _random_horizoned_tree(rng, 1)
        return product(StaircaseTree(), tree) if roll < 0.15 else product(tree, StaircaseTree())
    if roll < 0.4:
        base = _random_row_tree(rng)
        h = base.navigator().horizon
        return Subtree(base, rng.choice(list(node_words(base, 2 if h is None else min(2, h)))))
    return _random_horizoned_tree(rng)


def test_tables_match_lazy_navigators():
    # products and stems, nested, over full, block, Silver, explicit and
    # staircase trees compile to tables, lazy over the staircase; their
    # rows, and the derived bits and step, match the per-class copies
    rng = random.Random(1517)
    E = BlockTree(3, frozenset(parse_words(["000", "001", "011", "111"])))
    words = ExplicitTree(3, frozenset(parse_words(["010", "011", "110"])))
    trees = [
        StaircaseTree(),
        product(Subtree(product(E, words), BinWord((0, 0, 1))), Subtree(SilverTree((1,), (-1, 0)), BinWord((1, 1)))),
        Subtree(product(product(words, FullTree()), E), BinWord((0, 1, 1))),
        product(Subtree(StaircaseTree(), BinWord((1,))), product(E, words)),
        Subtree(product(E, StaircaseTree()), BinWord((0, 1))),
    ]
    trees += [_random_horizoned_tree(rng) for _ in range(60)]
    trees += [_random_row_tree(rng) for _ in range(30)]
    kinds = set()
    for P in trees:
        nav, lazy = P.navigator(), _lazy_navigator(P)
        over_staircase = "staircase" in str(P)
        assert (nav.rows is None) == over_staircase, P
        assert (nav.horizon, nav.finite) == (lazy.horizon, lazy.finite), P
        _assert_same_bits(nav, lazy, 10)
        _assert_same_methods(lazy, _reference_navigator(P), 10)
        kinds.add((over_staircase, nav.horizon is None))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    # off the staircase row and bits raise NotANode and step leads nowhere,
    # on the staircase and inside a product
    nav, ref = StaircaseTree().navigator(), _RefStaircase()
    # the staircase has 7 nodes at depth 6, one of them splitting
    level6 = [w.bits for w in frontier_words(StaircaseTree(), 6)]
    off = [w + (1,) for w in level6 if ref.step(w, 1) is None]
    assert len(off) == 6
    pnav = product(StaircaseTree(), E).navigator()
    pref = _RefProduct(_RefStaircase(), _RefTable(E.navigator()))
    for s in off:
        with pytest.raises(NotANode):
            nav.row(s)
        for name, args in (("row", ()), ("bits", ()), ("step", (0,)), ("step", (1,))):
            assert _outcome(getattr(nav, name), s, *args) == _outcome(getattr(ref, name), s, *args)
            ps = (s, 0, 0)
            assert _outcome(getattr(pnav, name), ps, *args) == _outcome(getattr(pref, name), ps, *args)


def test_navigator_classes_implement_row_alone():
    for info in pkgutil.iter_modules(cantormeasure.__path__):
        importlib.import_module(f"cantormeasure.{info.name}")
    found, todo = [], [Navigator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Navigator and cls.__module__.startswith("cantormeasure."):
            found.append(cls)
    assert set(found) == {TableNavigator, ProductNavigator, StemNavigator, StaircaseNavigator}
    for cls in found:
        assert "row" in vars(cls) and not {"bits", "step"} & set(vars(cls)), cls
    assert {"row", "bits", "step"} <= set(vars(Navigator))


def _numbered_breadth_first(rows):
    """Whether a breadth-first search from 0 over rows, children in bit
    order, finds the states in the order 0, 1, ..., n-1, and all of them."""
    order, seen = [0], {0}
    for s in order:
        for t in rows[s] or ():
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    return order == list(range(len(rows)))


def test_every_table_is_breadth_first_from_0_and_reachable():
    rng = random.Random(1909)
    trees = [
        Subtree(ExplicitTree(2, frozenset(parse_words(["00", "11"]))), BinWord((0,))),
        Subtree(product(U, ExplicitTree(2, frozenset(parse_words(["00", "11"])))), BinWord((1, 1))),
        Subtree(SilverTree((1, 0), (-1, 0)), BinWord((1, 0, 1))),
        product(E, U),
        FullTree(),
        E,
    ]
    trees += [_random_horizoned_tree(rng) for _ in range(150)]
    trees += [_random_validation_tree(rng) for _ in range(150)]
    for P in trees:
        nav = P.navigator()
        assert nav.rows is not None and _numbered_breadth_first(nav.rows), P
    # a lazy navigator numbered by tabulate too
    lazy = _lazy_navigator(product(Subtree(E, BinWord((1,))), Subtree(U, BinWord((0, 0)))))
    assert lazy.rows is None and _numbered_breadth_first(tabulate(lazy, 1000).rows)
    # validate relies on it, and refuses a table built by hand otherwise:
    # unreachable states (here a cycle of two) or ids out of search order
    for rows in ([(0, 0), (2, None), (1, None)], [(2, 1), (2, None), (None, None)], [(0, 0), (1, 1)]):
        assert not _numbered_breadth_first(rows)
        with pytest.raises(PresentationError, match="not numbered breadth-first"):
            validate(_RawTable(rows))


class _RawTable(TreePresentation):
    """A tree whose navigator is the given rows, as they are."""

    def __init__(self, rows):
        self._nav = TableNavigator(rows)


def _node_scan_validate(P, h):
    """Reference for a pruned tree: the node words short of the horizon h
    with no split at or below them; one witness per navigator state, its
    least word."""
    nodes = set(node_words(P, h))
    inner = [w for w in nodes if len(w) < h]
    splits = [w for w in inner if w.append(0) in nodes and w.append(1) in nodes]
    bad = [w for w in inner if not any(w.is_prefix_of(v) for v in splits)]
    nav, least = P.navigator(), {}
    for w in sorted(bad):
        least.setdefault(walk(nav, w.bits, nav.initial)[0], w)
    return ValidationReport(True, not bad, tuple(sorted(least.values())), exact_to=h)


def test_horizoned_trees_match_node_scan_and_explicit_copy():
    # a product or stem over an explicit tree is decided up to its horizon,
    # and up to it classifies like the explicit tree of its frontier
    rng = random.Random(1916)
    checked, perfect = 0, set()
    for _ in range(500):
        P = _random_horizoned_tree(rng)
        assert parse_tree_expr(str(P)) == P
        h = P.navigator().horizon
        if h is None or h > 9:  # nested products double it; node words grow as 2^h
            continue
        # every node of these presentations lies on a branch: all are pruned
        report = validate(P)
        assert report == _node_scan_validate(P, h), P
        # bits answers short of the horizon (node_words above) and raises at
        # it, where step leads nowhere
        nav, frontier = P.navigator(), frontier_words(P, h)
        for w in frontier:
            end = walk(nav, w.bits, nav.initial)[0]
            with pytest.raises(HorizonExceeded):
                nav.bits(end)
            assert nav.step(end, 0) is None and nav.step(end, 1) is None
        copy = ExplicitTree(h, frozenset(frontier))
        for d in (h, h + 3):
            assert classify(P, d) == classify(copy, d), (P, d)
        checked += 1
        perfect.add(report.perfect)
    assert checked >= 150 and perfect == {False, True}, checked


def test_staircase_every_branch_splits_again():
    # no node may go more than a bounded stretch without a branching point
    tree = StaircaseTree()
    for d in range(1, 13):
        for w in frontier_words(tree, d):
            split_depths = [
                n for n in range(d) if children(tree, w.prefix(n)) == (0, 1)
            ]
            gaps = [b - a for a, b in zip([-1] + split_depths, split_depths + [d])]
            assert max(gaps) <= d, w


def test_product_of_silver_components():
    S = SilverTree((-1, 0), (-1, 1, -1))
    even, odd = silver_split(S)
    prod = product(even, odd)
    for d in (6, 12):
        assert set(node_words(S, d)) == set(node_words(prod, d))


def test_silver_split_degenerate_component_is_explicit():
    # odd entries are all forced: that component is not perfect
    S = SilverTree((), (-1, 0))
    even, odd = silver_split(S)
    assert isinstance(even, SilverTree)
    assert isinstance(odd, ExplicitTree)
    prod = product(even, odd)
    for w in all_up_to(8):
        assert contains(prod, w) == contains(S, w), w


def test_dsl_round_trip():
    examples = [
        FullTree(),
        StaircaseTree(),
        E,
        SilverTree((1, 0), (-1, 0)),
        ExplicitTree(2, frozenset(parse_words(["00", "11"]))),
        product(E, U),
        Subtree(E, BinWord((1, 1, 1))),
    ]
    for tree in examples:
        assert parse_tree_expr(to_dsl(tree)) == tree


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_tree_expr("blocks(2){00 11")
    with pytest.raises(ParseError):
        parse_tree_expr("nosuch")
    with pytest.raises(ParseError):
        parse_tree_expr("full extra")
    with pytest.raises(ParseError):
        parse_tree_expr("words{}")
    with pytest.raises(PresentationError):
        parse_tree_expr("silver[]repeat[0]")


def _reference_tokenize(text):
    """The tokenizer as first written: one character at a time."""
    tokens, cur = [], ""
    for ch in text:
        if ch in "{}[]()," or ch.isspace():
            if cur:
                tokens.append(cur)
                cur = ""
            if not ch.isspace():
                tokens.append(ch)
        else:
            cur += ch
    if cur:
        tokens.append(cur)
    return tokens


def test_tokenize_matches_the_character_loop():
    rng = random.Random(7)
    # the \x1c-\x1f separators and the no-break spaces are whitespace to
    # str.isspace; the last entries are not
    alphabet = list("{}[](),01ab-_ \t\n\r\x0b\x0c\x1c\x1f\xa0\u2007\u3000\x00\u200b")
    for _ in range(5000):
        text = "".join(
            rng.choice(alphabet) if rng.random() < 0.9 else chr(rng.randrange(0x110000))
            for _ in range(rng.randrange(16))
        )
        assert _tokenize(text) == _reference_tokenize(text), repr(text)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(
        st.lists(st.integers(0, 1), min_size=3, max_size=3).map(tuple),
        min_size=1,
        max_size=8,
    )
)
def test_block_trees_always_match_oracle(blockset):
    tree = BlockTree(3, frozenset(BinWord(b) for b in blockset))
    for w in all_up_to(7):
        assert contains(tree, w) == oracle_block(tree, w)
