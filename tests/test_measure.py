"""Measure engine: cylinder law, traces, refinement certificates."""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantormeasure import measure
from cantormeasure.certcheck import check_certificate
from cantormeasure.constructions import make_named
from cantormeasure.errors import (
    CantorMeasureError,
    CapExceeded,
    IntegrityError,
    UnsupportedPresentation,
    WitnessNotFound,
)
from cantormeasure.measure import (
    HALF,
    BoundCertificate,
    _components,
    _solve_exact,
    _solve_trace,
    baire_measure,
    default_trace_depth,
    lemma1_refine,
    mu_clopen,
    mu_cylinder,
    product_measure,
    trace_exact,
    trace_upper,
)
from cantormeasure.splits import level
from cantormeasure.trees import (
    BlockTree,
    ExplicitTree,
    FullTree,
    Navigator,
    SilverTree,
    StaircaseTree,
    Subtree,
    TableNavigator,
    TreePresentation,
    children,
    frontier_words,
    node_words,
    parse_tree_expr,
    product,
    to_dsl,
    walk,
)
from cantormeasure.words import BinWord, NatWord, all_words, interleave, parse_words

E = BlockTree(3, frozenset(parse_words(["000", "001", "011", "111"])))
Q = BlockTree(
    4, frozenset(parse_words(["0000", "0001", "0011", "0111", "1000", "1001", "1011", "1111"]))
)
U = BlockTree(2, frozenset(parse_words(["00", "11"])))
FULL = FullTree()
BST = StaircaseTree()


def test_cylinder_is_halving_law():
    for tree in (E, Q, U, FULL, BST, product(E, U)):
        for w in node_words(tree, 9):
            assert mu_cylinder(tree, w) == Fraction(1, 2 ** level(tree, w))


def test_cylinder_splitting_identity():
    # at a split both children carry half; at a forced node the child all
    for tree in (E, Q, U, BST):
        for w in node_words(tree, 8):
            kids = children(tree, w)
            total = sum(mu_cylinder(tree, w.append(b)) for b in kids)
            assert total == mu_cylinder(tree, w)


def test_cylinder_zero_off_tree():
    assert mu_cylinder(U, BinWord((0, 1))) == 0
    assert mu_cylinder(E, BinWord((1, 0))) == 0


def test_level_normalization():
    for tree in (E, Q, U, BST):
        for depth in range(1, 11):
            total = sum(mu_cylinder(tree, w) for w in frontier_words(tree, depth))
            assert total == 1, (tree, depth)


def test_mu_clopen_disjointifies():
    ws = parse_words(["0", "00", "000", "111"])
    # nested cylinders collapse to the outermost one
    assert mu_clopen(E, ws) == mu_cylinder(E, BinWord((0,))) + mu_cylinder(
        E, BinWord((1, 1, 1))
    )
    assert mu_clopen(FULL, parse_words(["0", "1"])) == 1
    assert mu_clopen(FULL, []) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 1), max_size=8).map(tuple), max_size=12))
def test_mu_clopen_subadditive(bitlists):
    ws = [BinWord(b) for b in bitlists]
    total = sum(mu_cylinder(FULL, w) for w in ws)
    assert mu_clopen(FULL, ws) <= total


def test_baire_measure():
    assert baire_measure(NatWord(())) == 1
    assert baire_measure(NatWord((0,))) == Fraction(1, 2)
    assert baire_measure(NatWord((1, 0))) == Fraction(1, 8)
    total = sum(baire_measure(NatWord((k,))) for k in range(40))
    assert 1 - total == Fraction(1, 2**40)


def test_trace_upper_U_in_full():
    result = trace_upper(FULL, U, 10)
    assert result.method == "depth-bounded"
    for n in range(6):
        assert result.upper_bounds[2 * n] == Fraction(1, 2**n)
        if 2 * n + 1 <= 10:
            assert result.upper_bounds[2 * n + 1] == Fraction(1, 2**n)


def test_trace_upper_E_in_full():
    result = trace_upper(FULL, E, 9)
    for n in range(4):
        assert result.upper_bounds[3 * n] == Fraction(1, 2**n)


def test_trace_upper_decreasing_everywhere():
    for P, X in [(E, U), (U, E), (Q, E), (E, BST), (U, BST)]:
        bounds = trace_upper(P, X, 16).upper_bounds
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize(
    "P, X, depth",
    [
        ("full", "full", 24),
        ("staircase", "blocks(3){000 111}", 36),
        ("words{00000 11111}", "blocks(3){000 111}", 45),
        ("blocks(3){000 111}", "words{000000000}", 27),
        ("silver[0 -1]repeat[1 -1 -1]", "blocks(2){00 11}", 30),
        ("product(blocks(2){00 11},silver[]repeat[-1])", "blocks(3){000 111}", 36),
        ("product(product(full,full),full)", "blocks(5){00000 11111}", 60),
        ("product(blocks(3){000 111},words{00000})", "full", 60),
        ("subtree(blocks(3){000 111},0)", "blocks(3){000 111}", 36),
        ("subtree(product(silver[-1]repeat[-1 0],full),010)", "full", 27),
    ],
)
def test_default_trace_depth_per_presentation_kind(P, X, depth):
    assert default_trace_depth(parse_tree_expr(P), parse_tree_expr(X)) == depth


def test_default_trace_depth_reasonable():
    d = default_trace_depth(FULL, U)
    assert 24 <= d <= 60


def test_trace_exact_extremes():
    assert trace_exact(FULL, FULL).exact == 1
    assert trace_exact(FULL, U).exact == 0
    assert trace_exact(U, FULL).exact == 1
    assert trace_exact(E, E).exact == 1
    assert trace_exact(E, U).exact == 0
    assert trace_exact(U, E).exact == 0


def test_trace_exact_subtree_equals_cylinder():
    # the trace of a relative cylinder is the cylinder measure
    for tree in (E, Q, U):
        for w in node_words(tree, 6):
            sub = Subtree(tree, w)
            assert trace_exact(tree, sub).exact == mu_cylinder(tree, w), w


def test_trace_exact_respects_own_bounds():
    result = trace_exact(E, Subtree(E, BinWord((0,))))
    assert all(result.exact <= b for b in result.upper_bounds)
    assert result.method == "exact-solve"


def test_trace_exact_needs_finite_states():
    with pytest.raises(UnsupportedPresentation):
        trace_exact(E, BST)


def _product_table(P, X):
    """The reachable (P-state, X-state) pairs in breadth-first order, found
    through the navigators' bits and step, and the step of each pair by its
    own id: (weight, kid ids, leaks)."""
    pnav, xnav = P.navigator(), X.navigator()
    states = [(pnav.initial, xnav.initial)]
    index = {states[0]: 0}
    table = []
    for ps, xs in states:
        pbits, xbits = pnav.bits(ps), xnav.bits(xs)
        kids = [(pnav.step(ps, b), xnav.step(xs, b)) for b in pbits if b in xbits]
        for t in kids:
            if t not in index:
                index[t] = len(states)
                states.append(t)
        weight = HALF if len(pbits) == 2 else Fraction(1)
        table.append((weight, tuple(index[t] for t in kids), len(kids) < len(pbits)))
    return states, table


def _dense_values(table):
    """Reference: the greatest fixpoint by repeated scans, then one dense
    solve of the whole system over every state outside it."""
    full = set(range(len(table)))
    changed = True
    while changed:
        changed = False
        for i in list(full):
            _, kids, leaks = table[i]
            if leaks or any(t not in full for t in kids):
                full.discard(i)
                changed = True
    variables = [i for i in range(len(table)) if i not in full]
    index = {i: j for j, i in enumerate(variables)}
    matrix = [[Fraction(0)] * len(variables) for _ in variables]
    rhs = [Fraction(0)] * len(variables)
    for i in variables:
        j = index[i]
        matrix[j][j] = Fraction(1)
        w, kids, _ = table[i]
        for child in kids:
            if child in full:
                rhs[j] += w
            else:
                matrix[j][index[child]] -= w
    values = dict(zip(variables, _solve_exact(matrix, rhs)))
    return [values.get(i, Fraction(1)) for i in range(len(table))]


def _random_tree(rng, depth=0):
    roll = rng.random()
    if roll < 0.35 or depth == 2:
        k = rng.choice((1, 2, 3))
        blocks = rng.sample(list(all_words(k)), rng.randint(1, 2**k))
        return BlockTree(k, frozenset(blocks))
    if roll < 0.6:
        period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))) + (-1,)
        return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))), period)
    if roll < 0.8:
        return product(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1))
    base = _random_tree(rng, depth + 1)
    return Subtree(base, rng.choice(list(node_words(base, 3))))


def _random_pair(rng):
    """A random finite-state P and X; X is a relative cylinder of P in
    about a third of the draws, so that traces strictly between 0 and 1
    come up."""
    P = _random_tree(rng)
    X = Subtree(P, rng.choice(list(node_words(P, 4)))) if rng.random() < 0.3 else _random_tree(rng)
    return P, X


def _random_pairs():
    """150 seeded draws of _random_pair with at most 80 product states,
    with their product tables."""
    rng = random.Random(2016)
    for _ in range(150):
        P, X = _random_pair(rng)
        states, table = _product_table(P, X)
        if len(states) <= 80:
            yield P, X, states, table


def test_trace_exact_matches_dense_solve():
    kinds = set()
    for P, X, _, table in _random_pairs():
        dense = _dense_values(table)
        assert _solve_trace(table) == dense, (P, X)
        value = trace_exact(P, X).exact
        assert value == dense[0]
        kinds.add(value if value in (0, 1) else "between")
    assert kinds == {0, 1, "between"}


@dataclass(frozen=True)
class _TableTree(TreePresentation):
    """A tree given by its transition table, from state "a"."""

    table: tuple

    def _compile(self):
        return TableNavigator.from_mapping("a", dict(self.table))


def test_solve_trace_cyclic_component(monkeypatch):
    # X = 0^ω ∪ 0^n 11 {0,1}^ω inside FULL: X-state a reads 0 to a and 1
    # to c, c reads only 1, to f, below which X is full.  value(c) = 1/2,
    # value(a) = (value(a) + value(c)) / 2 = 1/2.  By id: a 0, c 1, f 2.
    table = [(HALF, (0, 1), False), (HALF, (2,), True), (HALF, (2, 2), False)]
    rows = []
    monkeypatch.setattr(measure, "_solve_exact", lambda m, r: rows.append(len(r)) or _solve_exact(m, r))
    assert _solve_trace(table) == [HALF, HALF, 1]
    assert rows == [1]  # only the cyclic component {a} goes to the dense solve

    # the same X as a navigator, and a two-state cycle: b reads only 0
    # back to a, so value(a) = (value(a)/2 + 1/2) / 2 = 1/3
    x = {"a": {0: "a", 1: "c"}, "c": {1: "f"}, "f": {0: "f", 1: "f"}}
    assert trace_exact(FULL, _TableTree(tuple(x.items()))).exact == HALF
    x["a"] = {0: "b", 1: "c"}
    x["b"] = {0: "a"}
    rows.clear()
    assert trace_exact(FULL, _TableTree(tuple(x.items()))).exact == Fraction(1, 3)
    assert rows == [2]


def test_trace_exact_roadmap_cases():
    PJ = make_named("PJ").presentation
    P, X = product(Q, Q), product(PJ, PJ)
    assert len(_product_table(P, X)[0]) == 571
    assert trace_exact(P, X).exact == trace_exact(Q, PJ).exact ** 2
    P, X = product(product(Q, Q), FULL), product(product(E, Q), PJ)
    assert len(_product_table(P, X)[0]) == 7039
    parts = trace_exact(Q, E).exact * trace_exact(Q, Q).exact * trace_exact(FULL, PJ).exact
    assert trace_exact(P, X).exact == parts


def _reference_hull_masses(P, X, depth):
    """The hull masses as first written: a Fraction mass per product state,
    walked level by level through both navigators."""
    pnav, xnav = P.navigator(), X.navigator()
    dist = {(pnav.initial, xnav.initial): Fraction(1)}
    out = [Fraction(1)]
    for _ in range(depth):
        nxt = {}
        for (ps, xs), mass in dist.items():
            bs = pnav.bits(ps)
            share = mass / 2 if len(bs) == 2 else mass
            for b in bs:
                if b in xnav.bits(xs):
                    key = (pnav.step(ps, b), xnav.step(xs, b))
                    nxt[key] = nxt.get(key, 0) + share
        dist = nxt
        out.append(sum(dist.values(), Fraction(0)))
    return out


def test_hull_masses_match_the_fraction_walk():
    for P, X, _, _ in _random_pairs():
        reference = _reference_hull_masses(P, X, 30)
        for d in range(31):
            assert trace_upper(P, X, d).upper_bounds == tuple(reference[: d + 1]), (P, X, d)
        assert trace_exact(P, X).upper_bounds == tuple(reference[:9]), (P, X)
    for P, X in [(E, BST), (U, BST), (BST, E), (BST, Q), (BST, BST), (product(BST, U), E)]:
        assert trace_upper(P, X, 24).upper_bounds == tuple(_reference_hull_masses(P, X, 24))


def test_trace_exact_steps_each_product_state_once(monkeypatch):
    calls = Counter()
    original = measure._product_step

    def counting(pnav, xnav, ps, xs):
        calls[(ps, xs)] += 1
        return original(pnav, xnav, ps, xs)

    monkeypatch.setattr(measure, "_product_step", counting)
    PJ = make_named("PJ").presentation
    pairs = [(Q, E), (Q, PJ), (product(Q, Q), product(PJ, PJ)), (E, Subtree(E, BinWord((0,))))]
    pairs += [(P, X) for P, X, _, _ in _random_pairs()][:20]
    for P, X in pairs:
        calls.clear()
        trace_exact(P, X)
        assert calls == Counter(_product_table(P, X)[0]), (P, X)


class _CountingNavigator(Navigator):
    """Another navigator's transitions, counting every read of a state's
    row."""

    def __init__(self, nav):
        self.nav, self.reads = nav, Counter()
        self.initial, self.finite, self.horizon = nav.initial, nav.finite, nav.horizon

    def row(self, state):
        self.reads[state] += 1
        return self.nav.row(state)


class _Counted(TreePresentation):
    def __init__(self, tree):
        self._nav = _CountingNavigator(tree.navigator())


def test_trace_exact_reads_each_navigator_row_once(monkeypatch):
    PJ = make_named("PJ").presentation
    pairs = [(Q, E), (Q, PJ), (product(Q, Q), product(PJ, PJ)), (E, Subtree(E, BinWord((0,))))]
    pairs += [(P, X) for P, X, _, _ in _random_pairs()][:20]
    # a side that is not a table is tabulated first: one read of each
    # reachable state's row
    for P, X in pairs:
        cp, cx = _Counted(P), _Counted(X)
        assert trace_exact(cp, cx) == trace_exact(P, X)
        for tree, nav in ((P, cp._nav), (X, cx._nav)):
            assert max(nav.reads.values()) == 1, (P, X)
            assert set(nav.reads) == set(_reachable(tree.navigator())), (P, X)
    # two tables are read through their rows alone, never bits or step

    def unread(self, *args):
        raise AssertionError("a navigator's bits or step was called")

    monkeypatch.setattr(Navigator, "bits", unread)
    monkeypatch.setattr(Navigator, "step", unread)
    for P, X in pairs:
        assert P.navigator().rows is not None and X.navigator().rows is not None
        trace_exact(P, X)


def _reachable(nav):
    """The states of a navigator reachable from its initial state."""
    seen, todo = {nav.initial}, [nav.initial]
    while todo:
        s = todo.pop()
        for t in nav.row(s):
            if t is not None and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_trace_exact_state_cap(monkeypatch):
    PJ = make_named("PJ").presentation
    P, X = product(product(Q, Q), FULL), product(product(E, Q), PJ)
    monkeypatch.setattr(measure, "_MAX_PRODUCT_STATES", 7000)
    with pytest.raises(CapExceeded, match=r"trace-exact: product states > 7000"):
        trace_exact(P, X)
    # a table of 571 states stays under the cap
    assert trace_exact(product(Q, Q), product(PJ, PJ)).exact == trace_exact(Q, PJ).exact ** 2


def test_lemma1_pair_cap(monkeypatch):
    # FULL leaves no window to escape through, so every pair below the root
    # is windowless: the 2063-state PJ x PJ is searched in full, then fails
    PJ = make_named("PJ").presentation
    P = product(PJ, PJ)
    with pytest.raises(WitnessNotFound):
        lemma1_refine(P, FULL, 1, 1)
    monkeypatch.setattr(measure, "_MAX_PRODUCT_STATES", 1000)
    with pytest.raises(CapExceeded, match=r"lemma1: product states > 1000"):
        lemma1_refine(P, FULL, 1, 1)
    # a refinement under the cap is unchanged
    assert lemma1_refine(FULL, U, 2, 6).bound == Fraction(729, 4096)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_every_hull_bound_is_at_least_the_exact_trace(rng):
    P, X = _random_pair(rng)
    exact = trace_exact(P, X).exact
    assert all(bound >= exact for bound in trace_upper(P, X, 24).upper_bounds)


def test_product_measure_identity():
    for wp in all_words(3):
        for wq in all_words(3):
            v = interleave(wp, wq)
            got = product_measure(product(E, U), v)
            assert got == mu_cylinder(E, wp) * mu_cylinder(U, wq)


def test_product_measure_rejects_odd_words():
    with pytest.raises(ValueError):
        product_measure(product(E, U), BinWord((0,)))


def test_lemma1_full_U_exact_geometric():
    for m in (1, 2, 4):
        cert = lemma1_refine(FULL, U, 2, m)
        assert cert.bound == Fraction(3, 4) ** m
        assert cert.witness_param == 2
        assert cert.rounds == m
        result = check_certificate(cert.serialize())
        assert result.ok, result.messages
        assert result.recomputed_bound == cert.bound


def test_lemma1_explicit_cover_matches_aggregation():
    cert = lemma1_refine(FULL, U, 2, 3)
    assert cert.cover is not None
    assert len(cert.cover) == 27
    total = sum(Fraction(1, 2**lvl) for _, lvl in cert.cover)
    assert total == cert.bound
    # every cover node really is a node at its stated level
    for w, lvl in cert.cover:
        assert level(FULL, w) == lvl


def test_lemma1_explicit_cover_agrees_with_levels_and_cap():
    cases = [(FULL, U, 2, 4), (E, U, 1, 4), (E, BST, 3, 3), (Q, U, 2, 3),
             (Q, BST, 2, 3), (product(E, U), product(U, E), 2, 2)]
    for P, X, k, rounds in cases:
        cert = lemma1_refine(P, X, k, rounds)
        assert cert.cover is not None
        counts = {}
        for _, lvl in cert.cover:
            counts[lvl] = counts.get(lvl, 0) + 1
        assert tuple(sorted(counts.items())) == cert.cover_levels
        # a cap crossed in the last round or an early one drops only the
        # explicit nodes, never the level counts or the bound
        for cap in (len(cert.cover) - 1, 1):
            capped = lemma1_refine(P, X, k, rounds, node_cap=cap)
            assert capped.cover is None
            assert (capped.cover_levels, capped.bound) == (cert.cover_levels, cert.bound)
    # E in the staircase with k 2 has 1, 2, 4, 2 cover nodes after rounds
    # 0 to 3: a cap of 3 is crossed in round 2 only, and still drops them
    cert = lemma1_refine(E, BST, 2, 3)
    assert len(cert.cover) == 2
    capped = lemma1_refine(E, BST, 2, 3, node_cap=3)
    assert capped.cover is None
    assert (capped.cover_levels, capped.bound) == (cert.cover_levels, cert.bound)


def test_lemma1_node_cap_bounds_explicit_words(monkeypatch):
    # round 2 has 1,114,624 cover nodes in a handful of classes; none of
    # them may be built as explicit words only to be dropped at node_cap
    built = 0

    class CountingBinWord(BinWord):
        def __post_init__(self):
            nonlocal built
            built += 1
            super().__post_init__()

    monkeypatch.setattr(measure, "BinWord", CountingBinWord)
    X = product(SilverTree((), (-1,)), product(
        BlockTree(1, frozenset(parse_words(["0", "1"]))),
        BlockTree(3, frozenset(parse_words(["000", "010", "100"]))),
    ))
    cert = lemma1_refine(FULL, X, 1, 2)
    assert built < 20000
    assert cert.cover is None
    assert cert.cover_levels == ((12, 512), (20, 65536), (24, 1048576))
    assert cert.bound == Fraction(1, 4)


def test_lemma1_E_staircase():
    for m in (1, 2, 3):
        cert = lemma1_refine(E, BST, 3, m)
        assert cert.bound <= Fraction(7, 8) ** m
        result = check_certificate(cert.serialize())
        assert result.ok, result.messages


def test_lemma1_replay_log_tracks_rounds():
    cert = lemma1_refine(FULL, U, 2, 3)
    assert len(cert.replay_log) == 4
    assert cert.replay_log[0].startswith("round 0")
    assert "bound 27/64" in cert.replay_log[-1]


def test_lemma1_witness_not_found_when_trace_positive():
    with pytest.raises(WitnessNotFound):
        lemma1_refine(FULL, FULL, 2, 1)
    # one round can still escape at the root, the second round cannot
    cert = lemma1_refine(E, Subtree(E, BinWord((0,))), 1, 1)
    assert cert.bound == Fraction(1, 2)
    with pytest.raises(WitnessNotFound):
        lemma1_refine(E, Subtree(E, BinWord((0,))), 1, 2)
    # E's splitting states form a cycle without windows: the search below
    # the root could never end
    with pytest.raises(WitnessNotFound, match="^no escape window below ε$"):
        lemma1_refine(E, FULL, 1, 2)


@pytest.mark.parametrize("X", [FULL, BST])
def test_lemma1_infinite_windowless_search_stops_at_its_caps(X):
    # no window from a staircase node leaves X, and the staircase's states
    # never repeat: only the depth cap ends the search
    with pytest.raises(WitnessNotFound, match="^no escape window below ε$"):
        lemma1_refine(BST, X, 1, 1)


def test_lemma1_search_caps_bound_acyclic_windowless_pairs():
    # the windowless pairs of this X sit at depths 0 and 1 only: no cycle,
    # so the search ends, unless its depth cap is below them
    X = SilverTree((-1, -1, 0), (-1,))
    assert lemma1_refine(FULL, X, 1, 1).bound == Fraction(1, 2)
    with pytest.raises(WitnessNotFound):
        lemma1_refine(FULL, X, 1, 1, max_search_depth=1)


def test_lemma1_search_depth_cap_fires_past_the_stated_depth():
    # below the root this X only splits: the first window that leaves it
    # is five bits down, found at search depth 5 and not at 4
    X = parse_tree_expr("silver[-1 -1 -1 -1 -1]repeat[0 -1]")
    assert lemma1_refine(FULL, X, 1, 1, max_search_depth=5).bound == Fraction(1, 2)
    with pytest.raises(WitnessNotFound):
        lemma1_refine(FULL, X, 1, 1, max_search_depth=4)


def test_lemma1_builds_no_binword_per_round(monkeypatch):
    # the rounds keep representatives as bit tuples; a BinWord is built
    # only for a failure's word and for the explicit cover, which node_cap 0
    # leaves out, so the count does not grow with the rounds
    built = 0
    check = BinWord.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(BinWord, "__post_init__", counting)
    counts = []
    for rounds in (10, 40, 160):
        built = 0
        assert lemma1_refine(FULL, U, 1, rounds, node_cap=0).cover is None
        counts.append(built)
    assert counts[0] == counts[1] == counts[2], counts


def test_lemma1_cover_level_cap(monkeypatch):
    # U in FULL gains two levels a round at k = 1, so its cover levels pass
    # the exponent cap before k * rounds does
    monkeypatch.setattr(measure, "_MAX_EXPONENT", 5)
    assert lemma1_refine(FULL, U, 1, 2).cover_levels == ((4, 4),)
    with pytest.raises(CapExceeded, match=r"lemma1: cover level 6 > 5"):
        lemma1_refine(FULL, U, 1, 3)
    with pytest.raises(CapExceeded, match=r"lemma1: k \* rounds = 6 > 5"):
        lemma1_refine(FULL, U, 2, 3)


def _reference_lemma1(P, X, k, rounds, max_search_depth=48, node_cap=20000):
    """lemma1_refine as it was with a window cache and a step cache per
    pair: the search collects (relative word, escape window) pairs, and
    each class's children re-walk them afterwards."""
    if k < 1:
        raise ValueError("window length k must be at least 1")
    pnav, xnav = P.navigator(), X.navigator()
    windows = [w.bits for w in all_words(k)]

    def x_walk(x, bits):
        end = None if x is None else walk(xnav, bits, x)
        return None if end is None else end[0]

    window_of, steps_of, children_of = {}, {}, {}

    def escape_window(p, x):
        if (p, x) not in window_of:
            window_of[(p, x)] = next(
                (wb for wb in windows if walk(pnav, wb, p) is not None and x_walk(x, wb) is None),
                None,
            )
        return window_of[(p, x)]

    def pair_steps(p, x):
        if (p, x) not in steps_of:
            steps_of[(p, x)] = [(b, pnav.step(p, b), x_walk(x, (b,))) for b in pnav.bits(p)]
        return steps_of[(p, x)]

    def windowless_kids(pair):
        return [(p, x) for _, p, x in pair_steps(*pair) if escape_window(p, x) is None]

    def windowless_cycle(ps, xs):
        if not (pnav.finite and xnav.finite) or escape_window(ps, xs) is not None:
            return False
        return any(
            len(comp) > 1 or comp[0] in windowless_kids(comp[0])
            for comp in _components([(ps, xs)], windowless_kids)
        )

    def refine_pattern(ps, xs):
        if windowless_cycle(ps, xs):
            raise WitnessNotFound(None)
        out = []
        frontier = [((), ps, xs)]
        explored = 0
        while frontier:
            nxt = []
            for rel, p, x in frontier:
                explored += 1
                if len(rel) > max_search_depth or explored > 50_000:
                    raise WitnessNotFound(None)
                window = escape_window(p, x)
                if window is not None:
                    out.append((rel, window))
                else:
                    for b, p_child, x_child in pair_steps(p, x):
                        nxt.append((rel + (b,), p_child, x_child))
            frontier = nxt
        out.sort()
        return out

    def class_children(ps, xs):
        if (ps, xs) not in children_of:
            out = []
            for rel, window in refine_pattern(ps, xs):
                mid_p, mid_gain = walk(pnav, rel, ps)
                mid_x = x_walk(xs, rel)
                for wb in windows:
                    walked = None if wb == window else walk(pnav, wb, mid_p)
                    if walked is not None:
                        end_p, wgain = walked
                        out.append((rel + wb, end_p, x_walk(mid_x, wb), mid_gain + wgain))
            children_of[(ps, xs)] = out
        return children_of[(ps, xs)]

    p0, x0 = pnav.initial, xnav.initial
    cover = {(p0, x0, 0): [1, BinWord(())]}
    totals = []

    def cover_bound(cov):
        return sum((Fraction(cnt, 2**lvl) for (_, _, lvl), (cnt, _) in cov.items()), Fraction(0))

    log = [f"round 0: cover 1 bound {cover_bound(cover)}"]
    for r in range(rounds):
        new_cover = {}
        for (ps, xs, lvl), (cnt, rep) in sorted(cover.items(), key=lambda item: str(item[1][1])):
            try:
                kids = class_children(ps, xs)
            except WitnessNotFound:
                raise WitnessNotFound(rep) from None
            for suffix, end_p, end_x, gain in kids:
                key = (end_p, end_x, lvl + gain)
                rep_word = BinWord(rep.bits + suffix)
                if key not in new_cover:
                    new_cover[key] = [cnt, rep_word]
                else:
                    new_cover[key][0] += cnt
                    new_cover[key][1] = min(new_cover[key][1], rep_word)
        cover = new_cover
        totals.append(sum(cnt for cnt, _ in cover.values()))
        log.append(f"round {r + 1}: cover {totals[-1]} bound {cover_bound(cover)}")
    bound = cover_bound(cover)
    ceiling = Fraction(2**k - 1, 2**k) ** rounds
    if bound > ceiling:
        raise IntegrityError(
            f"refined bound {bound} exceeds ((2^k-1)/2^k)^m = {ceiling}"
        )
    levels = {}
    for (_, _, lvl), (cnt, _) in cover.items():
        levels[lvl] = levels.get(lvl, 0) + cnt
    nodes = None
    if all(total <= node_cap for total in totals):
        explicit = [((), p0, x0, 0)]
        for _ in range(rounds):
            explicit = [
                (word + suffix, end_p, end_x, lvl + gain)
                for word, ps, xs, lvl in explicit
                for suffix, end_p, end_x, gain in class_children(ps, xs)
            ]
        nodes = tuple(sorted((BinWord(word), lvl) for word, _, _, lvl in explicit))
    return BoundCertificate(rounds, k, nodes, tuple(sorted(levels.items())), bound,
                            tuple(log), to_dsl(P), to_dsl(X))


def _random_lemma1_tree(rng, depth=0):
    roll = rng.random()
    if roll < 0.15:
        d = rng.randint(2, 6)
        frontier = {tuple(rng.randint(0, 1) for _ in range(d)) for _ in range(rng.randint(1, 12))}
        return ExplicitTree(d, frozenset(BinWord(w) for w in frontier))
    if roll < 0.2:
        return BST
    if roll < 0.25:
        return FULL
    if roll < 0.45 or depth == 2:
        k = rng.choice((1, 2, 3))
        return BlockTree(k, frozenset(rng.sample(list(all_words(k)), rng.randint(1, 2**k))))
    if roll < 0.6:
        period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))) + (-1,)
        return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))), period)
    if roll < 0.8:
        return product(_random_lemma1_tree(rng, depth + 1), _random_lemma1_tree(rng, depth + 1))
    base = _random_lemma1_tree(rng, depth + 1)
    return Subtree(base, rng.choice(list(node_words(base, 2))))


def _outcome(refine, P, X, k, rounds, node_cap):
    try:
        cert = refine(P, X, k, rounds, node_cap=node_cap)
    except CantorMeasureError as exc:
        return type(exc).__name__, str(exc)
    return cert.serialize(), cert.replay_log


def test_lemma1_matches_per_pattern_reference():
    # on explicit trees the order of the walks decides whether a query
    # fails past the horizon or without a witness, so both must occur
    rng = random.Random(1998)
    kinds = set()
    for _ in range(600):
        P, X = _random_lemma1_tree(rng), _random_lemma1_tree(rng)
        if rng.random() < 0.2:
            X = Subtree(P, rng.choice(list(node_words(P, 2))))
        k, rounds, cap = rng.randint(1, 3), rng.randint(0, 3), rng.choice((3, 20000))
        got = _outcome(lemma1_refine, P, X, k, rounds, cap)
        assert got == _outcome(_reference_lemma1, P, X, k, rounds, cap), (P, X, k, rounds, cap)
        kinds.add(got[0] if got[0] in ("HorizonExceeded", "WitnessNotFound") else "certificate")
    assert kinds == {"HorizonExceeded", "WitnessNotFound", "certificate"}


def test_lemma1_silver_tree_traced():
    S = SilverTree((), (-1, 0))
    cert = lemma1_refine(FULL, S, 2, 4)
    assert cert.bound <= Fraction(3, 4) ** 4
    assert check_certificate(cert.serialize()).ok


def test_certcheck_rejects_tampering():
    cert = lemma1_refine(FULL, U, 2, 2)
    text = cert.serialize()
    bad = text.replace("bound 9/16", "bound 1/16")
    result = check_certificate(bad)
    assert not result.ok
    assert any("disagrees" in m for m in result.messages)

    bad_level = text.replace(":4\n", ":3\n", 1)
    result = check_certificate(bad_level)
    assert not result.ok

    result = check_certificate("certificate lemma1 v1\nend\n")
    assert not result.ok
    result = check_certificate("not a certificate")
    assert not result.ok
