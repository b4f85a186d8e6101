"""Exact canonical-measure computation.

All values are fractions in lowest terms; no floating point appears on any
measure path.  Cylinder measures follow the halving law at branching
points; traced measures of one closed set inside another come either as
decreasing depth-bounded clopen hulls or as an exact solve on the product
automaton.  Every walk reads navigator rows: cylinders and lemma1's
windows through `trees.walk`, and both traces through one step function
over the rows of the two navigators.  The exact solve runs on two tables,
whose states are integers already; it numbers the (P-state, X-state) pairs
it finds 0, 1, 2, ... and works on those ids from then on, and the
numbering belongs to the one call.  It first settles every state it can
without arithmetic: value 1 where all of P stays inside X forever (Prob1)
and 0 where no such state is reachable (Prob0).  It then solves the
remaining states component by component in reverse topological order, by
back-substitution, and with a dense rational solve only inside a cyclic
component.  The exact value is checked against the first hull bounds,
which are read off the same product table without another navigator walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .certcheck import _MAX_EXPONENT
from .errors import (
    CapExceeded,
    IntegrityError,
    UnsupportedPresentation,
    WitnessNotFound,
)
from .trees import (
    _MAX_PRODUCT_STATES,
    ProductTree,
    Row,
    TreePresentation,
    ancestors,
    tabulate,
    walk,
)
from .words import BinWord, NatWord, all_words, deinterleave

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Cylinders and clopen sets


def mu_cylinder(P: TreePresentation, w: BinWord) -> Fraction:
    """Canonical measure of the cylinder of w: 1/2^level, or 0 when the
    cylinder misses the tree entirely."""
    nav = P.navigator()
    end = walk(nav, w.bits, nav.initial)
    return ZERO if end is None else Fraction(1, 2 ** end[1])


def mu_clopen(P: TreePresentation, ws) -> Fraction:
    """Measure of a finite union of cylinders after prefix-disjointification."""
    uniq = sorted(set(ws))
    kept: List[BinWord] = []
    for w in uniq:
        if not any(p.is_prefix_of(w) for p in kept if len(p) < len(w)):
            kept.append(w)
    return sum((mu_cylinder(P, w) for w in kept), ZERO)


def baire_measure(w: NatWord) -> Fraction:
    """The natural product measure of a cylinder in Baire space."""
    out = ONE
    for e in w.entries:
        out *= Fraction(1, 2 ** (e + 1))
    return out


# ---------------------------------------------------------------------------
# Traced measures


@dataclass(frozen=True)
class TraceResult:
    exact: Optional[Fraction]
    upper_bounds: Tuple[Fraction, ...]
    method: str  # "exact-solve" | "depth-bounded"

    def __post_init__(self) -> None:
        for a, b in zip(self.upper_bounds, self.upper_bounds[1:]):
            if b > a:
                raise IntegrityError("trace upper bounds must be decreasing")
        if self.exact is not None and any(self.exact > u for u in self.upper_bounds):
            raise IntegrityError("exact trace value exceeds an upper bound")


ProductState = Tuple[object, object]
Step = Tuple[Fraction, Tuple, bool]  # (weight, children, leaks)


def _product_step(prow: Callable[[object], Row], xrow: Callable[[object], Row], p, x) -> Step:
    """One step of the product automaton from a pair of a P-state and an
    X-state, read off the two navigators' rows: the weight of each child
    (1/2 at a P-split, else 1), the child pairs that stay inside X, and
    whether some P-child leaves X."""
    (p0, p1), (x0, x1) = prow(p), xrow(x)
    kids: Tuple = ()
    if p0 is not None and x0 is not None:
        kids = ((p0, x0),)
    if p1 is not None and x1 is not None:
        kids += ((p1, x1),)
    in_p = (p0 is not None) + (p1 is not None)
    return (HALF if in_p == 2 else ONE), kids, len(kids) < in_p


def _hull_masses(step_of: Callable[[object], Step], start, depth: int) -> List[Fraction]:
    """Mass of the depth-d clopen hull of X within P for d = 0..depth, from
    the product step of each state.  A state's mass at depth d is kept as
    an integer numerator over 2^d: a child gets the numerator at a P-split
    (weight 1/2) and twice it elsewhere."""
    dist: Dict[object, int] = {start: 1}
    out = [ONE]
    for d in range(1, depth + 1):
        nxt: Dict[object, int] = {}
        for st, n in dist.items():
            w, kids, _ = step_of(st)
            share = 2 * n // w.denominator  # w is 1/2 or 1
            for key in kids:
                nxt[key] = nxt.get(key, 0) + share
        dist = nxt
        out.append(Fraction(sum(dist.values()), 2**d))
    return out


def trace_upper(P: TreePresentation, X: TreePresentation, depth: int) -> TraceResult:
    """Decreasing clopen-hull upper bounds for the measure of X inside P."""
    if depth > _MAX_EXPONENT:
        raise CapExceeded(f"trace: depth {depth} > {_MAX_EXPONENT}")
    pnav, xnav = P.navigator(), X.navigator()
    prow, xrow = pnav.row, xnav.row
    start = (pnav.initial, xnav.initial)
    masses = _hull_masses(lambda st: _product_step(prow, xrow, *st), start, depth)
    return TraceResult(None, tuple(masses), "depth-bounded")


def default_trace_depth(P: TreePresentation, X: TreePresentation) -> int:
    """Enough rounds of the joint period to expose geometric decay."""
    return min(60, max(24, 3 * math.lcm(P.period_hint(), X.period_hint())))


def trace_exact(P: TreePresentation, X: TreePresentation) -> TraceResult:
    """Exact measure of X inside P by a solve on the product automaton.

    Both sides are tables (`trees.tabulate` reads the rows of a side that
    is not, once per state).  A breadth-first search over their rows numbers
    every reachable (P-state, X-state) pair 0, 1, 2, ... as it finds it, and
    tabulates each pair's step over these ids; the numbering is dropped
    when the call returns.  States from which every branch of P stays
    inside the tree of X retain full mass (Prob1, value 1); states that
    cannot reach them have value 0 (Prob0); the rest are solved exactly over
    the rationals, one strongly connected component at a time in reverse
    topological order (`_solve_trace`).  The eight hull bounds that
    `TraceResult` checks the value against are read off the same table from
    id 0: it holds every state the hull walk reaches.  Raises CapExceeded
    past _MAX_PRODUCT_STATES states of a side or pairs.
    """
    pnav, xnav = P.navigator(), X.navigator()
    if not (pnav.finite and xnav.finite):
        raise UnsupportedPresentation(
            "trace_exact needs finite-state presentations on both sides"
        )
    pnav, xnav = tabulate(pnav, _MAX_PRODUCT_STATES), tabulate(xnav, _MAX_PRODUCT_STATES)
    if pnav is None or xnav is None:
        raise CapExceeded(f"trace-exact: product states > {_MAX_PRODUCT_STATES}")
    prow, xrow = pnav.row, xnav.row
    states = [(0, 0)]
    index = {states[0]: 0}
    table: List[Step] = []
    for st in states:  # breadth-first; the list grows while it is read
        w, kids, leaks = _product_step(prow, xrow, *st)
        ids = []
        for t in kids:
            j = index.setdefault(t, len(states))
            if j == len(states):
                states.append(t)
            ids.append(j)
        table.append((w, tuple(ids), leaks))
        if len(states) > _MAX_PRODUCT_STATES:
            raise CapExceeded(f"trace-exact: product states > {_MAX_PRODUCT_STATES}")
    result = _solve_trace(table)[0]
    bounds = tuple(_hull_masses(table.__getitem__, 0, 8))
    return TraceResult(result, bounds, "exact-solve")


def _solve_trace(table: List[Step]) -> List[Fraction]:
    """The value of every state of a product step table, by id: row i is
    (weight, kid ids, leaks) of state i.

    The value of a state is its weight times the sum of its children's
    values: the contraction system of the trace.  It is solved by the
    qualitative precomputation of probabilistic model checking, then an
    exact solve in strongly connected components, all over the ids:

    - Prob1: the states from which every branch of P stays inside X
      forever, the greatest fixpoint `full`, have value 1.  They are the
      states that cannot reach a leaking one (a P-child outside X): one
      backward search (`trees.ancestors`) over the parent lists.
    - Prob0: a state that cannot reach `full` has value 0, since the
      system has a unique solution and 0 solves its homogeneous part.  One
      backward search from `full` finds the states that can reach it.
    - The states that reach `full` and are not in it are solved component
      by component in reverse topological order (Tarjan), so every child
      outside the component already has its value.  A component of one
      state without a self-loop is one back-substitution; a cyclic
      component is a dense rational solve of its own rows, with the
      values of its outside children on the right-hand side.
    """
    parents: List[List[int]] = [[] for _ in table]
    for i, (_, kids, _) in enumerate(table):
        for t in kids:
            parents[t].append(i)

    # the states with a path into a leaking one: every state but `full`
    below_one = ancestors((i for i, (_, _, leaks) in enumerate(table) if leaks), parents)
    full = [i for i in range(len(table)) if i not in below_one]
    values = [ZERO] * len(table)
    for i in full:
        values[i] = ONE
    unsolved = ancestors(full, parents) & below_one
    for comp in _components(
        sorted(unsolved), lambda i: [t for t in table[i][1] if t in unsolved]
    ):
        w, kids, _ = table[comp[0]]
        if len(comp) == 1 and comp[0] not in kids:
            total = values[kids[0]]
            for t in kids[1:]:
                total += values[t]
            values[comp[0]] = total if w is ONE else w * total
            continue
        index = {i: j for j, i in enumerate(comp)}
        # rows of (I - A) v = c over the component
        matrix = [[ZERO] * len(comp) for _ in comp]
        rhs = [ZERO] * len(comp)
        for i, j in index.items():
            w, kids, _ = table[i]
            matrix[j][j] = ONE
            for t in kids:
                if t in index:
                    matrix[j][index[t]] -= w
                else:
                    rhs[j] += w * values[t]
        for i, v in zip(comp, _solve_exact(matrix, rhs)):
            values[i] = v
    return values


def _components(nodes: List, succ) -> Iterator[List]:
    """Strongly connected components of the graph reachable from nodes,
    each yielded after every component it has an edge into (Tarjan,
    iteratively)."""
    order: Dict[object, int] = {}
    low: Dict[object, int] = {}
    stack: List = []
    on_stack = set()
    for root in nodes:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        path = [(root, iter(succ(root)))]
        while path:
            v, it = path[-1]
            for t in it:
                if t not in order:
                    order[t] = low[t] = len(order)
                    stack.append(t)
                    on_stack.add(t)
                    path.append((t, iter(succ(t))))
                    break
                if t in on_stack:
                    low[v] = min(low[v], order[t])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    comp = []
                    while True:
                        t = stack.pop()
                        on_stack.discard(t)
                        comp.append(t)
                        if t == v:
                            break
                    yield comp


def _solve_exact(matrix: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Gaussian elimination over the rationals."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise IntegrityError("singular trace system; value-1 detection failed")
        a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# Product measure and the natural measure


def product_measure(PQ: ProductTree, v: BinWord) -> Fraction:
    """Measure of a cylinder of the product tree PQ, computed two
    independent ways: directly in PQ, and as the product of the cylinder
    measures of v's two deinterleaved halves in its factors.

    Raises IntegrityError if the two disagree.
    """
    if len(v) % 2 != 0:
        raise ValueError("product cylinder words must have even length")
    direct = mu_cylinder(PQ, v)
    wp, wq = deinterleave(v)
    split = mu_cylinder(PQ.left, wp) * mu_cylinder(PQ.right, wq)
    if direct != split:
        raise IntegrityError(
            f"product measure mismatch at {v}: {direct} vs {split}"
        )
    return direct


# ---------------------------------------------------------------------------
# Refinement certificates


@dataclass(frozen=True)
class BoundCertificate:
    """A finite cylinder cover of a trace together with its exact bound.

    cover holds the explicit (node, level) pairs, or None when some round's
    cover had more than lemma1_refine's node_cap nodes; the level-count
    aggregation is always present and determines the bound.
    """

    rounds: int
    witness_param: int
    cover: Optional[Tuple[Tuple[BinWord, int], ...]]
    cover_levels: Tuple[Tuple[int, int], ...]
    bound: Fraction
    replay_log: Tuple[str, ...]
    tree: str
    trace_of: str

    def serialize(self) -> str:
        lines = [
            "certificate lemma1 v1",
            f"p {self.tree}",
            f"x {self.trace_of}",
            f"k {self.witness_param}",
            f"rounds {self.rounds}",
        ]
        if self.cover is not None:
            lines.append("mode nodes")
            for w, lvl in self.cover:
                lines.append(f"cover {w}:{lvl}")
        else:
            lines.append("mode levels")
            for lvl, cnt in self.cover_levels:
                lines.append(f"agg {lvl}:{cnt}")
        lines.append(f"bound {self.bound}")
        lines.append("end")
        return "\n".join(lines) + "\n"


# lemma1_refine walks all 2^k windows of length k from every pair it
# meets: `lemma1 U in FULL k 16 rounds 1` takes 0.8 s and 39 MB on a
# 2-core x86-64 VM with Python 3.11.
_MAX_WINDOW = 16


def lemma1_refine(
    P: TreePresentation,
    X: TreePresentation,
    k: int,
    rounds: int,
    max_search_depth: int = 48,
    node_cap: int = 20000,
) -> BoundCertificate:
    """Iterated cover refinement with length-k escape windows.

    Each round replaces every cover cylinder by a finite partition of it
    into cylinders that each admit an escape window w of length k whose
    extension leaves the traced tree; only the at most 2^k - 1
    non-escaping window extensions are kept.  The witness search is
    breadth-first and picks the shallowest escape node, then the
    lexicographically least window, so certificates are deterministic.

    The rounds refine cover classes: (P-state, X-state, level) with a node
    count and the least node word as representative.  Each (P-state,
    X-state) pair is walked once, into one entry: its escape window and
    the cylinders that replace a node with these states.  The explicit
    cover is built once, after the rounds, and only when every round's
    cover has at most node_cap nodes; otherwise the certificate carries
    the level counts alone.

    Raises WitnessNotFound when a reachable cover node has no escape
    window within the search depth, and CapExceeded for k > _MAX_WINDOW,
    for an exponent of 2 past certcheck's _MAX_EXPONENT (k * rounds, or a
    cover level), or once _MAX_PRODUCT_STATES (P-state, X-state) pairs
    have entries.
    """
    if k < 1:
        raise ValueError("window length k must be at least 1")
    if k > _MAX_WINDOW:
        raise CapExceeded(f"lemma1: window length {k} > {_MAX_WINDOW}")
    if k * rounds > _MAX_EXPONENT:
        raise CapExceeded(f"lemma1: k * rounds = {k * rounds} > {_MAX_EXPONENT}")
    pnav, xnav = P.navigator(), X.navigator()
    windows = [w.bits for w in all_words(k)]

    def x_walk(x, bits):
        """The traced tree's state after bits; None once the word has left it."""
        end = None if x is None else walk(xnav, bits, x)
        return None if end is None else end[0]

    # (suffix bits, end P-state, end X-state or None, levels gained)
    Child = Tuple[Tuple[int, ...], object, object, int]
    entries: Dict[ProductState, Tuple[Optional[Tuple[int, ...]], List[Child]]] = {}

    def in_p(p, x, words) -> List[Child]:
        """A child for each of the words that stays in P from these states."""
        out: List[Child] = []
        for wb in words:
            walked = walk(pnav, wb, p)
            if walked is not None:
                out.append((wb, walked[0], x_walk(x, wb), walked[1]))
        return out

    def pair_entry(p, x) -> Tuple[Optional[Tuple[int, ...]], List[Child]]:
        """The pair's escape window, the least window that stays in P and
        leaves X (or None), and the children that replace a node with these
        states: the other windows that stay in P, or without a window its
        one-bit P-children."""
        if (p, x) not in entries:
            if len(entries) >= _MAX_PRODUCT_STATES:
                raise CapExceeded(f"lemma1: product states > {_MAX_PRODUCT_STATES}")
            kids = in_p(p, x, windows)
            window = next((wb for wb, _, end_x, _ in kids if end_x is None), None)
            if window is None:
                kids = in_p(p, x, ((0,), (1,)))
            else:
                kids = [kid for kid in kids if kid[0] != window]
            entries[(p, x)] = (window, kids)
        return entries[(p, x)]

    def windowless_kids(pair: ProductState) -> List[ProductState]:
        return [(p, x) for _, p, x, _ in pair_entry(*pair)[1] if pair_entry(p, x)[0] is None]

    def windowless_cycle(ps, xs) -> bool:
        """Whether the windowless pairs the search below (ps, xs) expands
        contain a cycle: the search then has an infinite path and fails.
        Only finite-state navigators are walked here; the states of an
        infinite one need not repeat, so it is left to the capped search."""
        if not (pnav.finite and xnav.finite) or pair_entry(ps, xs)[0] is not None:
            return False
        return any(
            len(comp) > 1 or comp[0] in windowless_kids(comp[0])
            for comp in _components([(ps, xs)], windowless_kids)
        )

    children_of: Dict[ProductState, List[Child]] = {}

    def class_children(ps, xs) -> List[Child]:
        """The cylinders that replace a cover node with these states: a
        breadth-first search for the shallowest escape nodes below it, each
        replaced by its other windows."""
        key = (ps, xs)
        if key not in children_of:
            if windowless_cycle(ps, xs):
                raise WitnessNotFound(None)
            out: List[Child] = []
            frontier: List[Child] = [((), ps, xs, 0)]
            explored = 0
            while frontier:
                nxt: List[Child] = []
                for rel, p, x, gain in frontier:
                    explored += 1
                    if len(rel) > max_search_depth or explored > 50_000:
                        raise WitnessNotFound(None)
                    window, kids = pair_entry(p, x)
                    into = nxt if window is None else out
                    for bits, end_p, end_x, more in kids:
                        into.append((rel + bits, end_p, end_x, gain + more))
                frontier = nxt
            children_of[key] = out
        return children_of[key]

    # cover classes: (p state, x state or None, level) -> [count, the bits
    # of the representative]; a BinWord is built only for a failure's word
    p0, x0 = pnav.initial, xnav.initial
    cover: Dict[Tuple[object, object, int], List] = {(p0, x0, 0): [1, ()]}
    totals: List[int] = []  # cover nodes after each round
    log: List[str] = []

    def cover_bound(cov) -> Fraction:
        return sum((Fraction(cnt, 2**lvl) for (_, _, lvl), (cnt, _) in cov.items()), ZERO)

    log.append(f"round 0: cover 1 bound {cover_bound(cover)}")

    for r in range(rounds):
        new_cover: Dict[Tuple[object, object, int], List] = {}
        # in the order of the representatives, lexicographic with a prefix first
        for (ps, xs, lvl), (cnt, rep) in sorted(cover.items(), key=lambda item: item[1][1]):
            try:
                kids = class_children(ps, xs)
            except WitnessNotFound:
                raise WitnessNotFound(BinWord(rep)) from None
            for suffix, end_p, end_x, gain in kids:
                key = (end_p, end_x, lvl + gain)
                rep_word = rep + suffix
                entry = new_cover.get(key)
                if entry is None:
                    new_cover[key] = [cnt, rep_word]
                else:
                    entry[0] += cnt
                    if rep_word < entry[1]:
                        entry[1] = rep_word
        cover = new_cover
        top = max((lvl for _, _, lvl in cover), default=0)
        if top > _MAX_EXPONENT:
            raise CapExceeded(f"lemma1: cover level {top} > {_MAX_EXPONENT}")
        totals.append(sum(cnt for cnt, _ in cover.values()))
        log.append(f"round {r + 1}: cover {totals[-1]} bound {cover_bound(cover)}")

    bound = cover_bound(cover)
    ceiling = Fraction(2**k - 1, 2**k) ** rounds
    if bound > ceiling:
        raise IntegrityError(
            f"refined bound {bound} exceeds ((2^k-1)/2^k)^m = {ceiling}"
        )
    levels = Counter()
    for (_, _, lvl), (cnt, _) in cover.items():
        levels[lvl] += cnt
    nodes = None
    if all(total <= node_cap for total in totals):
        # every class's children are cached by now, so this replays the
        # rounds on single nodes without another witness search
        explicit = [((), p0, x0, 0)]
        for _ in range(rounds):
            explicit = [
                (word + suffix, end_p, end_x, lvl + gain)
                for word, ps, xs, lvl in explicit
                for suffix, end_p, end_x, gain in class_children(ps, xs)
            ]
        nodes = tuple(sorted((BinWord(word), lvl) for word, _, _, lvl in explicit))
    return BoundCertificate(
        rounds=rounds,
        witness_param=k,
        cover=nodes,
        cover_levels=tuple(sorted(levels.items())),
        bound=bound,
        replay_log=tuple(log),
        tree=str(P),
        trace_of=str(X),
    )
