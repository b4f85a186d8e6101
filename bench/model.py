"""The benchmark's own finite automata for the presentations it generates.

The generators size their draws with these automata instead of the
program's navigators, so a seed selects the same inputs at every commit,
whatever the program does internally.  The correctness gate also uses
them as an independent oracle: cylinder measures, node counts, and the
cover size and bound of the lemma1 refinement are recomputed here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

# A state maps each allowed bit to the next state.
Trans = Dict[object, Dict[int, object]]


class Auto:
    """A deterministic tree automaton: every reachable state has a child."""

    def __init__(self, initial, trans: Trans):
        self.initial = initial
        self.trans = trans

    def bits(self, state) -> Tuple[int, ...]:
        return tuple(sorted(self.trans[state]))

    def step(self, state, bit: int):
        return self.trans[state].get(bit)

    def walk(self, state, bits: Sequence[int]):
        """(end state, splits passed), or None if the bits leave the tree."""
        gained = 0
        for b in bits:
            row = self.trans[state]
            if b not in row:
                return None
            gained += len(row) == 2
            state = row[b]
        return state, gained


def full_auto() -> Auto:
    return Auto(0, {0: {0: 0, 1: 0}})


def block_auto(k: int, blocks: FrozenSet[str]) -> Auto:
    """Branches whose consecutive length-k blocks lie in the block set."""
    prefixes = {b[:n] for b in blocks for n in range(k)}
    trans: Trans = {}
    for p in prefixes:
        row = {}
        for bit in (0, 1):
            q = p + str(bit)
            if len(q) == k and q in blocks:
                row[bit] = ""
            elif len(q) < k and q in prefixes:
                row[bit] = q
        trans[p] = row
    return Auto("", trans)


def silver_auto(prefix: Sequence[int], period: Sequence[int]) -> Auto:
    """Per-depth entries: -1 splits, 0 or 1 forces that bit."""
    entries = tuple(prefix) + tuple(period)
    trans: Trans = {}
    for n, a in enumerate(entries):
        nxt = n + 1 if n + 1 < len(entries) else len(prefix)
        trans[n] = {0: nxt, 1: nxt} if a == -1 else {a: nxt}
    return Auto(0, trans)


def product_auto(left: Auto, right: Auto) -> Auto:
    """Even positions feed the left automaton, odd positions the right."""
    start = (left.initial, right.initial, 0)
    trans: Trans = {}
    todo = [start]
    while todo:
        s = todo.pop()
        if s in trans:
            continue
        ls, rs, par = s
        row = {}
        if par == 0:
            for b, t in left.trans[ls].items():
                row[b] = (t, rs, 1)
        else:
            for b, t in right.trans[rs].items():
                row[b] = (ls, t, 0)
        trans[s] = row
        todo.extend(row.values())
    return Auto(start, trans)


def reachable(a: Auto) -> List[object]:
    seen = {a.initial}
    order = [a.initial]
    for s in order:
        for t in a.trans[s].values():
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def is_perfect(a: Auto) -> bool:
    """Pruned, and every state reaches a branching state."""
    states = reachable(a)
    if any(not a.trans[s] for s in states):
        return False
    good = {s for s in states if len(a.trans[s]) == 2}
    changed = True
    while changed:
        changed = False
        for s in states:
            if s not in good and any(t in good for t in a.trans[s].values()):
                good.add(s)
                changed = True
    return len(good) == len(states)


def cylinder_measure(a: Auto, word: str) -> Fraction:
    state, lvl = a.initial, 0
    for c in word:
        row = a.trans[state]
        if int(c) not in row:
            return Fraction(0)
        lvl += len(row) == 2
        state = row[int(c)]
    return Fraction(1, 2**lvl)


def node_count(a: Auto, depth: int, even_only: bool = False) -> int:
    """Number of node words of length at most depth."""
    level = Counter({a.initial: 1})
    total = 1
    for d in range(1, depth + 1):
        nxt: Counter = Counter()
        for s, c in level.items():
            for t in a.trans[s].values():
                nxt[t] += c
        level = nxt
        if not even_only or d % 2 == 0:
            total += sum(level.values())
    return total


class TraceSystem:
    """The linear system of the exact trace solve of X inside P.

    `rows` is the nonzero pattern of each row as a bitset, one row per
    product state of value below 1, that is, a state from which some branch
    of P leaves X.  States are numbered in breadth-first order with bit 0
    before bit 1, as the program numbers them.  A state has positive value
    if it reaches a state of value 1 (a `full` state).
    """

    def __init__(self, p: Auto, start, index, positive, children):
        self._p, self._start = p, start
        self._index, self._positive, self._children = index, positive, children

    @property
    def rows(self) -> List[int]:
        rows = []
        for st, j in self._index.items():
            row = 1 << j
            for t in self._children[st]:
                if t in self._index:
                    row |= 1 << self._index[t]
            rows.append(row)
        return rows

    def sign(self) -> int:
        """0 for value 0, 1 for value 1, and -1 for a value in between."""
        if self._start not in self._index:
            return 1
        return -1 if self._start in self._positive else 0

    def value(self) -> Optional[Fraction]:
        """The exact trace value.  It is summed over the positive states,
        which in the presentations this benchmark draws form an acyclic
        region before the automata fall into step; None if they do not."""
        sign = self.sign()
        if sign >= 0:
            return Fraction(sign)
        return _trace_value(self._p, self._start, self._index, self._positive, self._children)


def trace_system(p: Auto, x: Auto) -> TraceSystem:
    start = (p.initial, x.initial)
    states = [start]
    preds: Dict[object, list] = {start: []}
    below_one = set()  # states from which some P-branch leaves X
    for st in states:
        ps, xs = st
        xrow = x.trans[xs]
        for b, pt in p.trans[ps].items():
            if b not in xrow:
                below_one.add(st)
                continue
            t = (pt, xrow[b])
            if t not in preds:
                preds[t] = []
                states.append(t)
            preds[t].append(st)
    _close_backwards(below_one, preds)
    index = {st: j for j, st in enumerate(st for st in states if st in below_one)}
    children = {}
    for st in index:
        ps, xs = st
        xrow = x.trans[xs]
        children[st] = [(pt, xrow[b]) for b, pt in p.trans[ps].items() if b in xrow]
    positive = {st for st in index if any(t not in index for t in children[st])}
    _close_backwards(positive, {t: [q for q in preds[t] if q in index] for t in index})
    return TraceSystem(p, start, index, positive, children)


def _close_backwards(marked: set, preds: Dict[object, list]) -> None:
    todo = list(marked)
    while todo:
        for q in preds[todo.pop()]:
            if q not in marked:
                marked.add(q)
                todo.append(q)


def _trace_value(p: Auto, start, below_one, positive, children) -> Optional[Fraction]:
    """Value of a positive start state by one pass in reverse topological
    order over the positive states; None if they contain a cycle."""
    value: Dict[object, Fraction] = {}
    on_path = set()
    stack = [(start, False)]
    while stack:
        st, done = stack.pop()
        if done:
            on_path.discard(st)
            weight = Fraction(1, len(p.trans[st[0]]))
            value[st] = weight * sum(
                (Fraction(1) if t not in below_one else value.get(t, Fraction(0))
                 for t in children[st]), Fraction(0))
            continue
        if st in value:
            continue
        on_path.add(st)
        stack.append((st, True))
        for t in children[st]:
            if t in positive:
                if t in on_path:
                    return None
                if t not in value:
                    stack.append((t, False))
    return value[start]


def elimination_work(rows: List[int], limit: Optional[int] = None) -> int:
    """Row updates of a dense Gauss-Jordan elimination that takes the first
    row with a nonzero pivot, assuming no entry cancels, times the row
    length: about the cost of the program's dense rational solve.  Stops
    early, with a figure above `limit`, once the work passes it."""
    rows = list(rows)
    updates = 0
    max_updates = None if limit is None else limit // (len(rows) + 1)
    for col in range(len(rows)):
        if max_updates is not None and updates > max_updates:
            break
        bit = 1 << col
        pivot = next(r for r in range(col, len(rows)) if rows[r] & bit)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r] & bit:
                rows[r] = (rows[r] | rows[col]) & ~bit
                updates += 1
    return updates * (len(rows) + 1)


class RefineModel:
    """The lemma1 cover refinement, recomputed on the benchmark's automata.

    From each class (P-state, X-state or None, level) a breadth-first search
    finds the shallowest nodes with a length-k escape window (the
    lexicographically least one); every other window extension is kept.
    `explore_cap` is far below the program's own search cap, so a draw the
    model accepts never comes near the program's WitnessNotFound limits.
    """

    def __init__(self, p: Auto, x: Auto, k: int, explore_cap: int = 2000):
        self.p, self.x, self.k = p, x, k
        self.windows = [tuple((i >> (k - 1 - j)) & 1 for j in range(k)) for i in range(2**k)]
        self.explore_cap = explore_cap
        self._patterns: Dict[Tuple[object, object], Optional[list]] = {}

    def _x_walk(self, xs, bits):
        if xs is None:
            return None
        walked = self.x.walk(xs, bits)
        return None if walked is None else walked[0]

    def pattern(self, ps, xs) -> Optional[list]:
        """[(relative word, window)] partitioning the subtree, or None when
        the search exceeds the cap."""
        key = (ps, xs)
        if key not in self._patterns:
            self._patterns[key] = self._search(ps, xs)
        return self._patterns[key]

    def _search(self, ps, xs) -> Optional[list]:
        out = []
        frontier = [((), ps, xs)]
        explored = 0
        while frontier:
            nxt = []
            for rel, p, x in frontier:
                explored += 1
                if explored > self.explore_cap or len(rel) > 40:
                    return None
                window = next(
                    (w for w in self.windows
                     if self.p.walk(p, w) is not None and self._x_walk(x, w) is None),
                    None,
                )
                if window is not None:
                    out.append((rel, window))
                else:
                    for b, pt in sorted(self.p.trans[p].items()):
                        nxt.append((rel + (b,), pt, self._x_walk(x, (b,))))
            frontier = nxt
        return sorted(out)

    def rounds(self) -> Iterator[Optional[Tuple[int, Fraction, int, int]]]:
        """(cover size, bound, sum of squared cover word lengths, classes)
        after each round, without end; None, and no further rounds, when a reached
        class has no pattern within the cap.  Replaying an explicit cover
        costs about the last figure: every node is re-walked per prefix."""
        # class (P-state, X-state, level) -> [count, sum of lengths, sum of squares]
        cover = {(self.p.initial, self.x.initial, 0): [1, 0, 0]}
        while True:
            nxt: Dict[Tuple, List[int]] = {}
            for (ps, xs, lvl), (cnt, s1, s2) in cover.items():
                pattern = self.pattern(ps, xs)
                if pattern is None:
                    yield None
                    return
                for rel, window in pattern:
                    mid_p, mid_gain = self.p.walk(ps, rel)
                    mid_x = self._x_walk(xs, rel)
                    n = len(rel) + self.k
                    for w in self.windows:
                        if w == window:
                            continue
                        walked = self.p.walk(mid_p, w)
                        if walked is None:
                            continue
                        key = (walked[0], self._x_walk(mid_x, w), lvl + mid_gain + walked[1])
                        acc = nxt.setdefault(key, [0, 0, 0])
                        acc[0] += cnt
                        acc[1] += s1 + cnt * n
                        acc[2] += s2 + 2 * n * s1 + cnt * n * n
            cover = nxt
            size = sum(c for c, _, _ in cover.values())
            bound = sum((Fraction(v[0], 2**lvl) for (_, _, lvl), v in cover.items()), Fraction(0))
            yield size, bound, sum(v[2] for v in cover.values()), len(cover)
