"""Finite presentations of closed subtrees of the binary tree.

Every presentation compiles once into a navigator: a deterministic
transition structure whose unrolling is the presented tree.  A navigator
implements one thing, row(state): the state's next state on 0 and on 1,
None for a missing child, and every algorithm reads rows; bits and step
are derived from row once, on the base class.  Every finite presentation
(full, explicit, block-periodic and Silver trees, and the products and
subtrees built from them) compiles to a TableNavigator, one row per
integer state, numbered breadth-first from 0 with every state reachable.
A product of two tables is built from their rows in one breadth-first
pass, and so is a subtree: its stem's forced bits, then the base's rows
reachable from the stem's end.  Only the staircase generates its levels on
demand; products and subtrees over it, and a product whose table would
pass _MAX_PRODUCT_STATES, wrap the navigators of their parts.  Apart from
the staircase and explicit trees, and what is built on them, every
navigator is a finite automaton, so membership, prunedness, perfection
and all measure questions downstream have exact answers.  An explicit
tree's table has no rows at its depth: that is its horizon, and queries
past it fail loudly.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    HorizonExceeded,
    NotANode,
    ParseError,
    PresentationError,
    UnsupportedPresentation,
)
from .words import EMPTY, BinWord


# ---------------------------------------------------------------------------
# Navigators

# A row: (next state on 0, next state on 1), None for a missing child.
Row = Tuple[object, object]

# A product of two tables is compiled to a table of at most this many
# states, and trace_exact's search stops past this many (P-state, X-state)
# pairs.  On a 2-core x86-64 VM with Python 3.11 a trace table of 144,319
# states solves in 1.0-1.3 s at a peak RSS of 117 MB, and a search stopped
# here takes 1.2 s and 108 MB; one of 319,319 states took 2.7 s and 233 MB.
_MAX_PRODUCT_STATES = 200_000


# the children of a row, by (child 0 present) + 2 * (child 1 present)
_BITS = ((), (0,), (1,), (0, 1))


class Navigator:
    """Transition-structure view of a tree; states are hashable.  A
    navigator implements row alone.  horizon is the least depth at which
    row raises HorizonExceeded (None: never); known_perfect marks a tree
    pruned and perfect by construction.  rows is the list of every state's
    row when the navigator is a table over the states 0, 1, ..., n-1, and
    None for one that generates its states on demand."""

    finite = True
    horizon: Optional[int] = None
    known_perfect = False
    rows: Optional[List[Optional[Row]]] = None
    initial: object

    def row(self, state) -> Row:
        """The state's row: (next on 0, next on 1), None for a missing
        child; raises HorizonExceeded at the horizon, and NotANode for a
        state that is not a node."""
        raise NotImplementedError

    def bits(self, state) -> Tuple[int, ...]:
        """The bits of the state's children; raises as row does."""
        zero, one = self.row(state)
        return _BITS[(zero is not None) + 2 * (one is not None)]

    def step(self, state, bit: int):
        """The state's child on bit; None where it has none, and where row
        raises."""
        try:
            return self.row(state)[bit]
        except (HorizonExceeded, NotANode):
            return None


def walk(nav: Navigator, bits: Sequence[int], state) -> Optional[Tuple[object, int]]:
    """Walk bits down from state, one row read per bit; returns (end
    state, branching points passed), or None when the word leaves the
    tree."""
    splits = 0
    for b in bits:
        row = nav.row(state)
        state = row[b]
        if state is None:
            return None
        splits += None not in row
    return state, splits


class TableNavigator(Navigator):
    """A transition table over the states 0, 1, ..., n-1, from state 0:
    rows[s] is the row of state s.  The states are numbered breadth-first
    from 0 and all are reachable (_numbered), which validate relies on.
    With a horizon the rows stop there: a state at the horizon has the row
    None, so row raises HorizonExceeded.  trie_depth is the depth of the
    explicit tree whose horizon that is."""

    initial = 0

    def __init__(
        self,
        rows: List[Optional[Row]],
        horizon: Optional[int] = None,
        trie_depth: Optional[int] = None,
    ):
        self.rows = rows
        self.horizon = horizon
        self.finite = horizon is None
        self.trie_depth = horizon if trie_depth is None else trie_depth

    @classmethod
    def from_mapping(
        cls, initial, trans: Mapping[object, Mapping[int, object]], horizon: Optional[int] = None
    ) -> "TableNavigator":
        """The table of a transition mapping {state: {bit: next state}} from
        initial; a state missing from the mapping has no row."""

        def row_of(s):
            m = trans.get(s)
            return None if m is None else (m.get(0), m.get(1))

        return cls(_numbered(initial, row_of), horizon)

    def row(self, state) -> Row:
        row = self.rows[state]
        if row is None:
            raise HorizonExceeded(
                f"explicit tree of depth {self.trie_depth} queried past its horizon"
            )
        return row


def _numbered(initial, row_of, cap: Optional[int] = None) -> Optional[List[Optional[Row]]]:
    """The rows of the states reachable from initial, renumbered 0, 1, 2,
    ... breadth-first: row_of(state) is the state's row over the old states,
    or None where it has none (where it raises HorizonExceeded too), and is
    called once per state.  None past cap states."""
    states = [initial]
    index = {initial: 0}
    rows: List[Optional[Row]] = []
    for s in states:  # the list grows while it is read
        try:
            row = row_of(s)
        except HorizonExceeded:
            row = None
        if row is not None:
            ids = []
            for t in row:
                if t is not None:
                    j = index.setdefault(t, len(states))
                    if j == len(states):
                        states.append(t)
                    t = j
                ids.append(t)
            row = tuple(ids)
        rows.append(row)
        if cap is not None and len(states) > cap:
            return None
    return rows


def tabulate(nav: Navigator, cap: int) -> Optional[TableNavigator]:
    """A finite-state navigator as a table: itself if it is one, else its
    states reachable from its initial state, each row read once; None past
    cap states."""
    if nav.rows is not None:
        return nav
    rows = _numbered(nav.initial, nav.row, cap)
    return None if rows is None else TableNavigator(rows)


def _product_horizon(left: Navigator, right: Navigator) -> Tuple[Optional[int], object]:
    """A product's horizon, and the side whose horizon it is: the left tree
    feeds depths 0, 2, 4, ..., the right 1, 3, 5, ..."""
    sides = enumerate((left, right))
    ends = [(2 * nav.horizon + i, nav) for i, nav in sides if nav.horizon is not None]
    # no tie: the two ends differ in parity
    return min(ends, key=lambda end: end[0], default=(None, None))


def _product_table(left: TableNavigator, right: TableNavigator) -> Optional[TableNavigator]:
    """The product of two tables, by one breadth-first pass over the states
    (left id, right id, parity), keyed 2 * (left id * n + right id) + parity
    with n the right table's size; None past _MAX_PRODUCT_STATES states."""
    lrows, rrows, n = left.rows, right.rows, len(right.rows)

    def row_of(key):
        lr, parity = divmod(key, 2)
        l, r = divmod(lr, n)
        row = rrows[r] if parity else lrows[l]
        if row is None:
            return None
        if parity:
            return tuple([None if t is None else 2 * (l * n + t) for t in row])
        return tuple([None if t is None else 2 * (t * n + r) + 1 for t in row])

    rows = _numbered(0, row_of, _MAX_PRODUCT_STATES)
    if rows is None:
        return None
    horizon, side = _product_horizon(left, right)
    return TableNavigator(rows, horizon, None if side is None else side.trie_depth)


def _stem_table(stem: Tuple[int, ...], base: TableNavigator, base_state: int) -> TableNavigator:
    """A stem over a table: one state per forced bit, then the base's
    states reachable from base_state, by one breadth-first pass over the
    keys 0..m-1 for the stem's m bits and m + s for the base's state s."""
    m, rows = len(stem), base.rows

    def row_of(key):
        if key < m:
            nxt = key + 1 if key + 1 < m else base_state + m
            return (nxt, None) if stem[key] == 0 else (None, nxt)
        row = rows[key - m]
        return None if row is None else tuple([None if t is None else t + m for t in row])

    return TableNavigator(_numbered(0 if m else base_state, row_of), base.horizon, base.trie_depth)


class ProductNavigator(Navigator):
    """Bits at even positions feed the left tree, odd positions the right.
    Only for a side that is not a table, or a product past the table cap."""

    def __init__(self, left: Navigator, right: Navigator):
        self.left = left
        self.right = right
        self.finite = left.finite and right.finite
        self.horizon = _product_horizon(left, right)[0]
        self.initial = (left.initial, right.initial, 0)

    def row(self, state) -> Row:
        ls, rs, parity = state
        if parity:
            return tuple([None if t is None else (ls, t, 0) for t in self.right.row(rs)])
        return tuple([None if t is None else (t, rs, 1) for t in self.left.row(ls)])


class StemNavigator(Navigator):
    """Forced bits along a stem word, then the base tree from its far end.
    Only for a base that is not a table."""

    def __init__(self, stem: Tuple[int, ...], base: Navigator, base_state):
        self.stem = stem
        self.base = base
        self._base_state = base_state
        # a stem keeps the base's nodes comparable with it, at their own depths
        self.finite, self.horizon = base.finite, base.horizon
        self.known_perfect = base.known_perfect
        self.initial = ("stem", 0) if stem else ("base", base_state)

    def row(self, state) -> Row:
        kind, val = state
        if kind == "stem":
            nxt = ("stem", val + 1) if val + 1 < len(self.stem) else ("base", self._base_state)
            return (nxt, None) if self.stem[val] == 0 else (None, nxt)
        return tuple([None if t is None else ("base", t) for t in self.base.row(val)])


# ---------------------------------------------------------------------------
# Presentations


class TreePresentation:
    """Base class for tree presentations; immutable after validation.
    str() gives the DSL text."""

    def navigator(self) -> Navigator:
        nav = getattr(self, "_nav", None)
        if nav is None:
            nav = self._compile()
            object.__setattr__(self, "_nav", nav)
        return nav

    def _compile(self) -> Navigator:
        raise NotImplementedError

    def __str__(self) -> str:
        raise PresentationError(f"no DSL form for {type(self).__name__}")

    def period_hint(self) -> int:
        """A period of the tree's shape, for sizing trace depths."""
        return 1


@dataclass(frozen=True)
class FullTree(TreePresentation):
    def _compile(self) -> Navigator:
        return TableNavigator([(0, 0)])

    def __str__(self) -> str:
        return "full"


@dataclass(frozen=True)
class ExplicitTree(TreePresentation):
    depth: int
    frontier: FrozenSet[BinWord]

    def __post_init__(self) -> None:
        if not self.frontier:
            raise PresentationError("explicit frontier must be nonempty")
        if any(len(w) != self.depth for w in self.frontier):
            raise PresentationError(
                f"all frontier words must have the stated depth {self.depth}"
            )

    def _compile(self) -> Navigator:
        # a trie over the node words as bit tuples; the nodes at the depth get no row
        trans: Dict[Tuple[int, ...], Dict[int, Tuple[int, ...]]] = {}
        for w in self.frontier:
            for n in range(self.depth):
                trans.setdefault(w.bits[:n], {})[w.bits[n]] = w.bits[: n + 1]
        return TableNavigator.from_mapping((), trans, horizon=self.depth)

    def __str__(self) -> str:
        return "words{" + " ".join(map(str, sorted(self.frontier))) + "}"

    def period_hint(self) -> int:
        return self.depth


@dataclass(frozen=True)
class BlockTree(TreePresentation):
    """Branches whose consecutive length-k blocks all lie in the block set."""

    k: int
    blocks: FrozenSet[BinWord]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PresentationError("block length must be at least 1")
        if not self.blocks:
            raise PresentationError("block set must be nonempty")
        if any(len(b) != self.k for b in self.blocks):
            raise PresentationError(f"all blocks must have length {self.k}")

    def _compile(self) -> Navigator:
        blocks = {b.bits for b in self.blocks}
        prefixes = {b[:n] for b in blocks for n in range(self.k)}
        trans: Dict[Tuple[int, ...], Dict[int, Tuple[int, ...]]] = {}
        for p in prefixes:
            row: Dict[int, Tuple[int, ...]] = {}
            for bit in (0, 1):
                q = p + (bit,)
                if len(q) == self.k:
                    if q in blocks:
                        row[bit] = ()
                else:
                    if q in prefixes:
                        row[bit] = q
            trans[p] = row
        return TableNavigator.from_mapping((), trans)

    def __str__(self) -> str:
        return f"blocks({self.k}){{{' '.join(map(str, sorted(self.blocks)))}}}"

    def period_hint(self) -> int:
        return self.k


@dataclass(frozen=True)
class SilverTree(TreePresentation):
    """Per-depth entry -1 means split on all branches; 0/1 force that bit.

    The period must contain a -1, which guarantees infinitely many split
    levels and hence perfection.
    """

    prefix: Tuple[int, ...] = ()
    period: Tuple[int, ...] = (-1,)

    def __post_init__(self) -> None:
        if not self.period:
            raise PresentationError("silver period must be nonempty")
        if any(a not in (-1, 0, 1) for a in self.prefix + self.period):
            raise PresentationError("silver entries must lie in {-1,0,1}")
        if -1 not in self.period:
            raise PresentationError("silver period must contain a -1 entry")

    def entry(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def _compile(self) -> Navigator:
        # state n is the entry index; the last entry loops back into the period
        entries = self.prefix + self.period
        rows: List[Optional[Row]] = []
        for n, a in enumerate(entries):
            nxt = n + 1 if n + 1 < len(entries) else len(self.prefix)
            rows.append((nxt if a != 1 else None, nxt if a != 0 else None))
        return TableNavigator(rows)

    def __str__(self) -> str:
        pre, per = (" ".join(map(str, entries)) for entries in (self.prefix, self.period))
        return f"silver[{pre}]repeat[{per}]"

    def period_hint(self) -> int:
        return len(self.prefix) + len(self.period)


class StaircaseNavigator(Navigator):
    """Lazily generated trie for the one-split-per-depth staircase tree.

    At every depth exactly one live node splits: the one whose path has
    gone longest without a branching point, ties broken lexicographically.
    Rotating the split through the live nodes keeps every branch splitting
    infinitely often, so the tree is perfect.  All non-chosen nodes extend
    by 0.  State = node word as a bit tuple; levels are generated on
    demand, so there is no horizon.
    """

    finite = False
    known_perfect = True  # by the rotating split

    def __init__(self) -> None:
        self.initial = ()
        # per depth: {node: (last_split_depth, chosen)}
        self._levels: List[Dict[Tuple[int, ...], Tuple[int, bool]]] = [{(): (-1, True)}]

    def _extend(self) -> None:
        d = len(self._levels) - 1
        cur = self._levels[-1]
        nxt: Dict[Tuple[int, ...], int] = {}
        for node, (last, chosen) in cur.items():
            if chosen:
                nxt[node + (0,)] = d
                nxt[node + (1,)] = d
            else:
                nxt[node + (0,)] = last
        pick = min(nxt, key=lambda n: (nxt[n], n))
        self._levels.append({n: (ls, n == pick) for n, ls in nxt.items()})

    def _level(self, d: int) -> Dict[Tuple[int, ...], Tuple[int, bool]]:
        while len(self._levels) <= d:
            self._extend()
        return self._levels[d]

    def row(self, state) -> Row:
        info = self._level(len(state)).get(state)
        if info is None:
            raise NotANode(f"{BinWord(state)} is not a staircase node")
        # every node extends by 0; the chosen one also by 1
        return (state + (0,), state + (1,) if info[1] else None)


@dataclass(frozen=True)
class StaircaseTree(TreePresentation):
    """The balanced perfect tree with exactly one branching point per depth."""

    def _compile(self) -> Navigator:
        return StaircaseNavigator()

    def __str__(self) -> str:
        return "staircase"

    def period_hint(self) -> int:
        return 4


@dataclass(frozen=True)
class ProductTree(TreePresentation):
    left: TreePresentation
    right: TreePresentation

    def _compile(self) -> Navigator:
        left, right = self.left.navigator(), self.right.navigator()
        if left.rows is not None and right.rows is not None:
            nav = _product_table(left, right)
            if nav is not None:
                return nav
        return ProductNavigator(left, right)

    def __str__(self) -> str:
        return f"product({self.left},{self.right})"

    def period_hint(self) -> int:
        return 2 * math.lcm(self.left.period_hint(), self.right.period_hint())


@dataclass(frozen=True)
class Subtree(TreePresentation):
    """The nodes of the base tree comparable with the root word.

    Its branch set is the relative cylinder of the root inside the base
    tree, hence a subset of the base's branch set.
    """

    base: TreePresentation
    root: BinWord

    def __post_init__(self) -> None:
        nav = self.base.navigator()
        if walk(nav, self.root.bits, nav.initial) is None:
            raise PresentationError(f"subtree root {self.root} is not a node")

    def _compile(self) -> Navigator:
        nav = self.base.navigator()
        start = walk(nav, self.root.bits, nav.initial)[0]
        if nav.rows is None:
            return StemNavigator(self.root.bits, nav, start)
        return _stem_table(self.root.bits, nav, start)

    def __str__(self) -> str:
        return f"subtree({self.base},{self.root})"

    def period_hint(self) -> int:
        return self.base.period_hint() + len(self.root)


# ---------------------------------------------------------------------------
# Queries


def contains(P: TreePresentation, w: BinWord) -> bool:
    """Whether w is a node of the presented tree.

    Raises HorizonExceeded for explicit presentations queried past their
    depth rather than guessing.
    """
    nav = P.navigator()
    return walk(nav, w.bits, nav.initial) is not None


def children(P: TreePresentation, w: BinWord) -> Tuple[int, ...]:
    """The bits b with w⌢b a node of the tree."""
    nav = P.navigator()
    end = walk(nav, w.bits, nav.initial)
    if end is None:
        raise NotANode(f"{w} is not a node")
    return nav.bits(end[0])


def node_words(P: TreePresentation, depth: int) -> Iterator[BinWord]:
    """All node words of length at most depth, in BFS/lexicographic order."""
    nav = P.navigator()
    level: List[Tuple[BinWord, object]] = [(EMPTY, nav.initial)]
    yield EMPTY
    for _ in range(depth):
        nxt: List[Tuple[BinWord, object]] = []
        for w, s in level:
            for b, t in enumerate(nav.row(s)):
                if t is not None:
                    nxt.append((w.append(b), t))
        for w, _ in nxt:
            yield w
        level = nxt


def frontier_words(P: TreePresentation, depth: int) -> List[BinWord]:
    """The node words of length exactly depth."""
    return [w for w in node_words(P, depth) if len(w) == depth]


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationReport:
    pruned: bool
    perfect: bool
    witnesses: Tuple[BinWord, ...] = ()
    exact_to: Optional[int] = None  # None: exact; n: decided up to depth n

    def __post_init__(self) -> None:
        if self.perfect and not self.pruned:
            raise PresentationError("perfect implies pruned")


def validate(P: TreePresentation) -> ValidationReport:
    """Prunedness and perfection, read off the navigator's rows by id: a
    table's states are numbered breadth-first from 0, so each state's first
    parent in id order lies on its least shortest word, and the witnesses,
    the shortest words of the failing states in lexicographic order, are
    rebuilt from these back-pointers.  A navigator that is not a table is
    numbered first (_numbered).  Exact for finite-state presentations; one
    with a horizon is checked up to it, which is exact_to: states there
    have the row None and are not checked (a horizon comes from a trie,
    each of whose states is one node, so a state fixes its depth).  A table
    numbered otherwise raises PresentationError."""
    nav = P.navigator()
    if nav.known_perfect:
        return ValidationReport(pruned=True, perfect=True)
    horizon = nav.horizon
    if not nav.finite and horizon is None:
        raise UnsupportedPresentation(f"no exact validation for {P}")
    rows = nav.rows if nav.rows is not None else _numbered(nav.initial, nav.row)
    # by id: the (parent id, bit) each state is first reached by, met in id
    # order since the table is breadth-first from 0, and its parents; inner
    # holds the ids short of the horizon
    back: List[Tuple[int, int]] = [(0, 0)]
    parents: List[List[int]] = [[] for _ in rows]
    inner = []
    for i, row in enumerate(rows):
        if i >= len(back):
            raise PresentationError("table not numbered breadth-first from 0")
        if row is None:
            continue
        inner.append(i)
        for b, t in enumerate(row):
            if t is not None:
                parents[t].append(i)
                if t >= len(back):
                    if t > len(back):
                        raise PresentationError("table not numbered breadth-first from 0")
                    back.append((i, b))
    # the failing states: the dead ends, or else those that reach no split
    bad = [i for i in inner if rows[i] == (None, None)]
    pruned = not bad
    if pruned:
        reach = ancestors((i for i in inner if None not in rows[i]), parents)
        bad = [i for i in inner if i not in reach]
    if not bad:
        return ValidationReport(True, True, exact_to=horizon)

    def shortest(i: int) -> Tuple[int, ...]:
        word = []
        while i:
            i, b = back[i]
            word.append(b)
        return tuple(reversed(word))

    ws = tuple(BinWord(w) for w in sorted(map(shortest, bad)))
    return ValidationReport(pruned, False, ws, exact_to=horizon)


def ancestors(seeds: Iterable, parents: Mapping[object, Sequence]) -> set:
    """The seeds and every state with a path into one of them: a backward
    search over each state's list of parents."""
    found = set(seeds)
    work = list(found)
    while work:
        for s in parents[work.pop()]:
            if s not in found:
                found.add(s)
                work.append(s)
    return found


# ---------------------------------------------------------------------------
# Products and Silver splitting


def product(P: TreePresentation, Q: TreePresentation) -> ProductTree:
    return ProductTree(P, Q)


def silver_split(
    S: SilverTree, horizon: int = 32
) -> Tuple[TreePresentation, TreePresentation]:
    """Split a Silver tree into its even- and odd-entry component trees.

    The original tree equals the product of the two components node for
    node.  A component whose entries contain only finitely many -1 is no
    longer perfect and is returned as an explicit tree truncated at the
    given horizon.
    """
    return (
        _silver_component(S, 0, horizon),
        _silver_component(S, 1, horizon),
    )


def _silver_component(S: SilverTree, par: int, horizon: int) -> TreePresentation:
    L, M = len(S.prefix), len(S.period)
    npl = max(0, -(-(L - par) // 2))  # number of n with 2n+par < L
    t0 = M if M % 2 else M // 2
    new_prefix = tuple(S.entry(2 * n + par) for n in range(npl))
    new_period = tuple(S.entry(2 * (npl + j) + par) for j in range(t0))
    if -1 in new_period:
        # drop forced prefix-only normalization; keep entries as computed
        return SilverTree(new_prefix, new_period)
    entries = [new_prefix[n] if n < npl else new_period[(n - npl) % t0] for n in range(horizon)]
    frontier = []
    choice_positions = [n for n, a in enumerate(entries) if a == -1]
    for combo in itertools.product((0, 1), repeat=len(choice_positions)):
        bits = list(entries)
        for pos, b in zip(choice_positions, combo):
            bits[pos] = b
        frontier.append(BinWord(tuple(bits)))
    return ExplicitTree(horizon, frozenset(frontier))


# ---------------------------------------------------------------------------
# DSL text forms


def to_dsl(P: TreePresentation) -> str:
    """Canonical DSL expression for a presentation."""
    return str(P)


# a symbol, or a run of anything but symbols and whitespace; in a str
# pattern \s matches exactly the characters for which str.isspace holds
_TOKEN = re.compile(r"[{}\[\](),]|[^\s{}\[\](),]+")


def _tokenize(text: str) -> List[str]:
    return _TOKEN.findall(text)


class _TokenStream:
    def __init__(self, tokens: Sequence[str], line: int):
        self.tokens = list(tokens)
        self.pos = 0
        self.line = line

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line)


def parse_tree_expr(
    text: str,
    env: Optional[Mapping[str, TreePresentation]] = None,
    line: int = 0,
) -> TreePresentation:
    """Parse a DSL tree expression; names resolve through env."""
    stream = _TokenStream(_tokenize(text), line)
    tree = _parse_expr(stream, env or {}, line)
    if stream.peek() is not None:
        raise ParseError(f"trailing tokens after expression: {stream.peek()!r}", line)
    return tree


def _parse_word_list(stream: _TokenStream, line: int) -> Tuple[BinWord, ...]:
    stream.expect("{")
    out = []
    while stream.peek() != "}":
        tok = stream.next()
        try:
            out.append(BinWord.from_str(tok))
        except ValueError as exc:
            raise ParseError(str(exc), line) from exc
    stream.expect("}")
    return tuple(out)


def _parse_entry_list(stream: _TokenStream, line: int) -> Tuple[int, ...]:
    stream.expect("[")
    out = []
    while stream.peek() != "]":
        tok = stream.next()
        try:
            val = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad entry {tok!r}", line) from exc
        out.append(val)
    stream.expect("]")
    return tuple(out)


def _parse_expr(
    stream: _TokenStream, env: Mapping[str, TreePresentation], line: int
) -> TreePresentation:
    tok = stream.next()
    try:
        if tok == "full":
            return FullTree()
        if tok == "staircase":
            return StaircaseTree()
        if tok == "words":
            ws = _parse_word_list(stream, line)
            if not ws:
                raise ParseError("words{} needs at least one word", line)
            return ExplicitTree(len(ws[0]), frozenset(ws))
        if tok == "blocks":
            stream.expect("(")
            k = int(stream.next())
            stream.expect(")")
            return BlockTree(k, frozenset(_parse_word_list(stream, line)))
        if tok == "silver":
            prefix = _parse_entry_list(stream, line)
            stream.expect("repeat")
            period = _parse_entry_list(stream, line)
            return SilverTree(prefix, period)
        if tok == "product":
            stream.expect("(")
            left = _parse_expr(stream, env, line)
            stream.expect(",")
            right = _parse_expr(stream, env, line)
            stream.expect(")")
            return ProductTree(left, right)
        if tok == "subtree":
            stream.expect("(")
            base = _parse_expr(stream, env, line)
            stream.expect(",")
            root = BinWord.from_str(stream.next())
            stream.expect(")")
            return Subtree(base, root)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc
    if tok in env:
        return env[tok]
    raise ParseError(f"unknown tree expression or name {tok!r}", line)
