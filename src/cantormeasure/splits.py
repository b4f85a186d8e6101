"""Branching-point analysis: levels, classification, and the canonical
order isomorphism between the full binary tree and the splits, whose
images of the length-i words are the split sets Split_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .errors import NotANode, PresentationError
from .trees import Navigator, TreePresentation, walk
from .words import BinWord, all_words

_FORCED_WALK_CAP = 100_000


@dataclass(frozen=True)
class SplitProfile:
    """Per-level branching data, exact up to the stated horizon."""

    split_points: Tuple[Tuple[BinWord, ...], ...]
    s: Tuple[int, ...]  # min split length per level
    S: Tuple[int, ...]  # max split length per level
    horizon: int


@dataclass(frozen=True)
class Classification:
    balanced: bool
    uniform: bool
    silver: bool
    exact_to: Optional[int] = None  # None: exact; n: decided up to depth n


def level(P: TreePresentation, w: BinWord) -> int:
    """The number of branching points strictly below w."""
    nav = P.navigator()
    end = walk(nav, w.bits, nav.initial)
    if end is None:
        raise NotANode(f"{w} is not a node")
    return end[1]


def split_profile(P: TreePresentation, levels: int) -> SplitProfile:
    """Exact Split_i, s_i, S_i for i < levels: Split_i is the image of the
    length-i words under canon_embed, in lexicographic order since the
    embedding preserves it.  The horizon is S_{levels-1}, the depth the
    profile looks down to.  A tree without enough branching points raises
    PresentationError.
    """
    points = tuple(tuple(canon_embed(P, w) for w in all_words(i)) for i in range(levels))
    s = tuple(min(map(len, pts)) for pts in points)
    S = tuple(max(map(len, pts)) for pts in points)
    return SplitProfile(points, s, S, horizon=S[-1] if S else 0)


# ---------------------------------------------------------------------------
# Classification


def _state_set_sequence(nav: Navigator):
    """Reachable state sets per depth until the first repeat.

    Returns (sets, cycle_start) where sets[cycle_start:] repeats forever.
    """
    seen: Dict[FrozenSet, int] = {}
    sets: List[FrozenSet] = []
    cur = frozenset([nav.initial])
    while cur not in seen:
        seen[cur] = len(sets)
        sets.append(cur)
        cur = frozenset(t for s in cur for t in nav.row(s) if t is not None)
    return sets, seen[cur]


def _forced_walk(nav: Navigator, state) -> Tuple[object, List[int]]:
    """Advance through single-child states until a split; returns (state,
    the forced bits passed)."""
    gap: List[int] = []
    while True:
        row = nav.row(state)
        if None not in row:
            return state, gap
        if row == (None, None):
            raise PresentationError("tree is not pruned at a forced node")
        b = 1 if row[0] is None else 0
        state = row[b]
        gap.append(b)
        if len(gap) > _FORCED_WALK_CAP:
            raise PresentationError("no branching point below a node; tree not perfect")


def _classify_finite(nav: Navigator, budget: int) -> Classification:
    sets, _ = _state_set_sequence(nav)
    uniform = True
    silver = True
    for states in sets:
        rows = [nav.row(s) for s in states]
        n_split = sum(None not in row for row in rows)
        if 0 < n_split < len(states):
            uniform = False
        if len({(zero is None, one is None) for zero, one in rows}) > 1:
            silver = False
    silver = silver and uniform

    # level-front iteration for balancedness; fronts are sets of
    # (state, length offset) pairs, normalized to min offset 0
    start, gap0 = _forced_walk(nav, nav.initial)
    front: FrozenSet[Tuple[object, int]] = frozenset([(start, 0)])
    base = len(gap0)  # absolute length of offset 0
    seen_fronts: Set[FrozenSet] = {front}
    balanced: Optional[bool] = True
    prev_max = base
    for _ in range(budget):
        nxt: Set[Tuple[object, int]] = set()
        for state, off in front:
            for child in nav.row(state):
                if child is not None:
                    q, gap = _forced_walk(nav, child)
                    nxt.add((q, off + 1 + len(gap)))
        mn = min(off for _, off in nxt)
        mx = max(off for _, off in nxt)
        if base + mn <= prev_max:  # s_{i+1} <= S_i
            return Classification(False, uniform, silver, exact_to=None)
        prev_max = base + mx
        base += mn
        front = frozenset((s, off - mn) for s, off in nxt)
        if mx - mn > 4096:
            return Classification(True, uniform, silver, exact_to=base)
        if front in seen_fronts:
            return Classification(True, uniform, silver, exact_to=None)
        seen_fronts.add(front)
    return Classification(True, uniform, silver, exact_to=base)


def _classify_enumerated(nav: Navigator, depth: int) -> Classification:
    level_nodes: List[List[Tuple[object, int]]] = [[(nav.initial, 0)]]
    uniform = True
    silver = True
    s: Dict[int, int] = {}
    S: Dict[int, int] = {}
    complete = 0  # levels i such that every branch passed level i in view
    min_count = None
    for d in range(depth):
        cur = level_nodes[-1]
        rows = [nav.row(st) for st, _ in cur]
        n_split = sum(None not in row for row in rows)
        if 0 < n_split < len(cur):
            uniform = False
        if len({(zero is None, one is None) for zero, one in rows}) > 1:
            silver = False
        nxt: List[Tuple[object, int]] = []
        for (_, count), row in zip(cur, rows):
            if None not in row:
                s.setdefault(count, d)
                S[count] = d
                count += 1
            nxt.extend((t, count) for t in row if t is not None)
        level_nodes.append(nxt)
        min_count = min(c for _, c in nxt)
    complete = min_count if min_count is not None else 0
    balanced = all(s[i + 1] > S[i] for i in range(complete - 1) if i + 1 in s and i in S)
    return Classification(balanced, uniform, silver and uniform, exact_to=depth)


def classify(P: TreePresentation, depth: int = 64) -> Classification:
    """Balanced / uniformly perfect / Silver classification.

    Exact for finite-state presentations (period detection on the
    automaton), depth-qualified otherwise.
    """
    nav = P.navigator()
    if nav.finite:
        return _classify_finite(nav, budget=max(depth, 64))
    return _classify_enumerated(nav, depth)


# ---------------------------------------------------------------------------
# Canonical order isomorphism


def canon_embed(P: TreePresentation, w: BinWord) -> BinWord:
    """The branching point of P corresponding to w under the order
    isomorphism of the full binary tree with Split(P).

    The empty word maps to the least branching point; appending bit b
    descends through child b to the next branching point.  The result is
    prefix-structure preserving.
    """
    nav = P.navigator()
    state, out = _forced_walk(nav, nav.initial)
    for b in w.bits:
        state, lead = _forced_walk(nav, nav.row(state)[b])
        out.append(b)
        out.extend(lead)
    return BinWord(tuple(out))
