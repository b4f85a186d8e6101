"""Independent replay checker for serialized bound certificates.

The checker re-derives the certified bound from the cover alone and,
when the cover carries explicit nodes, re-counts every level from the
tree's own transitions instead of the measure engine's level bookkeeping.
One walk takes the cover words in file order and resumes each word at its
longest common prefix with the previous one.  At every node on the way it
reads the node's row, its children on 0 and on 1, and counts a branching
point when both are in the tree.  For a sorted cover, as lemma1_refine
emits it, that is at most one row read per distinct prefix of the cover
words; lines in any other order give the same answer with more reads.  A
cover word that runs past the horizon of an explicit tree is reported as
such: the tree says nothing there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import CantorMeasureError, HorizonExceeded, ParseError
from .trees import Navigator, parse_tree_expr
from .words import BinWord, parse_bits

_FIELDS = ("p", "x", "k", "rounds", "mode", "bound")
# Levels, k and k * rounds are exponents of 2 in the sums below.  Above
# this one a power of 2 takes long to build and its fractions are too long
# to print (Python prints integers of at most 4,300 digits; 2**14_000 has
# 4,215), so no emitted certificate carries one.
_MAX_EXPONENT = 14_000
_RATIONAL = re.compile(r"[0-9]+(/0*[1-9][0-9]*)?")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    expected_bound: Optional[Fraction]
    recomputed_bound: Optional[Fraction]
    messages: Tuple[str, ...]


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a natural number, got {text!r}")
    return value


def _exponent(text: str) -> int:
    value = _natural(text)
    if value > _MAX_EXPONENT:
        raise ValueError(f"exponent {value} exceeds {_MAX_EXPONENT}")
    return value


def _replay(nav: Navigator, cover: Sequence[Tuple[Tuple[int, ...], int]]) -> List[str]:
    """A message for every cover word that is not a node of the tree, runs
    past its horizon, or whose stated level differs from the branching
    points strictly below it."""
    messages: List[str] = []
    prev: Tuple[int, ...] = ()
    # along the last word, as far as it stayed in the tree: the state and
    # the branching points passed at each depth, and the row of each node
    # the walk has looked below
    states: List[object] = [nav.initial]
    splits = [0]
    kids: List[Tuple[object, object]] = []
    for bits, lvl in cover:
        n, top = 0, min(len(bits), len(states) - 1)
        while n < top and bits[n] == prev[n]:
            n += 1
        del states[n + 1:], splits[n + 1:], kids[n + 1:]
        prev = bits
        try:
            for i in range(n, len(bits)):
                if i == len(kids):
                    kids.append(nav.row(states[i]))
                zero, one = kids[i]
                child = one if bits[i] else zero
                if child is None:
                    break
                states.append(child)
                splits.append(splits[i] + (zero is not None and one is not None))
        except HorizonExceeded as exc:
            messages.append(f"cover node {BinWord(bits)} lies past the horizon: {exc}")
            continue
        if len(states) <= len(bits):
            messages.append(f"cover node {BinWord(bits)} is not a node of the tree")
        elif splits[len(bits)] != lvl:
            messages.append(
                f"node {BinWord(bits)}: stated level {lvl}, recomputed {splits[len(bits)]}"
            )
    return messages


def check_certificate(text: str) -> CheckResult:
    """Replay a serialized lemma1 certificate.

    Verifies that the bound equals the cover sum, that it respects the
    ((2^k-1)/2^k)^rounds ceiling, and (explicit covers only) that every
    cover node lies in the tree with the stated level.  Never raises: a
    malformed certificate gives ok=False and says why.
    """
    # blank lines are skipped, but count toward the line numbers
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    messages: List[str] = []
    try:
        first, header = lines[0]
        if header != "certificate lemma1 v1":
            raise ParseError(f"unexpected header {header!r}", first)
        fields = {}
        cover: List[Tuple[Tuple[int, ...], int]] = []
        agg: List[Tuple[int, int]] = []
        for i, ln in lines[1:]:
            if ln == "end":
                break
            key, _, rest = ln.partition(" ")
            if key == "cover":
                node, _, lvl = rest.partition(":")
                cover.append((parse_bits(node), _exponent(lvl)))
            elif key == "agg":
                lvl, _, cnt = rest.partition(":")
                level, count = _exponent(lvl), _natural(cnt)
                # a cover's nodes of one level are disjoint cylinders of
                # measure 1/2^level each
                if count > 2**level:
                    raise ValueError(f"count {count} exceeds 2^{level}")
                agg.append((level, count))
            elif key in _FIELDS:
                fields[key] = rest
            else:
                raise ParseError(f"unknown certificate line {ln!r}", i)
        else:
            raise ValueError("no end line")
        k, rounds = _exponent(fields["k"]), _natural(fields["rounds"])
        if k * rounds > _MAX_EXPONENT:
            raise ValueError(f"exponent k * rounds = {k * rounds} exceeds {_MAX_EXPONENT}")
        if not _RATIONAL.fullmatch(fields["bound"]):
            raise ValueError(f"bound is not n or n/d with d > 0: {fields['bound']!r}")
        bound = Fraction(fields["bound"])
        mode, p = fields["mode"], fields["p"]
        if mode not in ("nodes", "levels"):
            raise ValueError(f"unknown mode {mode!r}")
    except (KeyError, ValueError, IndexError, ParseError) as exc:
        return CheckResult(False, None, None, (f"malformed certificate: {exc}",))

    if mode == "nodes":
        recomputed = sum((Fraction(1, 2**lvl) for _, lvl in cover), Fraction(0))
    else:
        recomputed = sum((Fraction(cnt, 2**lvl) for lvl, cnt in agg), Fraction(0))

    ok = True
    if recomputed != bound:
        ok = False
        messages.append(
            f"cover sum {recomputed} disagrees with stated bound {bound}"
        )
    ceiling = Fraction(2**k - 1, 2**k) ** rounds
    if bound > ceiling:
        ok = False
        messages.append(f"bound {bound} exceeds ceiling {ceiling}")

    if mode == "nodes":
        try:
            nav = parse_tree_expr(p).navigator()
        except CantorMeasureError as exc:
            ok = False
            messages.append(f"cannot replay levels: {exc}")
        else:
            replayed = _replay(nav, cover)
            ok = ok and not replayed
            messages.extend(replayed)
    return CheckResult(ok, bound, recomputed, tuple(messages))
