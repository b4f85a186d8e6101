"""Named tree constructions and the checkable claims attached to them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import CapExceeded, IntegrityError
from .measure import mu_clopen, mu_cylinder
from .trees import BlockTree, StaircaseTree, TreePresentation
from .words import BinWord, NatWord, all_words, parse_words, select

K_BLOCKS = parse_words(["000", "001", "011", "111"])

L_BLOCKS = parse_words(["0000", "0001", "0011", "0111", "1000", "1001", "1011", "1111"])

J_BLOCKS = parse_words(
    [
        "00000000", "00010111", "00101011", "00111111",
        "01001010", "01011111", "01101011", "01111111",
        "10000101", "10010111", "10101111", "10111111",
        "11001111", "11011111", "11101111", "11111111",
    ]
)

EVEN_IDX = (0, 2, 4, 6)
ODD_IDX = (1, 3, 5, 7)


@dataclass(frozen=True)
class NamedConstruction:
    name: str
    presentation: TreePresentation
    expected_properties: Tuple[str, ...]


_NAMED: Dict[str, NamedConstruction] = {}


def make_named(name: str) -> NamedConstruction:
    """The named constructions: E, Q, PJ, U, BST."""
    if not _NAMED:
        _NAMED["E"] = NamedConstruction(
            "E", BlockTree(3, frozenset(K_BLOCKS)), ("perfect", "not-balanced")
        )
        _NAMED["Q"] = NamedConstruction(
            "Q", BlockTree(4, frozenset(L_BLOCKS)), ("perfect",)
        )
        _NAMED["PJ"] = NamedConstruction(
            "PJ", BlockTree(8, frozenset(J_BLOCKS)), ("perfect", "uniform")
        )
        _NAMED["U"] = NamedConstruction(
            "U", BlockTree(2, frozenset(parse_words(["00", "11"]))),
            ("perfect", "uniform"),
        )
        _NAMED["BST"] = NamedConstruction(
            "BST", StaircaseTree(), ("perfect", "balanced", "one-split-per-depth")
        )
    if name not in _NAMED:
        raise KeyError(f"unknown construction {name!r}; expected one of E, Q, PJ, U, BST")
    return _NAMED[name]


def project_blocks(blocks: Iterable[BinWord], idx: Sequence[int]) -> frozenset:
    """Coordinate projection of a block set."""
    return frozenset(select(b, idx) for b in blocks)


# ---------------------------------------------------------------------------
# The projection tables for the uniformly perfect product set


@dataclass(frozen=True)
class ProjectionRow:
    block: BinWord  # s in the 8-bit block set
    projected: BinWord  # its even- or odd-coordinate projection
    cylinder_measure: Fraction
    fiber_measure: Fraction


def table1() -> Tuple[ProjectionRow, ...]:
    """Even-coordinate projection rows: for each 8-bit block s, its
    projection w, the cylinder measure of w in the projected tree, and the
    measure of the fiber over w upstairs; asserts the two agree rowwise."""
    q_tree = make_named("Q").presentation
    pj_tree = make_named("PJ").presentation
    rows = []
    for s in sorted(J_BLOCKS):
        w = select(s, EVEN_IDX)
        mu_q = mu_cylinder(q_tree, w)
        fiber = [t for t in J_BLOCKS if select(t, EVEN_IDX) == w]
        fiber_mu = mu_clopen(pj_tree, fiber)
        if fiber_mu != Fraction(len(fiber), 16):
            raise IntegrityError(f"fiber of {w} is not {len(fiber)} disjoint 1/16 cylinders")
        if mu_q != fiber_mu:
            raise IntegrityError(
                f"row {s}: cylinder measure {mu_q} disagrees with fiber measure {fiber_mu}"
            )
        rows.append(ProjectionRow(s, w, mu_q, fiber_mu))
    return tuple(rows)


def table2() -> Tuple[Tuple[BinWord, BinWord], ...]:
    """Odd-coordinate projection rows; asserts the image is the 4-bit block
    set, i.e. both projections of the product set coincide."""
    rows = tuple((s, select(s, ODD_IDX)) for s in sorted(J_BLOCKS))
    if frozenset(w for _, w in rows) != frozenset(L_BLOCKS):
        raise IntegrityError("odd projection does not map onto the 4-bit block set")
    return rows


# ---------------------------------------------------------------------------
# The bitwise-independent embedding


def phi(w: BinWord) -> BinWord:
    """Recursive embedding whose cylinder images are pairwise independent
    over GF(2): appending bit b to w appends a one-hot word of length
    2^(|w|+1) with the 1 at position 2k+b, where k is the number with
    binary notation w."""
    out: Tuple[int, ...] = ()
    k = 0
    for n, b in enumerate(w.bits):
        m = 2 ** (n + 1)
        pos = 2 * k + b
        out = out + tuple(1 if i == pos else 0 for i in range(m))
        k = 2 * k + b
    return BinWord(out)


def phi_level_points(l: int) -> Tuple[BinWord, ...]:
    """The images of all length-l words, in lexicographic order."""
    return tuple(phi(w) for w in all_words(l))


def z2_independent(words: Sequence[BinWord], window: Tuple[int, int]) -> bool:
    """Linear independence over GF(2) of the restrictions to [a, b)."""
    a, b = window
    if a < 0 or b < a:
        raise ValueError(f"bad window [{a},{b})")
    lengths = {len(w) for w in words}
    if len(lengths) > 1:
        raise ValueError("words must have equal lengths")
    if words and min(lengths) < b:
        raise ValueError("words must cover the window")
    vecs = [sum(bit << i for i, bit in enumerate(w.bits[a:b])) for w in words]
    basis: Dict[int, int] = {}  # leading bit -> reduced vector
    for v in vecs:
        while v:
            h = v.bit_length() - 1
            if h not in basis:
                basis[h] = v
                break
            v ^= basis[h]
        if not v:
            return False
    return True


# ---------------------------------------------------------------------------
# The measure skeleton of the Lusin-style system in Baire space


@dataclass(frozen=True)
class LusinTree:
    stages: Tuple[Tuple[NatWord, ...], ...]
    widths: Tuple[Tuple[NatWord, int], ...]  # node -> its child count
    removed_mass: Tuple[Fraction, ...]


def lusin_tree(stages: int, cap: int = 100_000) -> LusinTree:
    """Stage-wise finite tree in Baire space whose per-stage removed mass
    stays below 1/2^(n+2), hence below 1/2 in total.

    Child counts are the minimal M >= 2 with 2^M at least
    2^(n+2) * |T_n| * m([w]).
    """
    levels: List[Tuple[NatWord, ...]] = [(NatWord(),)]
    exps = [0]  # m([w]) = 2^-e for each word of the last stage, in order
    widths: List[Tuple[NatWord, int]] = []
    removed: List[Fraction] = []
    for n in range(stages):
        cur = levels[-1]
        # 2^M >= 2^(n+2) |T_n| 2^-e exactly when M >= n + 2 + ceil(log2 |T_n|) - e
        log_size = (len(cur) - 1).bit_length()
        counts = [max(2, n + 2 + log_size - e) for e in exps]
        # the cap is checked on the widths, before any word of the stage is built
        if sum(counts) > cap:
            raise CapExceeded(f"stage {n + 1} would have {sum(counts)} nodes (cap {cap})")
        widths.extend(zip(cur, counts))
        # the children j < m_w of w keep m([w]) (1 - 2^-m_w) of its mass
        top = max(e + m_w for e, m_w in zip(exps, counts))
        removed.append(
            Fraction(sum(2 ** (top - e - m_w) for e, m_w in zip(exps, counts)), 2**top)
        )
        levels.append(tuple(w.append(j) for w, m_w in zip(cur, counts) for j in range(m_w)))
        exps = [e + j + 1 for e, m_w in zip(exps, counts) for j in range(m_w)]
    return LusinTree(tuple(levels), tuple(widths), tuple(removed))
