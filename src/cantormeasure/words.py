"""Finite words over {0,1} and over the naturals.

Words are immutable value objects.  BinWord ordering is the ordinary tuple
order, i.e. lexicographic with a proper prefix preceding its extensions;
this fixes the deterministic enumeration order used everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

Bit = int


@dataclass(frozen=True, order=True)
class BinWord:
    """A finite binary word; the empty word renders as "ε"."""

    bits: Tuple[Bit, ...] = ()

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits!r}")

    @classmethod
    def from_str(cls, text: str) -> "BinWord":
        return cls(parse_bits(text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits) if self.bits else "ε"

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> Bit:
        return self.bits[i]

    def __iter__(self) -> Iterator[Bit]:
        return iter(self.bits)

    def append(self, bit: Bit) -> "BinWord":
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        return BinWord(self.bits + (bit,))

    def concat(self, other: "BinWord") -> "BinWord":
        return BinWord(self.bits + other.bits)

    def prefix(self, n: int) -> "BinWord":
        if n > len(self.bits):
            raise IndexError(f"prefix length {n} exceeds |w|={len(self.bits)}")
        return BinWord(self.bits[:n])

    def is_prefix_of(self, other: "BinWord") -> bool:
        return other.bits[: len(self.bits)] == self.bits


EMPTY = BinWord()


def parse_bits(text: str) -> Tuple[Bit, ...]:
    """The bits of a word written as str(BinWord) writes it ("ε" or "" for
    the empty word); raises ValueError for any other character."""
    if text in ("", "ε"):
        return ()
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"not a binary word: {text!r}")
    return tuple(int(c) for c in text)


@dataclass(frozen=True, order=True)
class NatWord:
    """A finite word over the naturals, rendered as "[1,0,2]"."""

    entries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.entries):
            raise ValueError(f"entries must be naturals, got {self.entries!r}")

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, k: int) -> "NatWord":
        return NatWord(self.entries + (k,))


def subword(w: BinWord, a: int, b: int) -> BinWord:
    """The word of length b-a+1 whose i-th bit is w(a+i)."""
    if a > b:
        raise IndexError(f"empty range [{a},{b}]")
    if b >= len(w) or a < 0:
        raise IndexError(f"range [{a},{b}] out of bounds for |w|={len(w)}")
    return BinWord(w.bits[a : b + 1])


def select(w: BinWord, idx: Sequence[int]) -> BinWord:
    """The word whose i-th bit is w(idx[i])."""
    for s in idx:
        if s < 0 or s >= len(w):
            raise IndexError(f"index {s} out of bounds for |w|={len(w)}")
    return BinWord(tuple(w.bits[s] for s in idx))


def xor_sum(u: BinWord, v: BinWord) -> BinWord:
    """Bitwise sum mod 2 of two equal-length words."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return BinWord(tuple(a ^ b for a, b in zip(u.bits, v.bits)))


def interleave(u: BinWord, v: BinWord) -> BinWord:
    """Alternate u's bits at even positions and v's at odd positions.

    |u| = |v| or |u| = |v|+1 (odd total length fills the last even slot).
    """
    if len(u) not in (len(v), len(v) + 1):
        raise ValueError(f"cannot interleave lengths {len(u)} and {len(v)}")
    out = []
    for i in range(len(u) + len(v)):
        out.append(u.bits[i // 2] if i % 2 == 0 else v.bits[i // 2])
    return BinWord(tuple(out))


def deinterleave(w: BinWord) -> Tuple[BinWord, BinWord]:
    """Split a word into its even-position and odd-position subwords."""
    return BinWord(w.bits[0::2]), BinWord(w.bits[1::2])


def all_words(n: int) -> Iterator[BinWord]:
    """All binary words of length n in lexicographic order."""
    if n == 0:
        yield EMPTY
        return
    for k in range(1 << n):
        yield BinWord(tuple((k >> (n - 1 - i)) & 1 for i in range(n)))


def parse_words(texts: Iterable[str]) -> Tuple[BinWord, ...]:
    return tuple(BinWord.from_str(t) for t in texts)
