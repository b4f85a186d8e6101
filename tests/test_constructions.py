"""Named constructions, projection tables, the GF(2) embedding, the
Baire-space stage tree."""

from fractions import Fraction

import pytest

from cantormeasure.constructions import (
    EVEN_IDX,
    J_BLOCKS,
    K_BLOCKS,
    L_BLOCKS,
    ODD_IDX,
    lusin_tree,
    make_named,
    phi,
    phi_level_points,
    project_blocks,
    table1,
    table2,
    z2_independent,
)
from cantormeasure.errors import CapExceeded
from cantormeasure.measure import baire_measure, mu_cylinder
from cantormeasure.splits import classify
from cantormeasure.trees import validate
from cantormeasure.words import BinWord, NatWord, all_words, select, xor_sum

W = BinWord.from_str


def test_block_constants():
    assert set(map(str, K_BLOCKS)) == {"000", "001", "011", "111"}
    assert len(L_BLOCKS) == 8 and len(J_BLOCKS) == 16
    # the 4-bit set is two 3-bit blocks joined under a free root bit
    for b in ("0", "1"):
        tails = {str(w)[1:] for w in L_BLOCKS if str(w)[0] == b}
        assert tails == {str(k) for k in K_BLOCKS}


def test_named_constructions_validate():
    for name in ("E", "Q", "PJ", "U", "BST"):
        named = make_named(name)
        report = validate(named.presentation)
        assert report.pruned and report.perfect, name
    with pytest.raises(KeyError):
        make_named("nope")


def test_expected_classifications():
    assert not classify(make_named("E").presentation).balanced
    c = classify(make_named("PJ").presentation)
    assert c.uniform and c.balanced
    c = classify(make_named("U").presentation)
    assert c.uniform and not c.silver
    assert classify(make_named("BST").presentation, depth=20).balanced


def test_project_blocks_both_parities_give_L():
    assert project_blocks(J_BLOCKS, EVEN_IDX) == frozenset(L_BLOCKS)
    assert project_blocks(J_BLOCKS, ODD_IDX) == frozenset(L_BLOCKS)


def test_table1_values():
    rows = {str(r.block): r for r in table1()}
    assert len(rows) == 16
    expected = {
        "00000000": ("0000", Fraction(1, 16)),
        "00010111": ("0001", Fraction(1, 16)),
        "00101011": ("0111", Fraction(1, 4)),
        "00111111": ("0111", Fraction(1, 4)),
        "01001010": ("0011", Fraction(1, 8)),
        "01011111": ("0011", Fraction(1, 8)),
        "01101011": ("0111", Fraction(1, 4)),
        "01111111": ("0111", Fraction(1, 4)),
        "10000101": ("1000", Fraction(1, 16)),
        "10010111": ("1001", Fraction(1, 16)),
        "10101111": ("1111", Fraction(1, 4)),
        "10111111": ("1111", Fraction(1, 4)),
        "11001111": ("1011", Fraction(1, 8)),
        "11011111": ("1011", Fraction(1, 8)),
        "11101111": ("1111", Fraction(1, 4)),
        "11111111": ("1111", Fraction(1, 4)),
    }
    for s, (w, mu) in expected.items():
        assert str(rows[s].projected) == w
        assert rows[s].cylinder_measure == mu
        assert rows[s].fiber_measure == mu


def test_table1_fibers_partition_the_blocks():
    total = sum({str(r.projected): r.fiber_measure for r in table1()}.values())
    assert total == 1


def test_table2_values():
    rows = {str(s): str(w) for s, w in table2()}
    expected = {
        "00000000": "0000",
        "00010111": "0111",
        "00101011": "0001",
        "00111111": "0111",
        "01001010": "1000",
        "01011111": "1111",
        "01101011": "1001",
        "01111111": "1111",
        "10000101": "0011",
        "10010111": "0111",
        "10101111": "0011",
        "10111111": "0111",
        "11001111": "1011",
        "11011111": "1111",
        "11101111": "1011",
        "11111111": "1111",
    }
    assert rows == expected


def test_pj_block_cylinders():
    pj = make_named("PJ").presentation
    for s in J_BLOCKS:
        assert mu_cylinder(pj, s) == Fraction(1, 16)


def test_phi_printed_values():
    assert str(phi(W("0"))) == "10"
    assert str(phi(W("1"))) == "01"
    assert str(phi(W("00"))) == "101000"
    assert str(phi(W("01"))) == "100100"
    assert str(phi(W("10"))) == "010010"
    assert str(phi(W("11"))) == "010001"
    assert str(phi(W("000"))) == "10100010000000"
    assert phi(W("")) == BinWord(())


def test_phi_is_a_cantor_scheme():
    # images refine monotonically and same-length images are distinct
    for n in range(6):
        for w in all_words(n):
            iw = phi(w)
            for b in (0, 1):
                assert iw.is_prefix_of(phi(w.append(b)))
            assert len(iw) == 2 ** (n + 1) - 2
        images = [phi(w) for w in all_words(n)]
        assert len(set(images)) == len(images)


def test_phi_one_hot_blocks():
    # each appended block has exactly one 1
    for n in range(5):
        for w in all_words(n):
            for b in (0, 1):
                tail = phi(w.append(b)).bits[len(phi(w)) :]
                assert sum(tail) == 1


def test_phi_level_points_z2_independent():
    for l in range(1, 5):
        pts = phi_level_points(l)
        assert len(pts) == 2**l
        window = (2**l - 2, 2 ** (l + 1) - 2)
        assert z2_independent(pts, window)


def test_z2_independent_detects_dependence():
    u, v = W("1100"), W("0110")
    w = xor_sum(u, v)
    assert not z2_independent([u, v, w], (0, 4))
    assert z2_independent([u, v], (0, 4))
    assert not z2_independent([W("0000")], (0, 4))
    assert not z2_independent([u, u], (0, 4))


def test_z2_independent_input_checks():
    with pytest.raises(ValueError):
        z2_independent([W("10")], (0, 3))
    with pytest.raises(ValueError):
        z2_independent([W("10"), W("100")], (0, 2))
    with pytest.raises(ValueError):
        z2_independent([W("10")], (2, 1))


def test_lusin_tree_stage_arithmetic():
    lt = lusin_tree(4)
    # the root gets the minimal child count 2
    assert lt.widths[0][1] == 2
    assert len(lt.stages[0]) == 1 and len(lt.stages[1]) == 2
    for n, removed in enumerate(lt.removed_mass):
        assert removed <= Fraction(1, 2 ** (n + 2)), n
        assert removed >= 0
    assert sum(lt.removed_mass) <= Fraction(1, 2)


def test_lusin_tree_mass_bookkeeping():
    lt = lusin_tree(3)
    for n in range(3):
        kept = sum(baire_measure(w) for w in lt.stages[n + 1])
        before = sum(baire_measure(w) for w in lt.stages[n])
        assert before - kept == lt.removed_mass[n]


def _reference_lusin(stages):
    """The stage tree as first written, with Fraction masses: the least
    width M >= 2 with 2^M >= 2^(n+2) |T_n| m([w]), found by counting up."""
    levels, masses, widths, removed = [(NatWord(),)], [Fraction(1)], [], []
    for n in range(stages):
        cur = levels[-1]
        counts = []
        for mass in masses:
            m_w = 2
            while 2**m_w < 2 ** (n + 2) * len(cur) * mass:
                m_w += 1
            counts.append(m_w)
        widths.extend(zip(cur, counts))
        removed.append(sum(mass / 2**m_w for mass, m_w in zip(masses, counts)))
        levels.append(tuple(w.append(j) for w, m_w in zip(cur, counts) for j in range(m_w)))
        masses = [mass / 2 ** (j + 1) for mass, m_w in zip(masses, counts) for j in range(m_w)]
    return tuple(levels), tuple(widths), tuple(removed)


def test_lusin_tree_matches_the_fraction_widths():
    for stages in range(8):
        lt = lusin_tree(stages)
        assert (lt.stages, lt.widths, lt.removed_mass) == _reference_lusin(stages), stages


def test_lusin_tree_cap():
    with pytest.raises(CapExceeded):
        lusin_tree(10, cap=50)


def test_lusin_tree_cap_fires_before_the_stage_is_built(monkeypatch):
    # stages 0-8 hold 99,146 words; stage 9 would add 574,864
    built = 0
    post_init = NatWord.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(NatWord, "__post_init__", counting)
    with pytest.raises(CapExceeded, match="stage 9 would have 574864 nodes"):
        lusin_tree(9)
    assert built < 2 * 100_000


def test_table_select_consistency():
    # the projections used by both tables are plain coordinate selections
    for s in J_BLOCKS:
        assert select(s, EVEN_IDX) == BinWord(tuple(s.bits[i] for i in (0, 2, 4, 6)))
        assert select(s, ODD_IDX) == BinWord(tuple(s.bits[i] for i in (1, 3, 5, 7)))
