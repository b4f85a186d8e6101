"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

All comparisons are exact rational equalities or inequalities; there are
no tolerances anywhere.  Run with `pytest -s` to see the summary lines.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cantormeasure import cli
from cantormeasure.certcheck import check_certificate
from cantormeasure.constructions import (
    EVEN_IDX,
    J_BLOCKS,
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
from cantormeasure.measure import (
    default_trace_depth,
    lemma1_refine,
    mu_clopen,
    mu_cylinder,
    product_measure,
    trace_upper,
)
from cantormeasure.splits import classify, level, split_profile
from cantormeasure.trees import (
    FullTree,
    SilverTree,
    Subtree,
    node_words,
    product,
    silver_split,
    validate,
)
from cantormeasure.words import BinWord, select

E = make_named("E").presentation
Q = make_named("Q").presentation
PJ = make_named("PJ").presentation
U = make_named("U").presentation
BST = make_named("BST").presentation
FULL = FullTree()


def report(n, label):
    print(f"ACCEPTANCE {n:2d} PASS — {label}")


def test_01_table1_reproduction():
    rows = table1()
    assert len(rows) == 16
    for row in rows:
        assert row.projected == select(row.block, EVEN_IDX)
        assert row.cylinder_measure == mu_cylinder(Q, row.projected)
        fiber = [s for s in J_BLOCKS if select(s, EVEN_IDX) == row.projected]
        assert row.fiber_measure == Fraction(len(fiber), 16)
        assert row.cylinder_measure == row.fiber_measure
        assert row.cylinder_measure in (
            Fraction(1, 16),
            Fraction(1, 8),
            Fraction(1, 4),
        )
    report(1, "all 16 even-projection rows match exactly")


def test_02_table2_reproduction():
    rows = table2()
    assert {w for _, w in rows} == set(L_BLOCKS)
    for s, w in rows:
        assert w == select(s, ODD_IDX)
    assert project_blocks(J_BLOCKS, ODD_IDX) == frozenset(L_BLOCKS)
    report(2, "odd projection maps the 8-bit blocks onto the 4-bit blocks")


def test_03_pj_uniformity():
    c = classify(PJ)
    assert c.uniform and c.exact_to is None
    profile = split_profile(PJ, 4)
    assert profile.s == (0, 1, 2, 3)
    assert profile.S == (0, 1, 2, 3)
    for s in J_BLOCKS:
        assert mu_cylinder(PJ, s) == Fraction(1, 16)
    report(3, "PJ uniform with splits at block-relative depths 0-3")


def test_04_cylinder_law():
    for name in ("E", "Q", "PJ", "U", "BST"):
        tree = make_named(name).presentation
        by_length = {}
        for w in node_words(tree, 12):
            assert mu_cylinder(tree, w) == Fraction(1, 2 ** level(tree, w))
            by_length.setdefault(len(w), []).append(w)
        for n, ws in by_length.items():
            assert sum(mu_cylinder(tree, w) for w in ws) == 1, (name, n)
    report(4, "mu = 1/2^level and level-n normalization on all named trees")


def test_05_product_identity():
    for left, right in ((E, E), (U, U), (Q, PJ)):
        prod = product(left, right)
        checked = 0
        for v in node_words(prod, 12):
            if len(v) % 2 == 0:
                product_measure(prod, v)  # raises on any mismatch
                checked += 1
        assert checked > 0
    report(5, "both product-measure paths agree to depth 12")


def test_06_lemma1_certificates():
    cert = lemma1_refine(FULL, U, 2, 16)
    assert cert.bound == Fraction(3, 4) ** 16
    # the replay log certifies every intermediate m <= 16 at once
    for line in cert.replay_log:
        m = re.match(r"round (\d+): cover \d+ bound (\S+)", line)
        assert m and Fraction(m.group(2)) == Fraction(3, 4) ** int(m.group(1))
    for m_rounds in (1, 4, 16):
        c = lemma1_refine(FULL, U, 2, m_rounds)
        result = check_certificate(c.serialize())
        assert result.ok and result.recomputed_bound == Fraction(3, 4) ** m_rounds
    for m_rounds in (1, 2, 3, 4):
        c = lemma1_refine(E, BST, 3, m_rounds)
        assert c.bound <= Fraction(7, 8) ** m_rounds
        assert check_certificate(c.serialize()).ok
    report(6, "refinement bounds (3/4)^m and <=(7/8)^m replay bit-exactly")


def test_07_staircase_bound():
    bounds = trace_upper(U, BST, 40).upper_bounds
    for n in range(21):
        assert bounds[2 * n] <= Fraction(n + 1, 2**n), n
    report(7, "trace of the staircase tree in U obeys (n+1)/2^n for n<=20")


def test_08_silver_splitting():
    rng = random.Random(20260824)
    decayed = 0
    for _ in range(50):
        prefix = tuple(rng.choice([-1, 0, 1]) for _ in range(rng.randrange(0, 3)))
        while True:
            period = tuple(rng.choice([-1, 0, 1]) for _ in range(rng.randrange(1, 4)))
            if -1 in period:
                break
        S = SilverTree(prefix, period)
        assert validate(S).perfect
        even, odd = silver_split(S)
        prod = product(even, odd)
        assert set(node_words(S, 12)) == set(node_words(prod, 12))
        depth = default_trace_depth(S, U)
        tail = trace_upper(S, U, depth).upper_bounds[-1]
        assert tail <= Fraction(1, 2**5), (prefix, period, tail)
        decayed += 1
    assert decayed == 50
    report(8, "50 random Silver trees split into products; U-trace decays")


def test_09_phi_suite():
    printed = {
        "00": "101000",
        "01": "100100",
        "10": "010010",
        "11": "010001",
        "000": "10100010000000",
    }
    for w, image in printed.items():
        assert str(phi(BinWord.from_str(w))) == image
    # Cantor scheme to level 6: refinement plus same-level disjointness
    from cantormeasure.words import all_words

    for n in range(6):
        images = []
        for w in all_words(n):
            iw = phi(w)
            images.append(iw)
            for b in (0, 1):
                assert iw.is_prefix_of(phi(w.append(b)))
        assert len(set(images)) == len(images)
        for i, u in enumerate(images):
            for v in images[i + 1 :]:
                assert u != v and len(u) == len(v)  # equal-length: disjoint cylinders
    for l in range(1, 5):
        window = (2**l - 2, 2 ** (l + 1) - 2)
        assert z2_independent(phi_level_points(l), window)
    report(9, "phi values verbatim; Cantor scheme to level 6; GF(2) independence")


def test_10_lusin_tree():
    lt = lusin_tree(4)
    assert len(lt.removed_mass) >= 3
    assert lt.widths[0] == (lt.stages[0][0], 2)
    for n, removed in enumerate(lt.removed_mass):
        assert removed <= Fraction(1, 2 ** (n + 2))
    assert sum(lt.removed_mass) <= Fraction(1, 2)
    report(10, "stage-0 width 2; removed mass <= 1/2^(n+2) per stage, <= 1/2 total")


def test_11_monotonicity_subadditivity():
    rng = random.Random(11)
    bases = [E, Q, PJ, U, FULL]
    for _ in range(20):
        base = rng.choice(bases)
        nodes = [w for w in node_words(base, 4)]
        root = rng.choice(nodes)
        sub = Subtree(base, root)
        assert validate(sub).perfect
        for w in node_words(sub, 10):
            assert mu_cylinder(base, w) <= mu_cylinder(sub, w), (root, w)
        # finite subadditivity of the base measure at each depth <= 10
        pool = list(node_words(base, 10))
        picks = [rng.choice(pool) for _ in range(rng.randrange(1, 8))]
        assert mu_clopen(base, picks) <= sum(mu_cylinder(base, w) for w in picks)
    report(11, "subtree monotonicity and finite subadditivity on random pairs")


# Committed report text and certificates of ACCEPTANCE_SCRIPT: a change
# that keeps the answers must reproduce them byte for byte.
GOLDEN = Path(__file__).parent / "golden"

ACCEPTANCE_SCRIPT = """tree A = blocks(3){000 001 011 111}
tree S = silver[1 0]repeat[-1 0 -1]
tree P2 = product(A, S)
query classify A depth 32
query classify S depth 32
query measure Q cylinder 0111
query trace U in FULL depth 12
query trace-exact U in FULL
query lemma1 U in FULL k 2 rounds 6
query lemma1 A in FULL k 3 rounds 3
query table1
query table2
query phi 000
query lusin stages 4
query product-check A S depth 10
query classify P2 depth 24
"""


def test_12_determinism():
    script = cli.parse(ACCEPTANCE_SCRIPT)
    first = cli.run(script)
    second = cli.run(cli.parse(ACCEPTANCE_SCRIPT))
    assert first.exit_code == 0
    assert first.text.encode() == second.text.encode() == (GOLDEN / "acceptance.txt").read_bytes()
    assert first.certificates == second.certificates
    assert "\n".join(first.certificates).encode() == (GOLDEN / "acceptance.certs").read_bytes()
    for cert in first.certificates:
        assert check_certificate(cert).ok
    rendered = cli.render_script(script)
    assert cli.parse(rendered) == script
    report(12, "byte-identical reports across runs and against the golden copy")
