"""The certificate checker: its one-walk replay against a copy of the
earlier per-prefix replay, its cost, and malformed input."""

import random
from fractions import Fraction

import pytest

from cantormeasure import trees
from cantormeasure.certcheck import CheckResult, check_certificate
from cantormeasure.constructions import make_named
from cantormeasure.errors import CantorMeasureError, ParseError
from cantormeasure.measure import lemma1_refine
from cantormeasure.trees import (
    BlockTree,
    FullTree,
    SilverTree,
    StaircaseTree,
    TableNavigator,
    contains,
    parse_tree_expr,
)
from cantormeasure.words import BinWord, all_words

U = make_named("U").presentation
BUILTINS = [FullTree(), StaircaseTree()] + [make_named(n).presentation for n in ("E", "Q", "PJ", "U")]


def _level_by_membership(P, w):
    """Branching points strictly below w, counted with contains() only."""
    count = 0
    for n in range(len(w)):
        prefix = w.prefix(n)
        if contains(P, prefix.append(0)) and contains(P, prefix.append(1)):
            count += 1
    return count


def _reference_check(text):
    """The checker as it was before the one-walk replay: every prefix of
    every cover word costs two contains() walks from the root.  Kept for
    well-formed v1 certificates, which is what the mutants below stay."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    messages = []
    try:
        header = lines[0]
        if header != "certificate lemma1 v1":
            raise ParseError(f"unexpected header {header!r}", 1)
        fields = {}
        cover = []
        agg = []
        for i, ln in enumerate(lines[1:], start=2):
            if ln == "end":
                break
            key, _, rest = ln.partition(" ")
            if key == "cover":
                node, _, lvl = rest.partition(":")
                cover.append((node, int(lvl)))
            elif key == "agg":
                lvl, _, cnt = rest.partition(":")
                agg.append((int(lvl), int(cnt)))
            elif key in ("p", "x", "k", "rounds", "mode", "bound"):
                fields[key] = rest
            else:
                raise ParseError(f"unknown certificate line {ln!r}", i)
        k = int(fields["k"])
        rounds = int(fields["rounds"])
        bound = Fraction(fields["bound"])
    except (KeyError, ValueError, IndexError, ParseError) as exc:
        return CheckResult(False, None, None, (f"malformed certificate: {exc}",))

    if fields.get("mode") == "nodes":
        recomputed = sum((Fraction(1, 2**lvl) for _, lvl in cover), Fraction(0))
    else:
        recomputed = sum((Fraction(cnt, 2**lvl) for lvl, cnt in agg), Fraction(0))

    ok = True
    if recomputed != bound:
        ok = False
        messages.append(f"cover sum {recomputed} disagrees with stated bound {bound}")
    ceiling = Fraction(2**k - 1, 2**k) ** rounds
    if bound > ceiling:
        ok = False
        messages.append(f"bound {bound} exceeds ceiling {ceiling}")

    if fields.get("mode") == "nodes" and "p" in fields:
        tree = parse_tree_expr(fields["p"])
        for node_text, lvl in cover:
            w = BinWord.from_str(node_text)
            if not contains(tree, w):
                ok = False
                messages.append(f"cover node {w} is not a node of the tree")
                continue
            actual = _level_by_membership(tree, w)
            if actual != lvl:
                ok = False
                messages.append(f"node {w}: stated level {lvl}, recomputed {actual}")
    return CheckResult(ok, bound, recomputed, tuple(messages))


def _random_tree(rng):
    if rng.random() < 0.5:
        k = rng.choice((1, 2, 3))
        return BlockTree(k, frozenset(rng.sample(list(all_words(k)), rng.randint(1, 2**k))))
    period = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))) + (-1,)
    return SilverTree(tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 2))), period)


def _certificates(rng, wanted):
    """Serialized certificates of seeded random block, Silver and builtin
    pairs, in both modes; pairs without a witness are skipped."""
    out = []
    while len(out) < wanted:
        P, X = (rng.choice(BUILTINS) if rng.random() < 0.4 else _random_tree(rng) for _ in "PX")
        try:
            cert = lemma1_refine(P, X, rng.randint(1, 3), rng.randint(1, 3),
                                 node_cap=rng.choice((2000, 4)))
        except CantorMeasureError:
            continue
        out.append(cert.serialize())
    return out


def _mutants(text, rng):
    """A flipped bit, a truncated word, a changed level, a dropped line and
    a duplicated line, each at a random cover or agg line, and the cover
    or agg lines shuffled."""
    lines = text.splitlines()
    body = [i for i, ln in enumerate(lines) if ln.startswith(("cover ", "agg "))]
    if not body:
        return []
    i = rng.choice(body)
    key, _, rest = lines[i].partition(" ")
    word, _, num = rest.partition(":")

    def replaced(new):
        return lines[:i] + [new] + lines[i + 1:]

    out = [
        replaced(f"{key} {word}:{int(num) + 1}"),
        lines[:i] + lines[i + 1:],
        lines[:i] + [lines[i]] + lines[i:],
    ]
    if key == "agg":
        # a lower level could make the count exceed 2^level, which only
        # the new checker rejects
        out.append(replaced(f"agg {int(word) + 1}:{num}"))
    else:
        lvl = int(num)
        out.append(replaced(f"cover {word}:{lvl - 1 if lvl else lvl + 2}"))
    if key == "cover" and word != "ε":
        j = rng.randrange(len(word))
        out.append(replaced(f"cover {word[:j]}{1 - int(word[j])}{word[j + 1:]}:{num}"))
        out.append(replaced(f"cover {word[:rng.randrange(len(word))]}:{num}"))
    shuffled = [lines[j] for j in body]
    rng.shuffle(shuffled)
    mixed = list(lines)
    for j, ln in zip(body, shuffled):
        mixed[j] = ln
    out.append(mixed)
    return ["\n".join(m) + "\n" for m in out]


def test_replay_agrees_with_per_prefix_reference():
    rng = random.Random(2011)
    modes = set()
    rejected = 0
    for text in _certificates(rng, 60):
        modes.add("mode nodes" in text)
        assert check_certificate(text) == _reference_check(text)
        assert check_certificate(text).ok
        for mutant in _mutants(text, rng):
            got = check_certificate(mutant)
            assert got == _reference_check(mutant), mutant
            rejected += not got.ok
    assert modes == {True, False}
    assert rejected > 100


def test_replay_reads_one_row_per_distinct_prefix(monkeypatch):
    cert = lemma1_refine(FullTree(), U, 2, 7)
    assert len(cert.cover) == 2187
    text = cert.serialize()
    reads = 0
    row = TableNavigator.row

    def counting_row(self, state):
        nonlocal reads
        reads += 1
        return row(self, state)

    monkeypatch.setattr(TableNavigator, "row", counting_row)
    result = check_certificate(text)
    assert result.ok, result.messages
    # the rows of the nodes the cover words pass through, each read once
    prefixes = {w.bits[:n] for w, _ in cert.cover for n in range(len(w))}
    assert reads == len(prefixes)
    # the cover lines in any other order give the same answer
    lines = text.splitlines()
    body = [ln for ln in lines if ln.startswith("cover ")]
    random.Random(5).shuffle(body)
    start = lines.index("mode nodes") + 1
    shuffled = lines[:start] + body + lines[start + len(body):]
    assert check_certificate("\n".join(shuffled)) == result


VALID = "certificate lemma1 v1\np full\nx blocks(2){00 11}\nk 2\nrounds 1\nmode nodes\n" \
        "cover 00:2\ncover 10:2\ncover 11:2\nbound 3/4\nend\n"
LEVELS = VALID.replace("mode nodes\ncover 00:2\ncover 10:2\ncover 11:2", "mode levels\nagg 2:3")


@pytest.mark.parametrize("text, message", [
    pytest.param(VALID.replace("cover 10:2", "cover 01x:0"),
                 "malformed certificate: not a binary word: '01x'", id="bad-bit"),
    pytest.param(VALID.replace("cover 10:2", "cover 10:-2"),
                 "malformed certificate: expected a natural number, got '-2'", id="negative-level"),
    pytest.param(VALID.replace("bound 3/4", "bound 3/0"),
                 "malformed certificate: bound is not n or n/d with d > 0: '3/0'",
                 id="zero-denominator"),
    pytest.param(VALID.replace("bound 3/4", "bound 1e-99999"),
                 "malformed certificate: bound is not n or n/d with d > 0: '1e-99999'", id="bound-syntax"),
    pytest.param(VALID.replace("cover 10:2", "cover 10:3000000"),
                 "malformed certificate: exponent 3000000 exceeds 14000", id="huge-level"),
    pytest.param(VALID.replace("rounds 1", "rounds 7001"),
                 "malformed certificate: exponent k * rounds = 14002 exceeds 14000", id="huge-ceiling"),
    pytest.param(LEVELS.replace("agg 2:3", "agg 2:5"),
                 "malformed certificate: count 5 exceeds 2^2", id="overfull-level"),
    pytest.param(VALID.replace("mode nodes", "mode node"),
                 "malformed certificate: unknown mode 'node'", id="unknown-mode"),
    pytest.param(VALID.replace("end\n", ""), "malformed certificate: no end line", id="no-end"),
    pytest.param(VALID.replace("p full\n", ""), "malformed certificate: 'p'", id="no-tree"),
    # blank lines count toward the line numbers
    pytest.param("certificate lemma1 v1\n\n\np full\nfoo bar\nend\n",
                 "malformed certificate: line 5: unknown certificate line 'foo bar'",
                 id="unknown-line-after-blanks"),
    pytest.param("\n\n" + VALID.replace("lemma1 v1", "lemma1 v0"),
                 "malformed certificate: line 3: unexpected header 'certificate lemma1 v0'",
                 id="bad-header-after-blanks"),
    # words{W} is the union of the cones [w]: below 11 the tree splits
    pytest.param(VALID.replace("p full", "p words{00 01 10 11}").replace("cover 11:2", "cover 110:2"),
                 "node 110: stated level 2, recomputed 3", id="node-inside-a-cone"),
    pytest.param(VALID.replace("p full", "p words{00 11}").replace("cover 10:2", "cover 100:3"),
                 "cover node 100 is not a node of the tree", id="not-a-node-short-of-horizon"),
    # both trees are parsed in either mode, and both are required
    pytest.param(VALID.replace("x blocks(2){00 11}", "x )))garbage"),
                 "malformed certificate: line 3: unknown tree expression or name ')'", id="garbage-x"),
    pytest.param(LEVELS.replace("x blocks(2){00 11}", "x )))garbage"),
                 "malformed certificate: line 3: unknown tree expression or name ')'",
                 id="garbage-x-levels"),
    pytest.param(LEVELS.replace("p full", "p )))garbage"),
                 "malformed certificate: line 2: unknown tree expression or name ')'",
                 id="garbage-p-levels"),
    pytest.param(LEVELS.replace("p full", "p silver[]repeat[0]"),
                 "malformed certificate: silver period must contain a -1 entry",
                 id="invalid-p-levels"),
    pytest.param(LEVELS.replace("x blocks(2){00 11}\n", ""), "malformed certificate: 'x'",
                 id="no-traced-tree"),
])
def test_malformed_certificates_are_rejected_not_raised(text, message):
    assert check_certificate(VALID).ok and check_certificate(LEVELS).ok
    result = check_certificate(text)
    assert not result.ok
    assert message in result.messages


def test_replay_past_the_staircase_cap_is_rejected_not_raised(monkeypatch):
    monkeypatch.setattr(trees, "_MAX_STAIRCASE_DEPTH", 8)
    text = VALID.replace("p full", "p staircase").replace("cover 00:2", "cover 0000000000:2")
    result = check_certificate(text)
    assert not result.ok
    assert result.messages == ("cannot replay levels: staircase: depth 9 > 8",)
