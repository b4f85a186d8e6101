"""Seeded generators for the three benchmark workloads.

A workload is a tuple of script texts plus a list of operations; an
operation names one query of one script and the outcome the generator
expects from it.  Generation uses only `random.Random` seeded by the
workload name and seed and the benchmark's own automata (`model.py`), so
the same seed gives byte-identical scripts at every commit.  Every
generated tree is perfect: block trees are drawn until `model.is_perfect`
holds, Silver trees split in every period, and products of perfect trees
are perfect.  The harness confirms it with the program's `validate`.

Why each workload exists is recorded in BENCHMARK.json:
  script-mix   a script user's mix of every query kind over shared trees;
  exact-solve  trace-exact on distinct pairs sized up to the cubic cliff
               of the dense rational solve, half of them with a value
               strictly between 0 and 1;
  certify      lemma1 certificates emitted and replayed at several round
               counts, in both explicit-node and level-aggregate modes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import model

WORKLOADS = ("script-mix", "exact-solve", "certify")

# Built-in finite-state trees, as the README defines them.
BUILTIN_BLOCKS = {
    "E": (3, ("000", "001", "011", "111")),
    "Q": (4, ("0000", "0001", "0011", "0111", "1000", "1001", "1011", "1111")),
    "PJ": (8, (
        "00000000", "00010111", "00101011", "00111111",
        "01001010", "01011111", "01101011", "01111111",
        "10000101", "10010111", "10101111", "10111111",
        "11001111", "11011111", "11101111", "11111111",
    )),
    "U": (2, ("00", "11")),
}

# The program keeps explicit cover nodes up to this many per certificate
# (lemma1_refine's default node_cap) and aggregates by level beyond it.
NODE_CAP = 20000


@dataclass(frozen=True)
class Op:
    """One operation: query `query` of script `script`."""

    script: int
    query: int
    kind: str
    expect: str  # "ok" or the expected typed error kind
    check: Dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scripts: Tuple[str, ...]
    ops: Tuple[Op, ...]
    repeat: bool  # whether a pass runs the whole op list again
    pass_size: int  # ops in one pass: the op list, or one round of a pool
    passes: int  # passes whose median latencies give the metrics
    tail: float  # the tail percentile: at least ten figures lie beyond it


@dataclass(frozen=True)
class Tree:
    """A generated presentation: its DSL text and the benchmark's automaton."""

    dsl: str
    auto: model.Auto


def _block(k: int, blocks) -> Tree:
    blocks = tuple(sorted(blocks))
    return Tree(f"blocks({k}){{{' '.join(blocks)}}}", model.block_auto(k, frozenset(blocks)))


def _silver(prefix, period) -> Tree:
    pre = " ".join(str(a) for a in prefix)
    per = " ".join(str(a) for a in period)
    return Tree(f"silver[{pre}]repeat[{per}]", model.silver_auto(prefix, period))


def _product(a: Tree, b: Tree) -> Tree:
    return Tree(f"product({a.dsl},{b.dsl})", model.product_auto(a.auto, b.auto))


FULL = Tree("full", model.full_auto())
BUILTINS = {name: _block(k, bs) for name, (k, bs) in BUILTIN_BLOCKS.items()}
BUILTINS["FULL"] = FULL


def rand_block(rng: random.Random, k: int, min_blocks: int = 2) -> Tree:
    words = [format(i, f"0{k}b") for i in range(2**k)]
    while True:
        tree = _block(k, rng.sample(words, rng.randint(min_blocks, 2**k - 1)))
        if model.is_perfect(tree.auto):
            return tree


def rand_silver(rng: random.Random, max_period: int = 5) -> Tree:
    prefix = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))]
    period = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, max_period))]
    if -1 not in period:
        period[rng.randrange(len(period))] = -1
    return _silver(prefix, period)


def rand_node_word(rng: random.Random, auto: model.Auto, length: int) -> str:
    state, out = auto.initial, []
    for _ in range(length):
        b = rng.choice(auto.bits(state))
        out.append(str(b))
        state = auto.step(state, b)
    return "".join(out)


def lemma1_sizes(p: Tree, x: Tree, k: int, rounds: int):
    """The model's figures for rounds 1..rounds, or None if it fails."""
    sizes = list(itertools.islice(model.RefineModel(p.auto, x.auto, k).rounds(), rounds))
    return None if None in sizes else sizes


def generate(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    draw = {"script-mix": _script_mix, "exact-solve": _exact_solve, "certify": _certify}[name]
    scripts, ops, repeat = draw(rng)
    pass_size = len(ops) if repeat else len(EXACT_ROUND)
    # the highest whole percentile with at least ten of a pass's figures beyond it
    tail = float(math.floor(100 * (1 - 10 / pass_size)))
    return Workload(name, seed, tuple(scripts), tuple(ops), repeat, pass_size,
                    PASSES[name], tail)


# Passes measured in a run.
PASSES = {"script-mix": 8, "exact-solve": 7, "certify": 7}


# ---------------------------------------------------------------------------
# script-mix


SCRIPT_MIX_SCRIPTS = 8
# Every script has the same query slots; the seed draws the trees and the
# words.  Fixed slots keep each query's cost, and so the sorted latencies
# of a pass, about the same from seed to seed.
_MEASURED = ("B1", "B2", "S1", "S2", "P1", "P2", "E", "Q", "PJ", "U", "B1", "S2", "P1", "P2")
_OFF_TREE = ("B2", "P2")  # these measure words are random, most leave the tree
# Measure words are this long: deep enough that the walk, not the fixed cost
# of a query, sets the median operation's time, which then varies little
# from seed to seed.
MEASURE_DEPTH = 320
_EXTRA = ("table1", "table2", "phi 010110", "lusin stages 4")


def _script_mix(rng: random.Random):
    scripts: List[str] = []
    ops: List[Op] = []
    for s in range(SCRIPT_MIX_SCRIPTS):
        trees: Dict[str, Tree] = {
            "B1": rand_block(rng, 3),
            "B2": rand_block(rng, 4),
            "S1": rand_silver(rng),
            "S2": rand_silver(rng),
        }
        trees["P1"] = _product(trees["B1"], trees["S1"])
        trees["P2"] = _product(trees["S2"], trees["B2"])
        lines = [f"tree {n} = {trees[n].dsl}" for n in ("B1", "B2", "S1", "S2")]
        lines += ["tree P1 = product(B1,S1)", "tree P2 = product(S2,B2)"]
        env = dict(BUILTINS)
        env.update(trees)
        names = list(trees) + ["E", "Q", "PJ", "U"]
        queries: List[Tuple[str, str, Dict]] = []

        for n in _MEASURED:
            if n in _OFF_TREE:
                w = "".join(rng.choice("01") for _ in range(MEASURE_DEPTH))
            else:
                w = rand_node_word(rng, env[n].auto, MEASURE_DEPTH)
            queries.append((f"measure {n} cylinder {w}", "ok", {"measure": (env[n].auto, w)}))
        queries.append(("classify P1 depth 32", "ok", {}))
        queries.append(("classify BST depth 100", "ok", {}))
        queries.append(("trace S2 in B1 depth 12", "ok", {}))
        queries.append(("trace B2 in BST depth 24", "ok", {}))
        queries.append(_small_trace_exact(rng, env, names))
        for _ in range(2):
            queries.append(_small_lemma1(rng, env, names))
        # The same fruitless search in every script: its eight copies top a
        # pass, so the tail percentile falls inside the next group of equal
        # queries, the eight `classify BST`, not on the edge between groups.
        queries.append((f"lemma1 FULL in E k 1 rounds {rng.randint(1, 6)}",
                        "witness-not-found", {}))
        depth = 12
        while model.node_count(model.product_auto(env["B1"].auto, env["S1"].auto), depth) > 400:
            depth -= 1
        queries.append((f"product-check B1 S1 depth {depth}", "ok",
                        {"product_nodes": (env["B1"].auto, env["S1"].auto, depth)}))
        queries.append((_EXTRA[s % len(_EXTRA)], "ok", {}))

        rng.shuffle(queries)
        for i, (text, expect, check) in enumerate(queries):
            lines.append(f"query {text}")
            ops.append(Op(s, i, text.split()[0], expect, check))
        scripts.append("\n".join(lines) + "\n")
    return scripts, ops, True


def _small_trace_exact(rng: random.Random, env: Dict[str, Tree], names: List[str]):
    for _ in range(500):
        x, p = rng.choice(names), rng.choice(names)
        system = model.trace_system(env[p].auto, env[x].auto)
        if 8 <= len(system.rows) <= 16:
            return (f"trace-exact {x} in {p}", "ok", {"value": system.value()})
    value = model.trace_system(BUILTINS["E"].auto, BUILTINS["U"].auto).value()
    return ("trace-exact U in E", "ok", {"value": value})


def _small_lemma1(rng: random.Random, env: Dict[str, Tree], names: List[str]):
    for _ in range(500):
        x, p = rng.sample(names, 2)
        k = rng.choice((1, 2, 3))
        rounds = rng.randint(2, 6)
        sizes = lemma1_sizes(env[p], env[x], k, rounds)
        if sizes is not None and 100 <= sizes[-1][0] <= 600 and max(f[0] for f in sizes) <= 600:
            return (f"lemma1 {x} in {p} k {k} rounds {rounds}", "ok",
                    {"lemma1": _lemma1_check(sizes, k, rounds)})
    sizes = lemma1_sizes(FULL, BUILTINS["U"], 2, 4)
    return ("lemma1 U in FULL k 2 rounds 4", "ok", {"lemma1": _lemma1_check(sizes, 2, 4)})


def _lemma1_check(sizes, k: int, rounds: int) -> Dict:
    size, bound = sizes[-1][:2]
    mode = "nodes" if max(f[0] for f in sizes) <= NODE_CAP else "levels"
    return {"k": k, "rounds": rounds, "cover": size, "bound": str(bound), "mode": mode}


# ---------------------------------------------------------------------------
# exact-solve

# One round of draws: a slot for each (shape, cost band).  Half the shapes
# have a trace value strictly between 0 and 1, the other half value 0:
#   block, silver, product     value 0: no state of value 1 is reachable, so
#                              every state of the system has value 0;
#   silver-frac, stem-frac,    0 < value < 1: the draw reaches states of
#   product-frac               value 1 and also leaves X with positive mass.
# In these finite-state presentations the automata fall into step at some
# depth, so the states of positive value form an acyclic region before it;
# the cyclic systems are the value-0 ones.
#
# The cost band is the elimination work (model.elimination_work), which
# tracks the cost of the program's dense rational solve, cubic in the
# unknowns.  The bands run from cheap solves to the onset of the cubic
# cliff (about a fifth of a second at this benchmark's first commit).
# Each band is narrow, so the cost of a slot is about the same from seed to
# seed, and a run takes each slot's median draw over its first rounds.
EXACT_SHAPES = ("block", "silver", "product", "silver-frac", "stem-frac", "product-frac")
EXACT_BANDS = (1500, 3000, 6000, 10000, 16000, 25000, 40000)
EXACT_BAND_WIDTH = 0.1  # a draw's work lies within this share of its band
EXACT_ROUND = tuple((shape, band) for band in EXACT_BANDS for shape in EXACT_SHAPES)
# A run measures its first rounds (PASSES); the pool holds more so that a
# run goes on for its whole time, and stops rather than repeat a pair.
EXACT_ROUNDS = 8


def _silver_windows(prefix, period, k: int, start: int):
    """The length-k words the Silver tree can read at block boundaries
    (multiples of k) from depth `start` on."""
    first = -(-start // k)
    out = set()
    for m in range(first, first + len(period)):
        entries = [period[(m * k + j - len(prefix)) % len(period)] for j in range(k)]
        for bits in itertools.product(*[(0, 1) if e == -1 else (e,) for e in entries]):
            out.add("".join(map(str, bits)))
    return out


def _entries(rng: random.Random, n: int, split_weight: int):
    return [rng.choice((-1,) * split_weight + (0, 1)) for _ in range(n)]


def _silver_frac(rng: random.Random, k: int, prefix_len):
    """X a block tree holding every block the Silver tree P reads after its
    prefix, so P falls into X from there; P's prefix may still leave X."""
    words = [format(i, f"0{k}b") for i in range(2**k)]
    while True:
        prefix = _entries(rng, rng.randint(*prefix_len), 2)
        period = _entries(rng, rng.randint(2, 6), 1)
        if -1 not in period:
            period[rng.randrange(len(period))] = -1
        need = _silver_windows(prefix, period, k, len(prefix))
        extra = [w for w in words if w not in need]
        if not extra:
            continue
        x = _block(k, need | set(rng.sample(extra, rng.randint(0, len(extra) - 1))))
        if model.is_perfect(x.auto):
            return x, _silver(prefix, period)


def _stem_frac(rng: random.Random, k: int, prefix_len):
    """X a Silver tree whose period of length k admits every block of the
    block tree P, so P falls into X after X's prefix; the prefix may not."""
    words = [format(i, f"0{k}b") for i in range(2**k)]
    while True:
        prefix = _entries(rng, rng.randint(*prefix_len), 8)
        period = _entries(rng, k, 2)
        if -1 not in period:
            period[rng.randrange(k)] = -1
        fits = [w for w in words
                if all(period[(j - len(prefix)) % k] in (-1, int(c)) for j, c in enumerate(w))]
        if len(fits) < 2:
            continue
        p = _block(k, rng.sample(fits, rng.randint(2, len(fits))))
        if model.is_perfect(p.auto):
            return _silver(prefix, period), p


def _exact_pair(rng: random.Random, shape: str):
    """(X, P, component pairs or None) for one draw of the given shape."""
    if shape == "block":
        return rand_block(rng, rng.choice((3, 4, 5))), rand_block(rng, rng.choice((3, 4, 5))), None
    if shape == "silver":
        return rand_block(rng, rng.choice((3, 4, 5))), rand_silver(rng, 8), None
    if shape == "silver-frac":
        return _silver_frac(rng, rng.choice((4, 5)), (6, 20)) + (None,)
    if shape == "stem-frac":
        return _stem_frac(rng, rng.choice((4, 5)), (8, 36)) + (None,)
    if shape == "product-frac":
        parts = []
        for _ in range(2):
            draw = _silver_frac if rng.random() < 0.5 else _stem_frac
            parts.append(draw(rng, rng.choice((3, 4)), (2, 8)))
    else:
        xa, xb = rand_block(rng, rng.choice((2, 3))), rand_block(rng, rng.choice((2, 3)))
        pa = rand_silver(rng) if rng.random() < 0.5 else rand_block(rng, rng.choice((2, 3)))
        parts = [(xa, pa), (xb, rand_block(rng, rng.choice((2, 3, 4))))]
    (xa, pa), (xb, pb) = parts
    return _product(xa, xb), _product(pa, pb), tuple(parts)


def _exact_solve(rng: random.Random):
    scripts: List[str] = []
    ops: List[Op] = []
    seen = set()
    for _ in range(EXACT_ROUNDS):
        for shape, band in EXACT_ROUND:
            lo, hi = band * (1 - EXACT_BAND_WIDTH), band * (1 + EXACT_BAND_WIDTH)
            while True:
                x, p, parts = _exact_pair(rng, shape)
                if (x.dsl, p.dsl) in seen:
                    continue
                system = model.trace_system(p.auto, x.auto)
                if system.sign() != (-1 if shape.endswith("-frac") else 0):
                    continue
                # n unknowns give at most n(n-1)(n+1) elimination work
                rows = system.rows
                if len(rows) ** 3 >= lo and lo <= model.elimination_work(rows, hi) <= hi:
                    value = system.value()
                    if value is not None:
                        break
            seen.add((x.dsl, p.dsl))
            check = {"value": value}
            if parts is not None:
                check["components"] = [[a.dsl, b.dsl] for a, b in parts]
            scripts.append(f"tree X = {x.dsl}\ntree P = {p.dsl}\nquery trace-exact X in P\n")
            ops.append(Op(len(scripts) - 1, 0, "trace-exact", "ok", check))
    return scripts, ops, False


# ---------------------------------------------------------------------------
# certify

# Operations per band; with the witness-not-found ones, 60 in all.  Sorted
# by cost, the median falls inside the medium band and the tail percentile
# inside the large one, each a band of many operations, so that neither
# hangs on the cost of one operation.
CERTIFY_QUOTA = {"small": 20, "medium": 20, "large": 15, "levels": 3}
CERTIFY_MAX_ROUNDS = 14
# Round-count bands on the model's figures.  Emitting and replaying an
# explicit cover costs about the sum of its squared word lengths plus
# NODE_WEIGHT times its size (a fit to timings at this benchmark's first
# commit, within a tenth for half the operations).  The first round whose
# cover passes NODE_CAP is written as level aggregates; its cost and memory
# follow that round's size and squared lengths, and the member filter of
# lemma1_refine's explicit loop adds the previous rounds' cover size times
# classes, kept under LEVELS_FILTER.  Narrow bands keep the cost of a pass
# steady from seed to seed.
NODE_WEIGHT = 120
NODE_BANDS = {"small": (11_000, 15_000), "medium": (34_000, 42_000),
              "large": (69_000, 83_000)}
LEVELS_COVER = (20_500, 24_000)
LEVELS_SQUARES = (15_000_000, 25_000_000)
LEVELS_FILTER = 1_000_000
# Trees whose every branch stays inside the traced tree: lemma1 must answer
# witness-not-found for these, whatever the round count.
CERTIFY_WNF = (("FULL", "E", 1),)


def _certify_bands(rng: random.Random):
    """A random (X, P, k) and the round count it gives in each band it hits."""
    p = rand_silver(rng) if rng.random() < 0.4 else rand_block(rng, rng.choice((2, 3, 4)))
    x = rand_block(rng, rng.choice((2, 3, 4)))
    k = rng.choice((2, 3))
    sizes = []
    bands: Dict[str, int] = {}
    filtered = 0
    for r, figures in enumerate(model.RefineModel(p.auto, x.auto, k).rounds(), start=1):
        if figures is None or r > CERTIFY_MAX_ROUNDS:
            break
        if sizes:  # the previous round's cover size times its classes
            filtered += sizes[-1][0] * sizes[-1][3]
        sizes.append(figures)
        size, _, squares, _ = figures
        if size > NODE_CAP:
            if (LEVELS_COVER[0] <= size <= LEVELS_COVER[1]
                    and LEVELS_SQUARES[0] <= squares <= LEVELS_SQUARES[1]
                    and filtered <= LEVELS_FILTER):
                bands["levels"] = r
            break
        cost = squares + NODE_WEIGHT * size
        for band, (lo, hi) in NODE_BANDS.items():
            if lo <= cost <= hi:
                bands[band] = r
    return x, p, k, {band: (r, _lemma1_check(sizes[:r], k, r)) for band, r in bands.items()}


def _certify(rng: random.Random):
    # Each band gets its quota of operations, from triples that hit at
    # least two bands, so every triple repeats across round counts.
    quota = dict(CERTIFY_QUOTA)
    entries = []
    while any(quota.values()):
        x, p, k, bands = _certify_bands(rng)
        if len(bands) < 2 or not any(quota[b] for b in bands):
            continue
        for band in sorted(bands):
            if quota[band]:
                quota[band] -= 1
                r, check = bands[band]
                entries.append((x.dsl, p.dsl, k, r, "ok", {"lemma1": check}))
    for xname, pname, k in CERTIFY_WNF:
        for r in sorted(rng.sample(range(1, 11), 2)):
            entries.append((xname, pname, k, r, "witness-not-found", {}))
    rng.shuffle(entries)
    scripts: List[str] = []
    ops: List[Op] = []
    for x, p, k, r, expect, check in entries:
        lines = []
        names = []
        for label, dsl in (("X", x), ("P", p)):
            if dsl in BUILTINS:
                names.append(dsl)
            else:
                lines.append(f"tree {label} = {dsl}")
                names.append(label)
        lines.append(f"query lemma1 {names[0]} in {names[1]} k {k} rounds {r}")
        scripts.append("\n".join(lines) + "\n")
        ops.append(Op(len(scripts) - 1, 0, "lemma1", expect, check))
    return scripts, ops, True
