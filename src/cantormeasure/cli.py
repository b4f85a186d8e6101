"""Line-oriented script language: tree declarations plus queries.

Grammar (one statement per line, `#` starts a comment):

    tree NAME = full | staircase | words{w ...} | blocks(k){w ...}
                | silver[a ...]repeat[a ...] | table[z o, ...]
                | product(A,B) | subtree(A,w)
    query classify NAME depth D
    query measure NAME cylinder W
    query trace X in P [depth D]
    query trace-exact X in P
    query lemma1 X in P k K rounds M
    query table1
    query table2
    query phi W
    query lusin stages N
    query product-check A B depth D

K is at least 1; D, M and N are at least 0.  words{w ...} is the clopen
set of the cones of its words, which all have one length.  table[z o, ...]
lists the rows of states 0, 1, ...: the next state on 0 and on 1, - for a
missing child.  Built-in names: FULL, E, Q, PJ, U, BST.  Reports are
byte-deterministic for a given script.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import constructions, measure, splits, trees
from .errors import CantorMeasureError, ParseError, PresentationError
from .trees import TreePresentation
from .words import BinWord


@dataclass(frozen=True)
class Query:
    kind: str
    args: Tuple
    line: int


@dataclass(frozen=True)
class Script:
    declarations: Tuple[Tuple[str, TreePresentation], ...]
    queries: Tuple[Query, ...]


@dataclass(frozen=True)
class Report:
    text: str
    exit_code: int
    certificates: Tuple[str, ...]


def builtin_env() -> Dict[str, TreePresentation]:
    env: Dict[str, TreePresentation] = {"FULL": trees.FullTree()}
    for name in ("E", "Q", "PJ", "U", "BST"):
        env[name] = constructions.make_named(name).presentation
    return env


# ---------------------------------------------------------------------------
# Query kinds


# Runners take the depth clamp and the query's slot values, tree names
# resolved, and return (report lines, optional certificate text).  They
# call through the module attributes (`measure.trace_exact(...)`) so that
# a wrapper installed on a module sees every call.


def _classify(clamp, tree, depth):
    c = splits.classify(tree, depth=clamp(depth))
    flags = " ".join(
        f"{name}={'yes' if val else 'no'}"
        for name, val in (
            ("balanced", c.balanced),
            ("uniform", c.uniform),
            ("silver", c.silver),
        )
    )
    tail = "exact" if c.exact_to is None else f"up-to-depth({c.exact_to})"
    return [f"= {flags} {tail}"], None


def _measure(clamp, tree, word):
    return [f"= {measure.mu_cylinder(tree, word)}"], None


def _trace(clamp, x, p, depth):
    if depth is None:
        depth = measure.default_trace_depth(p, x)
    result = measure.trace_upper(p, x, clamp(depth))
    return [
        f"= {result.upper_bounds[-1]} at depth {len(result.upper_bounds) - 1}",
        "  bounds " + " ".join(map(str, result.upper_bounds)),
    ], None


def _trace_exact(clamp, x, p):
    return [f"= {measure.trace_exact(p, x).exact}"], None


def _lemma1(clamp, x, p, k, rounds):
    c = measure.lemma1_refine(p, x, k, rounds)
    size = sum(cnt for _, cnt in c.cover_levels)
    return [f"= bound {c.bound} cover {size} rounds {c.rounds}"], c.serialize()


def _table1(clamp):
    lines = ["= s w mu fiber"]
    for row in constructions.table1():
        lines.append(f"  {row.block} {row.projected} {row.cylinder_measure} {row.fiber_measure}")
    return lines, None


def _table2(clamp):
    return ["= s w"] + [f"  {s} {w}" for s, w in constructions.table2()], None


def _phi(clamp, word):
    return [f"= {constructions.phi(word)}"], None


def _lusin(clamp, stages):
    lt = constructions.lusin_tree(stages)
    lines = [
        f"  stage {n}: size {len(lt.stages[n])} removed {removed}"
        for n, removed in enumerate(lt.removed_mass)
    ]
    lines.append(f"= total removed {sum(lt.removed_mass)}")
    return lines, None


def _product_check(clamp, p, r, depth):
    checked = 0
    pr = trees.product(p, r)
    for w in trees.node_words(pr, clamp(depth)):
        if len(w) % 2 == 0:
            measure.product_measure(pr, w)
            checked += 1
    return [f"= ok {checked} nodes checked"], None


@dataclass(frozen=True)
class _QueryKind:
    """The tokens that follow a query kind, and the runner that answers it.

    In a template `{tree}` is a tree name, `{word}` a binary word, `{k}` an
    integer >= 1 and every other `{slot}` an integer >= 0.  The optional
    tail's slots are None when a query leaves the tail out.  Templates
    serve both parsing and rendering.
    """

    template: str
    optional: str
    runner: Callable[..., Tuple[List[str], Optional[str]]]

    def slots(self) -> List[str]:
        return [t[1:-1] for t in (self.template + " " + self.optional).split() if t[0] == "{"]


_QUERIES: Dict[str, _QueryKind] = {
    "classify": _QueryKind("{tree} depth {depth}", "", _classify),
    "measure": _QueryKind("{tree} cylinder {word}", "", _measure),
    "trace": _QueryKind("{tree} in {tree}", "depth {depth}", _trace),
    "trace-exact": _QueryKind("{tree} in {tree}", "", _trace_exact),
    "lemma1": _QueryKind("{tree} in {tree} k {k} rounds {rounds}", "", _lemma1),
    "table1": _QueryKind("", "", _table1),
    "table2": _QueryKind("", "", _table2),
    "phi": _QueryKind("{word}", "", _phi),
    "lusin": _QueryKind("stages {stages}", "", _lusin),
    "product-check": _QueryKind("{tree} {tree} depth {depth}", "", _product_check),
}


def _slot_value(slot: str, token: str, env: Dict[str, TreePresentation], line: int):
    if slot == "tree":
        if token not in env:
            raise ParseError(f"unknown name {token!r}", line)
        return token
    if slot == "word":
        return BinWord.from_str(token)
    value = int(token)
    least = 1 if slot == "k" else 0
    if value < least:
        raise ParseError(f"{slot} must be at least {least}, got {value}", line)
    return value


def _parse_query(tokens: List[str], line: int, env: Dict[str, TreePresentation]) -> Query:
    kind, given = tokens[0], tokens[1:]
    spec = _QUERIES.get(kind)
    if spec is None:
        raise ParseError(f"unknown query kind {kind!r}", line)
    required, optional = spec.template.split(), spec.optional.split()
    if len(given) == len(required) + len(optional):
        pattern = required + optional
    elif len(given) == len(required):
        pattern = required
    else:
        raise ParseError(f"malformed {kind} query: {' '.join(tokens)!r}", line)
    args = []
    for want, token in zip(pattern, given):
        if want[0] == "{":
            args.append(_slot_value(want[1:-1], token, env, line))
        elif token != want:
            raise ParseError(f"expected {want!r}, got {token!r}", line)
    args.extend([None] * (len(spec.slots()) - len(args)))
    return Query(kind, tuple(args), line)


def parse(text: str) -> Script:
    """Parse a script; positions are reported on failure."""
    env = builtin_env()
    declarations: List[Tuple[str, TreePresentation]] = []
    queries: List[Query] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tree "):
            head, eq, expr = line[5:].partition("=")
            name = head.strip()
            if not eq or not name or not name.isidentifier():
                raise ParseError(f"malformed tree declaration: {raw!r}", lineno)
            if name in env:
                raise ParseError(f"duplicate name {name!r}", lineno)
            tree = trees.parse_tree_expr(expr.strip(), env, lineno)
            env[name] = tree
            declarations.append((name, tree))
        elif line.startswith("query "):
            try:
                queries.append(_parse_query(line[6:].split(), lineno, env))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError(f"expected 'tree' or 'query': {raw!r}", lineno)
    return Script(tuple(declarations), tuple(queries))


def render_query(q: Query) -> str:
    spec = _QUERIES[q.kind]
    pattern = spec.template.split()
    tail = q.args[sum(t[0] == "{" for t in pattern):]
    if any(a is not None for a in tail):
        pattern += spec.optional.split()
    values = iter(q.args)
    return " ".join(["query", q.kind] + [str(next(values)) if t[0] == "{" else t for t in pattern])


def render_script(script: Script) -> str:
    """Canonical text form; reparsing yields an identical structure."""
    lines = [f"tree {name} = {tree}" for name, tree in script.declarations]
    lines.extend(render_query(q) for q in script.queries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Execution


def _run_query(
    q: Query, env: Dict[str, TreePresentation], max_depth: Optional[int]
) -> Tuple[bool, List[str], Optional[str]]:
    """Returns (ok, report lines, optional certificate text)."""

    def clamp(d: int) -> int:
        return d if max_depth is None else min(d, max_depth)

    spec = _QUERIES[q.kind]
    values = [env[a] if slot == "tree" else a for slot, a in zip(spec.slots(), q.args)]
    try:
        lines, cert = spec.runner(clamp, *values)
        return True, lines, cert
    except CantorMeasureError as exc:
        return False, [f"! error({exc.kind}): {exc}"], None


def run(script: Script, max_depth: Optional[int] = None) -> Report:
    """Execute all queries; one query's failure never aborts the rest."""
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    env = builtin_env()
    env.update(dict(script.declarations))
    blocks: List[str] = []
    certificates: List[str] = []
    all_ok = True
    for q in script.queries:
        ok, lines, cert = _run_query(q, env, max_depth)
        blocks.append("\n".join([render_query(q)] + lines))
        if cert is not None:
            certificates.append(cert)
        all_ok = all_ok and ok
    text = "\n\n".join(blocks) + "\n" if blocks else ""
    return Report(text, 0 if all_ok else 3, tuple(certificates))


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cantormeasure",
        description="Exact measure computations on finitely presented perfect trees",
    )
    parser.add_argument("script", help="script file, or - for stdin")
    parser.add_argument("--certs", metavar="PATH", help="write certificates to PATH")
    parser.add_argument("--max-depth", type=int, default=None, help="global depth cap")
    args = parser.parse_args(argv)
    if args.max_depth is not None and args.max_depth < 0:
        print(f"--max-depth must be at least 0, got {args.max_depth}", file=sys.stderr)
        return 1

    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return 1

    try:
        script = parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except PresentationError as exc:
        print(f"invalid presentation: {exc}", file=sys.stderr)
        return 2

    report = run(script, max_depth=args.max_depth)
    sys.stdout.write(report.text)
    if args.certs and report.certificates:
        with open(args.certs, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.certificates))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
