"""Script language: parsing, execution, error containment, determinism."""

import pytest

from cantormeasure import measure, trees
from cantormeasure.cli import builtin_env, main, parse, render_script, run
from cantormeasure.errors import ParseError, PresentationError
from cantormeasure.trees import BlockTree, FullTree
from cantormeasure.words import BinWord


def test_builtins_present():
    env = builtin_env()
    assert set(env) == {"FULL", "E", "Q", "PJ", "U", "BST"}
    assert isinstance(env["FULL"], FullTree)
    assert isinstance(env["E"], BlockTree)


def test_parse_declarations_and_queries():
    script = parse(
        """
        # a comment
        tree A = blocks(2){00 11}
        tree B = product(A, FULL)   # trailing comment
        query measure A cylinder 0011
        query classify B depth 16
        """
    )
    assert [name for name, _ in script.declarations] == ["A", "B"]
    assert [q.kind for q in script.queries] == ["measure", "classify"]


def test_parse_rejects_bad_lines():
    with pytest.raises(ParseError):
        parse("measure A cylinder 00")  # missing keyword
    with pytest.raises(ParseError):
        parse("tree 2bad = full")
    with pytest.raises(ParseError):
        parse("tree A = full\ntree A = full")
    with pytest.raises(ParseError):
        parse("tree FULL = full")  # shadows a builtin
    with pytest.raises(ParseError):
        parse("query measure NOPE cylinder 0")
    with pytest.raises(ParseError):
        parse("query frobnicate")
    for query in (
        "query measure A cylinder 2",
        "query lemma1 A in FULL k 0 rounds 2",
        "query lemma1 A in FULL k 1 rounds -1",
        "query classify A depth -3",
        "query trace A in FULL depth -1",
        "query product-check A FULL depth -2",
        "query lusin stages -1",
        "query trace A in FULL depth",
    ):
        with pytest.raises(ParseError) as err:
            parse("tree A = full\n" + query)
        assert err.value.line == 2


def test_parse_rejects_invalid_presentations():
    with pytest.raises(PresentationError):
        parse("tree S = silver[-1 0]repeat[0]")
    with pytest.raises(PresentationError):
        parse("tree B = blocks(2){00 1}")


def test_render_round_trip():
    text = """tree A = blocks(2){00 11}
tree B = subtree(FULL,01)
tree C = silver[1]repeat[-1 0]
query measure A cylinder 00
query trace A in FULL depth 8
query trace-exact A in FULL
query lemma1 U in FULL k 2 rounds 2
query table1
query phi 01
query lusin stages 2
query product-check A C depth 4
query classify B depth 12
"""
    script = parse(text)
    rendered = render_script(script)
    assert parse(rendered) == script
    assert render_script(parse(rendered)) == rendered


def test_run_basic_values():
    report = run(parse("query measure Q cylinder 0111"))
    assert "= 1/4" in report.text
    assert report.exit_code == 0

    report = run(parse("query trace U in FULL depth 10"))
    assert "= 1/32 at depth 10" in report.text

    report = run(parse("query trace-exact U in FULL"))
    assert "= 0" in report.text

    report = run(parse("query phi 000"))
    assert "= 10100010000000" in report.text


def test_rationals_print_as_fractions_do():
    # lowest terms, and an integer without a denominator
    report = run(parse("query measure E cylinder 1\nquery trace-exact U in U\n"))
    assert report.text == "query measure E cylinder 1\n= 1/2\n\nquery trace-exact U in U\n= 1\n"


def test_run_lemma1_emits_certificate():
    report = run(parse("query lemma1 U in FULL k 2 rounds 4"))
    assert "bound 81/256" in report.text
    assert len(report.certificates) == 1
    assert report.certificates[0].startswith("certificate lemma1 v1")


def test_run_contains_errors_per_query():
    report = run(
        parse(
            """
            tree W = words{00 11}
            query trace-exact BST in W
            query measure W cylinder 000
            """
        )
    )
    assert report.exit_code == 3
    assert "error(unsupported)" in report.text
    assert report.text.endswith("= 1/4\n")  # the later query still ran


def test_run_witness_not_found_is_reported():
    report = run(parse("query lemma1 FULL in FULL k 2 rounds 1"))
    assert report.exit_code == 3
    assert "error(witness-not-found)" in report.text


def test_run_deterministic_across_runs():
    text = """tree A = blocks(3){000 001 011 111}
query classify A depth 24
query trace A in FULL depth 12
query measure A cylinder 000
query lemma1 U in FULL k 2 rounds 3
query table2
"""
    script = parse(text)
    assert run(script) == run(script) == run(parse(text))


def test_max_depth_caps_queries():
    report = run(parse("query trace U in FULL depth 40"), max_depth=6)
    assert "at depth 6" in report.text


def test_explicit_trees_are_clopen_sets_with_exact_answers():
    # words{W} is the union of the cones [w], w in W: a finite automaton, so
    # classify, trace-exact and lemma1 answer exactly on it, on a stem over
    # it and on a product with it, at any depth
    report = run(parse(
        "tree T = words{00 01 10 11}\n"
        "tree A = subtree(T,0)\n"
        "tree B = product(T,FULL)\n"
        "tree W = words{00 11}\n"
        "tree V = words{00}\n"
        "query classify T depth 5\n"
        "query classify A depth 5\n"
        "query classify B depth 5\n"
        "query classify W depth 5\n"
        "query measure W cylinder 00000\n"
        "query trace-exact W in FULL\n"
        "query trace-exact V in FULL\n"
        "query lemma1 W in FULL k 2 rounds 1\n"
        "query lemma1 W in FULL k 2 rounds 2\n"
    ))
    assert [line for line in report.text.splitlines() if line.startswith(("!", "="))] == [
        "= balanced=yes uniform=yes silver=yes exact",
        "= balanced=yes uniform=yes silver=yes exact",
        "= balanced=yes uniform=yes silver=yes exact",
        "= balanced=yes uniform=yes silver=no exact",
        "= 1/16",
        "= 1/2",
        "= 1/4",
        "= bound 3/4 cover 3 rounds 1",
        # the cone below 00 lies inside W: no window escapes it
        "! error(witness-not-found): no escape window below 00",
    ]


def test_every_report_kind_is_printed():
    report = run(parse(
        "tree N = blocks(2){00}\n"
        "query lemma1 FULL in FULL k 2 rounds 1\n"
        "query trace-exact BST in E\n"
        "query lusin stages 9\n"
        "query classify N depth 8\n"
    ))
    assert [line for line in report.text.splitlines() if line.startswith("!")] == [
        "! error(witness-not-found): no escape window below ε",
        "! error(unsupported): trace_exact needs finite-state presentations on both sides",
        "! error(cap): stage 9 would have 574864 nodes (cap 100000)",
        "! error(presentation): no branching point below a node; tree not perfect",
    ]
    assert report.exit_code == 3
    # a domain error without a kind of its own reports the base class's
    assert ParseError("bad", 1).kind == "other"


def test_a_product_past_the_table_cap_stays_lazy(monkeypatch):
    # PJ has 79 states and product(PJ,PJ) 2063, so the product of two such
    # products has too many states to tabulate; B's cylinder 0111 is A's
    # cylinders 01 and 11, in a table of A built under the default cap
    PJ = builtin_env()["PJ"]
    A = trees.product(PJ, PJ)
    assert A.navigator().rows is not None
    expected = measure.mu_cylinder(A, BinWord((0, 1))) * measure.mu_cylinder(A, BinWord((1, 1)))
    monkeypatch.setattr(trees, "_MAX_PRODUCT_STATES", 1000)
    monkeypatch.setattr(measure, "_MAX_PRODUCT_STATES", 1000)
    script = parse(
        "tree A = product(PJ,PJ)\n"
        "tree B = product(A,A)\n"
        "query measure B cylinder 0111\n"
        "query trace-exact A in B\n"
    )
    assert [tree.navigator().rows for _, tree in script.declarations] == [None, None]
    report = run(script)
    assert [line for line in report.text.splitlines() if line.startswith(("!", "="))] == [
        f"= {expected}",
        "! error(cap): trace-exact: product states > 1000",
    ]


def test_lemma1_on_a_lazy_product_stops_at_the_pair_cap(monkeypatch):
    # B stays lazy past the table cap, and lemma1 searches its windowless
    # pairs until it holds the cap's number of them
    monkeypatch.setattr(trees, "_MAX_PRODUCT_STATES", 1000)
    monkeypatch.setattr(measure, "_MAX_PRODUCT_STATES", 1000)
    script = parse(
        "tree A = product(PJ,PJ)\n"
        "tree B = product(A,A)\n"
        "query lemma1 FULL in B k 1 rounds 1\n"
    )
    assert script.declarations[1][1].navigator().rows is None
    report = run(script)
    assert report.text.splitlines()[-1] == "! error(cap): lemma1: product states > 1000"


def test_staircase_queries_stop_at_its_depth_cap(monkeypatch):
    # the staircase generates its levels down to the cap, and a query that
    # needs a deeper one fails with a typed error; the script goes on
    monkeypatch.setattr(trees, "_MAX_STAIRCASE_DEPTH", 30)
    report = run(parse(
        "query trace U in BST depth 14000\n"
        "query classify BST depth 100\n"
        "query measure BST cylinder " + "0" * 40 + "\n"
        "query classify BST depth 24\n"
    ))
    assert [line for line in report.text.splitlines() if line.startswith(("!", "="))] == [
        "! error(cap): staircase: depth 31 > 30",
        "! error(cap): staircase: depth 31 > 30",
        "! error(cap): staircase: depth 31 > 30",
        "= balanced=yes uniform=no silver=no up-to-depth(24)",
    ]
    assert report.exit_code == 3


def test_caps_are_reported_and_the_script_goes_on(monkeypatch):
    monkeypatch.setattr(measure, "_MAX_PRODUCT_STATES", 7000)
    report = run(parse(
        "tree P = product(product(Q,Q),FULL)\n"
        "tree X = product(product(E,Q),PJ)\n"
        "query trace-exact X in P\n"
        "query lemma1 U in FULL k 17 rounds 1\n"
        "query trace E in Q depth 20000\n"
        "query lemma1 U in FULL k 1 rounds 15000\n"
        "query measure Q cylinder 0111\n"
    ))
    assert [line for line in report.text.splitlines() if line.startswith(("!", "="))] == [
        "! error(cap): trace-exact: product states > 7000",
        "! error(cap): lemma1: window length 17 > 16",
        "! error(cap): trace: depth 20000 > 14000",
        "! error(cap): lemma1: k * rounds = 15000 > 14000",
        "= 1/4",
    ]
    assert report.exit_code == 3
    assert report.certificates == ()


def test_negative_max_depth_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError):
        run(parse("query classify BST depth 5"), max_depth=-2)
    script = tmp_path / "s.cms"
    script.write_text("query classify BST depth 5\n")
    assert main([str(script), "--max-depth", "-2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--max-depth" in err
    assert main([str(script), "--max-depth", "0"]) == 0


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cms"
    good.write_text("query measure Q cylinder 0111\n")
    assert main([str(good)]) == 0
    assert "= 1/4" in capsys.readouterr().out

    bad_parse = tmp_path / "bad_parse.cms"
    bad_parse.write_text("query what\n")
    assert main([str(bad_parse)]) == 1

    bad_tree = tmp_path / "bad_tree.cms"
    bad_tree.write_text("tree S = silver[]repeat[0]\n")
    assert main([str(bad_tree)]) == 2

    failing = tmp_path / "failing.cms"
    failing.write_text("query trace-exact BST in E\n")
    assert main([str(failing)]) == 3

    assert main([str(tmp_path / "missing.cms")]) == 1


def test_main_writes_certificates(tmp_path, capsys):
    script = tmp_path / "s.cms"
    script.write_text("query lemma1 U in FULL k 2 rounds 2\n")
    certs = tmp_path / "out.certs"
    assert main([str(script), "--certs", str(certs)]) == 0
    capsys.readouterr()
    assert certs.read_text().startswith("certificate lemma1 v1")
