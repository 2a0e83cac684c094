import random
import re

import pytest

from helpers import (
    CALL_CHURN_SPEC,
    CONTAINER_STRESS_SPEC,
    FAN_OUT_INIT_SPEC,
    canonical_serialize,
    count_terminals,
    derive_by_rewriting,
    has_nonterminals,
    random_seq,
    render_spec,
    rewrite_once,
)
from lsysbench import astgen, grammar
from lsysbench.grammar import (
    Construct,
    DerivationLimitError,
    NonTerminal,
    SpecError,
    SpecParseError,
    Terminal,
    derive,
    nesting_depth,
    parse_items,
    parse_spec,
    total_items,
)


def test_parse_simple_spec():
    spec = parse_spec("A = new B B\nB = insert\n")
    assert spec.axiom == (Terminal("new"), NonTerminal("B"), NonTerminal("B"))
    assert set(spec.productions) == {"A", "B"}
    assert spec.productions["B"] == (Terminal("insert"),)


def test_axiom_defaults_to_first_rule_rhs():
    spec = parse_spec("X = insert remove\nY = contains\n")
    assert spec.axiom == spec.productions["X"]


def test_axiom_override():
    spec = parse_spec("AXIOM = Y Y\nX = insert\nY = remove\n")
    assert spec.axiom == (NonTerminal("Y"), NonTerminal("Y"))
    assert "AXIOM" not in spec.productions


def test_comments_semicolons_blank_lines():
    text = """
    # leading comment
    A0 = A1 A1 ;   # trailing comment

    A1 =   insert   insert;
    """
    spec = parse_spec(text)
    assert spec.productions["A0"] == (NonTerminal("A1"), NonTerminal("A1"))
    assert spec.productions["A1"] == (Terminal("insert"), Terminal("insert"))


def test_constructs_parse():
    spec = parse_spec("A = IF(insert, remove, contains) LOOP(new) CALL(B)\n")
    if_item, loop_item, call_item = spec.axiom
    assert if_item == Construct(
        "IF",
        (
            (Terminal("insert"),),
            (Terminal("remove"),),
            (Terminal("contains"),),
        ),
    )
    assert loop_item == Construct("LOOP", ((Terminal("new"),),))
    assert call_item == Construct("CALL", ((NonTerminal("B"),),))
    assert isinstance(call_item, Construct)


def test_empty_blocks_allowed():
    seq = parse_items("IF(,) LOOP() CALL()")
    assert seq[0] == Construct("IF", ((), ()))
    assert seq[1] == Construct("LOOP", ((),))
    assert seq[2] == Construct("CALL", ((),))


_PARSE_ERRORS = [
    ("A = insert $\n", 1, 12, "unexpected character '$'"),
    ("A = x;;\n", 1, 6, "unexpected character ';'"),
    ("A insert\n", 1, 9, "expected `NAME = body`"),
    ("IF = insert\n", 1, 1, "reserved word 'IF' used as nonterminal"),
    ("new = insert\n", 1, 1, "reserved word 'new' used as nonterminal"),
    ("A = insert\nA = remove\n", 2, 1, "duplicate production for 'A'"),
    ("AXIOM = insert\nAXIOM = remove\nA = new\n", 2, 1, "duplicate AXIOM line"),
    ("# nothing here\n", 1, 1, "spec has no productions and no AXIOM line"),
    ("A = CALL(x, y)\n", 1, 5, "CALL requires 1 blocks, got 2"),
    ("A = IF(insert)\n", 1, 5, "IF requires 2 or 3 blocks, got 1"),
    ("A = LOOP(a, b, c)\n", 1, 5, "LOOP requires 1 or 2 blocks, got 3"),
    ("A = LOOP(insert\n", 1, 16, "unterminated LOOP(...)"),
    ("A = LOOP(insert,\n", 1, 17, "unterminated LOOP(...)"),
    ("A = IF\n", 1, 5, "IF requires a parenthesized block list"),
    ("A = CALL insert\n", 1, 5, "CALL requires a parenthesized block list"),
    ("A = insert )\n", 1, 12, "unexpected ')'"),
    ("A = , insert\n", 1, 5, "unexpected ','"),
    ("A = ( insert\n", 1, 5, "unexpected '('"),
    ("1A = insert\n", 1, 1, "invalid rule name '1A'"),
    (" = insert\n", 1, 1, "invalid rule name ''"),
    ("  B C = x\n", 1, 3, "invalid rule name 'B C'"),
    # the 129th IF opens at column 4 + 128 * len("IF(insert, ") + 1; at 500
    # levels gen raised RecursionError
    *[("A = " + "IF(insert, " * depth + "insert" + ")" * depth + "\n", 1, 1413,
       "constructs nest more than 128 deep") for depth in (129, 500)],
]


# ids name the text, or its start and length, line and column only
@pytest.mark.parametrize("text,line,col,message", _PARSE_ERRORS,
                         ids=[f"{text if len(text) < 40 else f'{text[:15]}... {len(text)} chars'}"
                              f"-{line}-{col}" for text, line, col, _ in _PARSE_ERRORS])
def test_parse_errors_have_positions(text, line, col, message):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize(
    "text,col,message",
    [
        ("insert $", 12, "unexpected character '$'"),
        ("LOOP(x", 11, "unterminated LOOP(...)"),
        ("new )", 9, "unexpected ')'"),
        ("new IF(x)", 9, "IF requires 2 or 3 blocks, got 1"),
    ],
)
def test_item_errors_are_offset_by_line_and_column(text, col, message):
    with pytest.raises(SpecParseError) as exc:
        parse_items(text, line=3, col_offset=4)
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value) == f"line 3, col {col}: {message}"


def test_random_token_strings_parse_back_or_fail_inside_the_text():
    # canonical texts with up to three tokens dropped, added or replaced;
    # the added ones include stray "(),", a bad character and a bad name start
    extra = grammar.TERMINAL_KINDS + grammar.CONSTRUCT_KINDS + ("(", ")", ",", "$", "1")
    rng = random.Random(19)
    parsed = failed = 0
    for _ in range(3000):
        tokens = re.findall(r"\w+|\S", canonical_serialize(random_seq(rng, depth=3)))
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(tokens))
            tokens[i:i + rng.randint(0, 1)] = rng.choice(([], [rng.choice(extra)]))
        text = " ".join(tokens)
        col_offset = rng.randint(0, 6)
        try:
            seq = parse_items(text, line=2, col_offset=col_offset)
        except SpecParseError as exc:
            assert exc.line == 2 and 1 <= exc.col <= col_offset + len(text) + 1, text
            failed += 1
            continue
        assert parse_items(canonical_serialize(seq)) == seq, text
        parsed += 1
    assert parsed > 500 and failed > 500


def test_duplicate_axiom_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("AXIOM = insert\nAXIOM = remove\nA = new\n")


def test_empty_spec_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("# nothing here\n")


def test_rewrite_is_parallel_not_iterated():
    # One rewrite per symbol per generation: A = A A doubles each time,
    # it must not explode within a single pass.
    spec = parse_spec("A = A A\n")
    g1 = rewrite_once(spec, spec.axiom)
    assert g1 == (NonTerminal("A"),) * 4
    g2 = rewrite_once(spec, g1)
    assert len(g2) == 8


def test_rewrite_descends_into_blocks():
    spec = parse_spec("A = LOOP(B IF(B, B))\nB = insert\n")
    g1 = rewrite_once(spec, (NonTerminal("A"),))
    g2 = rewrite_once(spec, g1)
    assert not has_nonterminals(g2)
    assert count_terminals(g2)["insert"] == 3


def test_unknown_nonterminal_is_kept():
    spec = parse_spec("A = B C\nB = insert\n")
    g1 = rewrite_once(spec, spec.axiom)
    assert NonTerminal("C") in g1


def test_derive_generation_zero_is_axiom():
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    assert derive(spec, 0) == spec.axiom


def test_derive_container_stress_terminal_counts():
    # Hand-derived. With a(g), b(g) the counts of nonterminals A and B,
    # and the axiom `new B B` (a=0, b=2, new=1, insert=0, contains=0):
    #   a' = 2b, b' = 2a, insert' = insert + 2b, new' = new + a,
    #   contains' = contains + 2b
    # since A's rhs holds one new and two B, and B's rhs holds two each of
    # insert, contains, and A. Counts plateau every other generation
    # because A and B alternate.
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    expected_insert = [4, 4, 20, 20, 84, 84, 340, 340]
    expected_new = [1, 5, 5, 21, 21, 85, 85, 341]
    for g in range(1, 9):
        counts = count_terminals(derive(spec, g))
        assert counts["insert"] == expected_insert[g - 1], f"generation {g}"
        assert counts["contains"] == expected_insert[g - 1], f"generation {g}"
        assert counts["new"] == expected_new[g - 1], f"generation {g}"
        assert counts["remove"] == 0


def test_derive_init_gadget_insert_count():
    # Three fan-out-8 layers over `insert insert`: 8*8*8*2 = 1024, fully
    # expanded at generation 3 and stable afterwards.
    spec = parse_spec(FAN_OUT_INIT_SPEC)
    assert count_terminals(derive(spec, 3))["insert"] == 1024
    g4 = derive(spec, 4)
    assert count_terminals(g4)["insert"] == 1024
    assert not has_nonterminals(g4)


def test_derive_item_cap(monkeypatch):
    monkeypatch.setattr(grammar, "MAX_ITEMS", 10_000)
    spec = parse_spec("A = A A\n")
    with pytest.raises(DerivationLimitError):
        derive(spec, 30)
    assert len(derive(spec, 3)) == 16
    # the axiom itself is generation 0
    wide = parse_spec("A = " + "new " * 10_001)
    with pytest.raises(DerivationLimitError, match="^generation 0 has 10001 items"):
        derive(wide, 0)


def test_derive_refuses_an_oversized_derivation_before_rewriting(monkeypatch):
    calls = []
    real = grammar.expand
    monkeypatch.setattr(grammar, "expand", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(grammar, "MAX_ITEMS", 10_000)
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(DerivationLimitError,
                       match="generation 11 has 24571 items, above the cap of 10000"):
        derive(spec, 40)
    assert calls == []


def test_default_cap_refuses_what_cannot_fit_in_memory_before_rewriting(monkeypatch):
    calls = []
    monkeypatch.setattr(grammar, "expand",
                        lambda spec, constructs, rules, nodes: calls.append(1) or (rules, nodes))
    stress = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(DerivationLimitError, match="generation 18 has 2097147 items"):
        derive(stress, 18)
    assert calls == []
    # stress g=17 (1,572,859 items) and churn g=19 (1,748,648) pass the size
    # check; the stub rewrites nothing, so nothing that large is built
    derive(stress, 17)
    derive(parse_spec(CALL_CHURN_SPEC), 19)
    assert len(calls) == 17 + 19


def test_derive_item_counts_are_exact_before_rewriting(monkeypatch):
    # every generation of these specs is larger than the one before, so a
    # cap one below a generation's size is first crossed there
    specs = (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC,
             "A = X IF(A, B)\nB = LOOP(A, new B) insert\n")
    for text in specs:
        spec = parse_spec(text)
        for g in range(1, 8):
            n = total_items(derive(spec, g))
            with monkeypatch.context() as patch:
                patch.setattr(grammar, "MAX_ITEMS", n)
                assert len(derive(spec, g)) > 0
                patch.setattr(grammar, "MAX_ITEMS", n - 1)
                with pytest.raises(DerivationLimitError, match=f"generation {g} has {n} items"):
                    derive(spec, g)


def test_derive_refuses_constructs_nested_above_the_cap_before_rewriting(monkeypatch):
    calls = []
    real = grammar.expand
    monkeypatch.setattr(grammar, "expand", lambda *a: calls.append(1) or real(*a))
    # one LOOP deeper per generation: gen overflowed Python's stack at g=170
    spec = parse_spec("A = LOOP(insert A)\n")
    cap = grammar.MAX_NESTING
    with pytest.raises(DerivationLimitError, match=f"^generation {cap} nests constructs "
                                                   f"{cap + 1} deep, above the cap of {cap}$"):
        derive(spec, 170)
    assert calls == []
    assert nesting_depth(derive(spec, cap - 1)) == cap


def _nested_loops(depth):
    """`new LOOP(new LOOP(... insert))`, `depth` LOOPs deep: 2 * depth + 1 items."""
    seq = (Terminal("insert"),)
    for _ in range(depth):
        seq = (Terminal("new"), Construct("LOOP", (seq,)))
    return seq


def test_derive_measures_generation_zero_without_recursion():
    # A spec built in Python skips parse_items's cap. Before, derive(spec, 0)
    # passed a 600-deep axiom on to lowering, which died in RecursionError,
    # and at g=1 the depth table itself overflowed the stack.
    deep = grammar.LSystemSpec(axiom=_nested_loops(600), productions={"A": (Terminal("new"),)})
    for g in (0, 1):
        with pytest.raises(DerivationLimitError, match=f"^generation 0 nests constructs 600 deep, "
                                                       f"above the cap of {grammar.MAX_NESTING}$"):
            derive(deep, g)
    assert total_items(deep.axiom) == 1201
    assert nesting_depth(deep.axiom) == 600
    cap = grammar.LSystemSpec(axiom=_nested_loops(grammar.MAX_NESTING), productions={})
    for g in (0, 1):
        assert derive(cap, g) == cap.axiom
    assert len(astgen.lower(derive(cap, 1)).functions) == 1
    # a rule no generation reaches is not checked, and derive walks it
    # without recursion too
    unreached = grammar.LSystemSpec(axiom=(Terminal("new"),), productions={"A": _nested_loops(2000)})
    assert derive(unreached, 3) == (Terminal("new"),)


def test_derive_nesting_depths_are_exact_before_rewriting(monkeypatch):
    # the depth may stay level for a generation, so the cap can be crossed earlier
    for text in (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC,
                 "A = X IF(A, B)\nB = LOOP(A, new B) insert\n"):
        spec = parse_spec(text)
        for g in range(1, 8):
            depth = nesting_depth(derive(spec, g))
            with monkeypatch.context() as patch:
                patch.setattr(grammar, "MAX_NESTING", depth)
                derive(spec, g)
                patch.setattr(grammar, "MAX_NESTING", depth - 1)
                with pytest.raises(DerivationLimitError, match=f"nests constructs {depth} deep"):
                    derive(spec, g)


def _with_nonterminals(seq, rng, names):
    """seq with about a third of its terminals, nested ones too, replaced by
    a nonterminal drawn from names."""
    items = []
    for item in seq:
        if isinstance(item, Construct):
            item = Construct(item.kind, tuple(_with_nonterminals(b, rng, names)
                                              for b in item.blocks))
        elif rng.random() < 0.35:
            item = NonTerminal(rng.choice(names))
        items.append(item)
    return tuple(items)


def test_derive_equals_the_iterated_one_step_rewrite():
    for text in (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC, FAN_OUT_INIT_SPEC):
        spec = parse_spec(text)
        for g in range(9):
            assert derive(spec, g) == derive_by_rewriting(spec, g), (text, g)
    rng = random.Random(2006)
    for _ in range(300):
        # Z has no production, so it stays wherever it lands
        names = ["A", "B", "C"][:rng.randint(1, 3)]
        productions = {name: _with_nonterminals(random_seq(rng, depth=2, max_len=4), rng,
                                                names + ["Z"]) for name in names}
        axiom = _with_nonterminals(random_seq(rng, depth=1, max_len=3), rng, names)
        spec = grammar.LSystemSpec(axiom=axiom, productions=productions)
        for g in range(5):
            assert derive(spec, g) == derive_by_rewriting(spec, g), (render_spec(spec), g)
    # a chain 5,000 generations long: nothing recurses over generations
    spec = parse_spec("A = B insert\nB = A\n")
    assert derive(spec, 5000) == derive_by_rewriting(spec, 5000)


def test_derive_shares_equal_subtrees():
    # stress g=17 is 1,572,859 items, but what each of its three constructs
    # becomes in a generation is one object
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    seq = derive(spec, 17)
    assert total_items(seq) == 1_572_859
    seen, constructs, stack = set(), set(), [seq]
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        for item in s:
            if isinstance(item, Construct):
                constructs.add(id(item))
                stack.extend(item.blocks)
    assert len(constructs) <= 3 * 17


def test_derive_negative_generations():
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(ValueError):
        derive(spec, -1)


def test_canonical_format_exact():
    seq = (
        Terminal("new"),
        Construct(
            "IF",
            (
                (Terminal("insert"),),
                (Construct("LOOP", ((Terminal("new"),),)),),
            ),
        ),
    )
    assert canonical_serialize(seq) == "new IF(insert,LOOP(new))"
    assert canonical_serialize(()) == ""


def test_canonical_rejects_nonterminals():
    with pytest.raises(SpecError):
        canonical_serialize((NonTerminal("A"),))


def test_canonical_roundtrip_and_injectivity():
    rng = random.Random(1234)
    seen = {}
    for _ in range(1000):
        seq = random_seq(rng, depth=3)
        text = canonical_serialize(seq)
        assert parse_items(text) == seq
        if text in seen:
            assert seen[text] == seq
        seen[text] = seq


def test_render_spec_roundtrip():
    for text in (CONTAINER_STRESS_SPEC, FAN_OUT_INIT_SPEC, "AXIOM = X LOOP(X)\nX = IF(insert, remove)\n"):
        spec = parse_spec(text)
        again = parse_spec(render_spec(spec))
        assert again.axiom == spec.axiom
        assert again.productions == spec.productions


def test_total_items_counts_nested():
    seq = parse_items("new IF(insert,LOOP(new remove)) contains")
    # new, IF, insert, LOOP, new, remove, contains
    assert total_items(seq) == 7
    assert nesting_depth(seq) == 2
    assert count_terminals(seq) == {"new": 2, "insert": 1, "remove": 1, "contains": 1}
