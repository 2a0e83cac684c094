import random

import pytest

from helpers import CALL_CHURN_SPEC, CONTAINER_STRESS_SPEC, FAN_OUT_INIT_SPEC, random_seq
from lsysbench import grammar
from lsysbench.grammar import (
    Construct,
    DerivationLimitError,
    ItemSeq,
    NonTerminal,
    SpecError,
    SpecParseError,
    Terminal,
    canonical_serialize,
    count_terminals,
    derive,
    has_nonterminals,
    parse_items,
    parse_spec,
    render_spec,
    rewrite_once,
    total_items,
)


def test_parse_simple_spec():
    spec = parse_spec("A = new B B\nB = insert\n")
    assert spec.axiom == ItemSeq((Terminal("new"), NonTerminal("B"), NonTerminal("B")))
    assert set(spec.productions) == {"A", "B"}
    assert spec.productions["B"] == ItemSeq((Terminal("insert"),))


def test_axiom_defaults_to_first_rule_rhs():
    spec = parse_spec("X = insert remove\nY = contains\n")
    assert spec.axiom == spec.productions["X"]


def test_axiom_override():
    spec = parse_spec("AXIOM = Y Y\nX = insert\nY = remove\n")
    assert spec.axiom == ItemSeq((NonTerminal("Y"), NonTerminal("Y")))
    assert "AXIOM" not in spec.productions


def test_comments_semicolons_blank_lines():
    text = """
    # leading comment
    A0 = A1 A1 ;   # trailing comment

    A1 =   insert   insert;
    """
    spec = parse_spec(text)
    assert spec.productions["A0"] == ItemSeq((NonTerminal("A1"), NonTerminal("A1")))
    assert spec.productions["A1"] == ItemSeq((Terminal("insert"), Terminal("insert")))


def test_constructs_parse():
    spec = parse_spec("A = IF(insert, remove, contains) LOOP(new) CALL(B)\n")
    if_item, loop_item, call_item = spec.axiom.items
    assert if_item == Construct(
        "IF",
        (
            ItemSeq((Terminal("insert"),)),
            ItemSeq((Terminal("remove"),)),
            ItemSeq((Terminal("contains"),)),
        ),
    )
    assert loop_item == Construct("LOOP", (ItemSeq((Terminal("new"),)),))
    assert call_item == Construct("CALL", (ItemSeq((NonTerminal("B"),)),))
    assert isinstance(call_item, Construct)


def test_empty_blocks_allowed():
    seq = parse_items("IF(,) LOOP() CALL()")
    assert seq.items[0] == Construct("IF", (ItemSeq(()), ItemSeq(())))
    assert seq.items[1] == Construct("LOOP", (ItemSeq(()),))
    assert seq.items[2] == Construct("CALL", (ItemSeq(()),))


@pytest.mark.parametrize(
    "text,line,col_min",
    [
        ("A = insert $\n", 1, 12),
        ("A insert\n", 1, 1),
        ("IF = insert\n", 1, 1),
        ("new = insert\n", 1, 1),
        ("A = insert\nA = remove\n", 2, 1),
        ("A = CALL(x, y)\n", 1, 5),
        ("A = IF(insert)\n", 1, 5),
        ("A = LOOP(a, b, c)\n", 1, 5),
        ("A = LOOP(insert\n", 1, 1),
        ("A = IF\n", 1, 5),
        ("A = insert )\n", 1, 12),
        ("A = , insert\n", 1, 5),
        ("1A = insert\n", 1, 1),
    ],
)
def test_parse_errors_have_positions(text, line, col_min):
    with pytest.raises(SpecParseError) as exc:
        parse_spec(text)
    assert exc.value.line == line
    assert exc.value.col >= col_min
    assert f"line {line}" in str(exc.value)


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
    assert g1 == ItemSeq((NonTerminal("A"),) * 4)
    g2 = rewrite_once(spec, g1)
    assert len(g2) == 8


def test_rewrite_descends_into_blocks():
    spec = parse_spec("A = LOOP(B IF(B, B))\nB = insert\n")
    g1 = rewrite_once(spec, ItemSeq((NonTerminal("A"),)))
    g2 = rewrite_once(spec, g1)
    assert not has_nonterminals(g2)
    assert count_terminals(g2)["insert"] == 3


def test_unknown_nonterminal_is_kept():
    spec = parse_spec("A = B C\nB = insert\n")
    g1 = rewrite_once(spec, spec.axiom)
    assert NonTerminal("C") in g1.items


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


def test_derive_item_cap():
    spec = parse_spec("A = A A\n")
    with pytest.raises(DerivationLimitError):
        derive(spec, 30, max_items=10_000)
    assert len(derive(spec, 3, max_items=10_000)) == 16


def test_derive_refuses_an_oversized_derivation_before_rewriting(monkeypatch):
    calls = []
    real = grammar.rewrite_once
    monkeypatch.setattr(grammar, "rewrite_once", lambda *a: calls.append(1) or real(*a))
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(DerivationLimitError,
                       match="generation 11 has 24571 items, above the cap of 10000"):
        derive(spec, 40, max_items=10_000)
    assert calls == []


def test_default_cap_refuses_what_cannot_fit_in_memory_before_rewriting(monkeypatch):
    calls = []
    monkeypatch.setattr(grammar, "rewrite_once", lambda spec, seq: calls.append(1) or seq)
    stress = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(DerivationLimitError, match="generation 18 has 2097147 items"):
        derive(stress, 18)
    assert calls == []
    # stress g=17 (1,572,859 items) and churn g=19 (1,748,648) pass the size
    # check; the stub rewrites nothing, so nothing that large is built
    derive(stress, 17)
    derive(parse_spec(CALL_CHURN_SPEC), 19)
    assert len(calls) == 17 + 19


def test_derive_item_counts_are_exact_before_rewriting():
    # every generation of these specs is larger than the one before, so a
    # cap one below a generation's size is first crossed there
    specs = (CONTAINER_STRESS_SPEC, CALL_CHURN_SPEC,
             "A = X IF(A, B)\nB = LOOP(A, new B) insert\n")
    for text in specs:
        spec = parse_spec(text)
        for g in range(1, 8):
            n = total_items(derive(spec, g))
            assert len(derive(spec, g, max_items=n)) > 0
            with pytest.raises(DerivationLimitError, match=f"generation {g} has {n} items"):
                derive(spec, g, max_items=n - 1)


def test_derive_negative_generations():
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    with pytest.raises(ValueError):
        derive(spec, -1)


def test_canonical_format_exact():
    seq = ItemSeq(
        (
            Terminal("new"),
            Construct(
                "IF",
                (
                    ItemSeq((Terminal("insert"),)),
                    ItemSeq((Construct("LOOP", (ItemSeq((Terminal("new"),)),)),)),
                ),
            ),
        )
    )
    assert canonical_serialize(seq) == "new IF(insert,LOOP(new))"
    assert canonical_serialize(ItemSeq(())) == ""


def test_canonical_rejects_nonterminals():
    with pytest.raises(SpecError):
        canonical_serialize(ItemSeq((NonTerminal("A"),)))


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
    assert count_terminals(seq) == {"new": 2, "insert": 1, "remove": 1, "contains": 1}
