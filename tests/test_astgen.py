import copy
import hashlib
import json
import random
from pathlib import Path

import pytest

from helpers import all_ifs, assert_bitpath_properties, random_seq, random_seq_nonempty
from lsysbench.astgen import (
    CONTAINER_KINDS,
    Call,
    Contains,
    If,
    Insert,
    Lcg,
    LCG_INC,
    LCG_MULT,
    Loop,
    New,
    OperandPlan,
    Program,
    Remove,
    assert_call_invariants,
    assign_all_path_bits,
    assign_path_bits,
    available_vars,
    extract_functions,
    iter_statements,
    lower,
    plan_operands,
    prune_nonterminals,
    verify_slot_safety,
)
from lsysbench.grammar import ItemSeq, NonTerminal, SpecError, parse_items

FIXTURES = Path(__file__).parent / "fixtures"


def build_program(text: str) -> Program:
    return extract_functions(prune_nonterminals(parse_items(text)))


# ---------------------------------------------------------------------------
# PATH bit assignment

@pytest.mark.parametrize(
    "name", ["bitpath_nested_then_sibling.json", "bitpath_sequential.json"]
)
def test_bitpath_hand_execution_fixtures(name):
    fixture = json.loads((FIXTURES / name).read_text())
    program = build_program(fixture["program"])
    fn = program.entry
    trace = []
    assign_path_bits(fn, trace=trace)
    assert trace == fixture["steps"]
    assert [st.bit_index_raw for st in all_ifs(fn.body)] == fixture["bits_preorder"]
    assert fn.max_bit_index == fixture["max_bit_index"]


def test_no_if_gives_sentinel():
    program = build_program("new insert LOOP(remove)")
    assign_path_bits(program.entry)
    assert program.entry.max_bit_index == -1


def test_loop_and_call_do_not_push():
    program = build_program("LOOP(IF(,)) CALL(IF(,)) IF(,)")
    assign_all_path_bits(program)
    entry = program.entry
    bits = [st.bit_index_raw for st in all_ifs(entry.body)]
    # loop body If takes bit 0 and its join raises the level, the trailing
    # If takes 1; the If inside CALL belongs to the callee (fresh stack).
    assert bits == [0, 1]
    callee = next(f for f in program.functions if f.id != entry.id)
    assert [st.bit_index_raw for st in all_ifs(callee.body)] == [0]


def test_if_inside_cond_assigned_before_outer():
    program = build_program("IF(IF(,),)")
    assign_path_bits(program.entry)
    outer = program.entry.body[0]
    inner = outer.cond[0]
    assert inner.bit_index_raw == 0
    assert outer.bit_index_raw == 1


def test_bit_indices_wrap_with_warning():
    program = build_program("IF(,) " * 70)
    with pytest.warns(UserWarning, match="wrap"):
        assign_path_bits(program.entry)
    ifs = all_ifs(program.entry.body)
    assert [st.bit_index_raw for st in ifs] == list(range(70))
    assert [st.bit_index for st in ifs] == [i % 64 for i in range(70)]
    assert program.entry.max_bit_index == 69


def test_bitpath_properties_random():
    rng = random.Random(77)
    for _ in range(100):
        seq = random_seq(rng, depth=4, max_len=5)
        program = extract_functions(prune_nonterminals(seq))
        assign_all_path_bits(program)
        for fn in program.functions:
            assert_bitpath_properties(fn.body)


# ---------------------------------------------------------------------------
# pruning and call extraction

def test_prune_drops_nonterminals_with_warning():
    seq = parse_items("new A LOOP(B insert)")
    with pytest.warns(UserWarning, match="nonterminal"):
        pruned = prune_nonterminals(seq)
    assert NonTerminal("A") not in pruned.items
    loop = pruned.items[1]
    assert len(loop.blocks[0]) == 1


def test_prune_clean_input_silent(recwarn):
    seq = parse_items("new insert")
    assert prune_nonterminals(seq) == seq
    assert not recwarn.list


def test_extract_no_call_single_function():
    program = build_program("new insert remove")
    assert len(program.functions) == 1
    assert program.entry_id == 0


def test_extract_dedup_shared_callee():
    program = build_program("CALL(insert) CALL(insert) CALL(remove)")
    assert len(program.functions) == 3
    calls = [st for st in program.entry.body if isinstance(st, Call)]
    assert len(calls) == 3
    assert calls[0].callee_id == calls[1].callee_id
    assert calls[2].callee_id != calls[0].callee_id
    assert program.entry_id == 2
    by_canon = {f.canonical: f for f in program.functions}
    assert by_canon["insert"].id == calls[0].callee_id
    assert by_canon["remove"].id == calls[2].callee_id


def test_extract_nested_calls_recursively():
    program = build_program("CALL(CALL(insert))")
    canons = [f.canonical for f in program.functions]
    assert canons == ["insert", "CALL(insert)", "CALL(CALL(insert))"]
    assert program.entry_id == 2


def test_extract_same_block_in_two_functions_shares_one_def():
    program = build_program("CALL(LOOP(insert) CALL(insert)) CALL(insert)")
    canons = [f.canonical for f in program.functions]
    assert canons == [
        "insert",
        "LOOP(insert) CALL(insert)",
        "CALL(LOOP(insert) CALL(insert)) CALL(insert)",
    ]
    shared = program.functions[0].id
    call_sites = [
        st
        for fn in program.functions
        for st in iter_statements(fn.body)
        if isinstance(st, Call) and st.callee_id == shared
    ]
    assert len(call_sites) == 2


def test_extract_entry_is_highest_id_random():
    rng = random.Random(99)
    for _ in range(100):
        seq = random_seq_nonempty(rng, depth=4, max_len=4)
        program = extract_functions(prune_nonterminals(seq))
        assert_call_invariants(program)
        assert program.entry_id == len(program.functions) - 1
        entry_len = len(program.entry.canonical)
        for fn in program.functions[:-1]:
            assert len(fn.canonical) <= entry_len


# ---------------------------------------------------------------------------
# visibility

def test_available_vars_enclosing_prefix_and_same_list():
    program = lower(parse_items("new IF(, new CALL(insert))"))
    call = next(
        st for st in iter_statements(program.entry.body) if isinstance(st, Call)
    )
    assert available_vars(program.entry, call) == [0, 1]
    assert call.available_slots == [0, 1]


def test_available_vars_branch_local_excluded():
    program = lower(parse_items("IF(, new, ) CALL(insert)"))
    call = next(
        st for st in iter_statements(program.entry.body) if isinstance(st, Call)
    )
    assert available_vars(program.entry, call) == []
    assert call.available_slots == []


def test_available_vars_first_statement_empty():
    program = lower(parse_items("CALL(insert) new"))
    call = program.entry.body[0]
    assert isinstance(call, Call)
    assert available_vars(program.entry, call) == []


def test_available_vars_cond_and_loop_body_do_not_escape():
    program = lower(parse_items("IF(new, ) LOOP(new) CALL(insert)"))
    call = next(
        st for st in iter_statements(program.entry.body) if isinstance(st, Call)
    )
    assert available_vars(program.entry, call) == []


def test_available_vars_unknown_call_site():
    program = lower(parse_items("new insert"))
    with pytest.raises(ValueError):
        available_vars(program.entry, Call(callee_id=0))


# ---------------------------------------------------------------------------
# operand planning

def test_lcg_matches_direct_arithmetic():
    seed = 42
    rng = Lcg(seed)
    state = seed
    for _ in range(5):
        state = (state * LCG_MULT + LCG_INC) % (1 << 64)
        assert rng.next() == state >> 33


def test_plan_single_slot_regardless_of_seed():
    for seed in (0, 1, 123456789):
        program = lower(
            parse_items("new insert"), OperandPlan(seed=seed)
        )
        body = program.entry.body
        assert isinstance(body[0], New) and body[0].slot == 0
        assert isinstance(body[1], Insert) and body[1].slot == 0


def test_plan_materializes_new_for_bare_operand():
    program = lower(parse_items("insert"))
    body = program.entry.body
    assert [type(st) for st in body] == [New, Insert]
    assert body[0].slot == 0
    assert body[1].slot == 0
    assert program.entry.slot_count == 1


def test_plan_materializes_once_per_scope_gap():
    # the cond slot does not escape, so the body operand needs its own New
    program = lower(parse_items("IF(insert, contains)"))
    if_stmt = program.entry.body[0]
    assert [type(st) for st in if_stmt.cond] == [New, Insert]
    assert [type(st) for st in if_stmt.then] == [New, Contains]
    assert program.entry.slot_count == 2


def test_plan_two_draws_per_operand():
    plan = OperandPlan(seed=7, value_range=1000)
    program = lower(parse_items("insert insert remove"), plan)
    rng = Lcg(7)
    body = program.entry.body
    operands = [st for st in body if not isinstance(st, New)]
    for st in operands:
        assert st.slot == rng.next() % 1
        assert st.value == rng.next() % 1000


def test_plan_value_range_respected():
    plan = OperandPlan(seed=3, value_range=7)
    program = lower(parse_items("insert " * 50), plan)
    for st in iter_statements(program.entry.body):
        if isinstance(st, Insert):
            assert 0 <= st.value < 7


def test_plan_is_deterministic_and_pure():
    seq = parse_items("new IF(insert, remove new contains) CALL(insert remove)")
    base = extract_functions(prune_nonterminals(seq))
    assign_all_path_bits(base)
    before = copy.deepcopy(base)
    p1 = plan_operands(base, OperandPlan(seed=11))
    p2 = plan_operands(base, OperandPlan(seed=11))
    assert p1 == p2
    assert base == before
    p3 = plan_operands(base, OperandPlan(seed=12))
    assert p3 != p1
    inputs = {id(st) for fn in base.functions for st in iter_statements(fn.body)}
    for planned in (p1, p2, p3):
        for fn in planned.functions:
            assert not any(id(st) in inputs for st in iter_statements(fn.body))


# sha256 over the planned programs' reprs. It pins the planner's RNG order
# and slot numbering: a change to either moves it.
PLANNER_DIGEST = "3efa2454c4b5a256626465a8ddbb04bdb9119d183f70cc49c570f8d73a0dc938"


def test_planner_output_digest_is_pinned():
    rng = random.Random(1234)
    digest = hashlib.sha256()
    for _ in range(60):
        seq = random_seq(rng, depth=3)
        for kind in CONTAINER_KINDS:
            for seed in (0, 7):
                program = lower(seq, OperandPlan(seed=seed, container_kind=kind))
                digest.update(repr(program).encode())
    assert digest.hexdigest() == PLANNER_DIGEST


def test_plan_slot_count_counts_materialized():
    program = lower(parse_items("new new IF(, new) insert"))
    assert program.entry.slot_count == 3


def test_plan_random_programs_slot_safe():
    rng = random.Random(2024)
    for _ in range(100):
        seq = random_seq_nonempty(rng, depth=4, max_len=5)
        verify_slot_safety(lower(seq))


def test_operand_plan_validation():
    with pytest.raises(ValueError):
        OperandPlan(value_range=0)
    with pytest.raises(ValueError):
        OperandPlan(trip_count=0)
    with pytest.raises(ValueError):
        OperandPlan(container_kind="deque")


def test_lower_rejects_unpruned_nonterminals():
    with pytest.raises(SpecError):
        extract_functions(parse_items("new A"))
