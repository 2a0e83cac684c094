import gc
import hashlib
import json
import random
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from helpers import (
    CALL_CHURN_SPEC,
    CONTAINER_STRESS_SPEC,
    all_ifs,
    assert_bitpath_properties,
    available_vars,
    derive_by_rewriting,
    random_seq,
    random_seq_nonempty,
    reference_functions,
    stack_path_bits,
    verify_slot_safety,
)
from lsysbench import astgen
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
    extract_functions,
    iter_statements,
    lower,
    plan_operands,
    prune_nonterminals,
)
from lsysbench.grammar import NonTerminal, SpecError, derive, parse_items, parse_spec

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
    assert stack_path_bits(fn.body, trace) == fixture["bits_preorder"]
    assert trace == fixture["steps"]
    assign_path_bits(fn)
    assert [st.bit_index_raw for st in all_ifs(fn.body)] == fixture["bits_preorder"]
    assert fn.max_bit_index == fixture["max_bit_index"]


def test_bit_counter_matches_the_counter_stack_reference():
    rng = random.Random(31)
    seqs = [random_seq(rng, depth=4) for _ in range(500)]
    for spec_text in (CALL_CHURN_SPEC, CONTAINER_STRESS_SPEC):
        spec = parse_spec(spec_text)
        seqs += [derive(spec, g) for g in range(11)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seq in seqs:
            program = assign_all_path_bits(extract_functions(prune_nonterminals(seq)))
            for fn in program.functions:
                want = stack_path_bits(fn.body)
                assert [st.bit_index_raw for st in all_ifs(fn.body)] == want
                assert [st.bit_index for st in all_ifs(fn.body)] == [b % 64 for b in want]
                assert fn.max_bit_index == max(want, default=-1)


def test_no_if_gives_sentinel():
    program = build_program("new insert LOOP(remove)")
    assign_path_bits(program.entry)
    assert program.entry.max_bit_index == -1


def test_loop_and_call_do_not_push():
    program = build_program("LOOP(IF(,)) CALL(IF(,)) IF(,)")
    assign_all_path_bits(program)
    entry = program.entry
    bits = [st.bit_index_raw for st in all_ifs(entry.body)]
    # the loop body's If takes bit 0 and the trailing If takes 1, as a loop
    # takes no bit of its own; the If inside CALL belongs to the callee,
    # whose count starts again from 0.
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
    assert NonTerminal("A") not in pruned
    loop = pruned[1]
    assert len(loop.blocks[0]) == 1


def test_prune_counts_every_occurrence_in_a_shared_derivation():
    # derive shares equal subtrees, and prune works on each once; the
    # warning still counts every occurrence, as on the same tree unshared
    spec = parse_spec(CONTAINER_STRESS_SPEC)
    results = []
    for seq in (derive(spec, 9), derive_by_rewriting(spec, 9)):
        with pytest.warns(UserWarning) as record:
            pruned = prune_nonterminals(seq)
        results.append((pruned, [str(w.message) for w in record]))
    assert results[0] == results[1]
    assert results[0][1] == ["dropped 1024 leftover nonterminal(s) before lowering"]


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
    assert program.functions[calls[0].callee_id].body == [Insert()]
    assert program.functions[calls[2].callee_id].body == [Remove()]


def test_extract_nested_calls_recursively():
    program = build_program("CALL(CALL(insert))")
    bodies = [f.body for f in program.functions]
    assert bodies == [[Insert()], [Call(0)], [Call(1)]]
    assert program.entry_id == 2


def test_extract_same_block_in_two_functions_shares_one_def():
    program = build_program("CALL(LOOP(insert) CALL(insert)) CALL(insert)")
    bodies = [f.body for f in program.functions]
    assert bodies == [
        [Insert()],
        [Loop(cond=[], body=[Insert()]), Call(0)],
        [Call(1), Call(0)],
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
        # every function but the entry is called from a higher id
        called = {st.callee_id for fn in program.functions
                  for st in iter_statements(fn.body) if isinstance(st, Call)}
        assert called == set(range(program.entry_id))


def test_extract_matches_a_dedup_keyed_by_canonical_text():
    # extraction numbers blocks by structure; a dedup keyed by
    # canonical_serialize, which is injective, must give the same ids and
    # bodies
    rng = random.Random(99)
    seqs = [random_seq(rng, depth=4) for _ in range(400)]
    # CALL bodies that differ only in a construct's kind or block count;
    # LOOP(insert) and LOOP(, insert) lower alike, so they share one function
    seqs.append(parse_items("CALL(LOOP(insert)) CALL(CALL(insert)) CALL(LOOP(, insert)) "
                            "CALL(IF(new, insert)) CALL(LOOP(new, insert)) CALL(IF(new, insert, ))"))
    for spec_text in (CALL_CHURN_SPEC, CONTAINER_STRESS_SPEC):
        spec = parse_spec(spec_text)
        seqs += [derive(spec, g) for g in range(11)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seq in seqs:
            seq = prune_nonterminals(seq)
            program = extract_functions(seq)
            assert [fn.body for fn in program.functions] == reference_functions(seq)


def test_extract_dedups_loop_forms_that_lower_alike():
    program = extract_functions(parse_items("CALL(LOOP(insert)) CALL(LOOP(, insert))"))
    assert [fn.body for fn in program.functions] == [
        [Loop(cond=[], body=[Insert()])], [Call(0), Call(0)]]
    # IF(new, insert) and IF(new, insert, ) stay apart: an orelse of None
    # and one of [] emit different code
    program = extract_functions(parse_items("CALL(IF(new, insert)) CALL(IF(new, insert, ))"))
    assert len(program.functions) == 3


def test_extract_holds_no_text_of_the_blocks():
    # pruned churn g=17: 15.4 MB of traced peak when every function was
    # identified by its canonical text, 0.7 MB numbering blocks by structure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = prune_nonterminals(derive(parse_spec(CALL_CHURN_SPEC), 17))
    tracemalloc.start()
    try:
        program = extract_functions(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(program.functions) == 18
    assert peak < 2_000_000, peak


def test_iter_statements_is_pre_order():
    inner = [Insert(1, 0), Remove(1, 0)]
    loop = Loop(cond=[New(1)], body=[If(cond=inner, then=[Contains(1, 0)])])
    branch = If(cond=[New(0)], then=[loop], orelse=[Call(0, [])])
    stmts = [New(2), branch, Insert(2, 0)]
    expected = [stmts[0], branch, branch.cond[0], loop, loop.cond[0],
                loop.body[0], *inner, loop.body[0].then[0], branch.orelse[0], stmts[2]]
    assert [id(st) for st in iter_statements(stmts)] == [id(st) for st in expected]


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


def extracted(seq):
    program = extract_functions(prune_nonterminals(seq))
    assign_all_path_bits(program)
    return program


def test_plan_is_deterministic():
    def planned(seed):
        program = extracted(parse_items("new IF(insert, remove new contains) CALL(insert remove)"))
        assert plan_operands(program, OperandPlan(seed=seed)) is program
        return program

    assert planned(11) == planned(11)
    assert planned(12) != planned(11)


def lowering_inputs():
    """300 random sequences, then churn and stress at generations 0-8."""
    rng = random.Random(77)
    seqs = [random_seq(rng, depth=4) for _ in range(300)]
    for spec_text in (CALL_CHURN_SPEC, CONTAINER_STRESS_SPEC):
        spec = parse_spec(spec_text)
        seqs += [derive(spec, g) for g in range(9)]
    return seqs


def test_replanning_a_program_plans_it_afresh():
    # criterion 04 plans one program under each container kind in turn
    first = OperandPlan(seed=3, value_range=50, container_kind="sortedList")
    second = OperandPlan(seed=4, value_range=1000, container_kind="scalar")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seq in lowering_inputs():
            replanned = plan_operands(plan_operands(extracted(seq), first), second)
            assert replanned == plan_operands(extracted(seq), second)


def test_every_planned_function_binds_each_of_its_slots_once():
    # the oracle refuses a New on a slot already bound; the planner never
    # emits one, since each New takes the next per-function slot ordinal.
    # 300 random sequences, then the benchmark's churn g=11 and stress g=10
    rng = random.Random(30)
    seqs = [random_seq(rng, depth=4) for _ in range(300)]
    seqs += [derive(parse_spec(CALL_CHURN_SPEC), 11), derive(parse_spec(CONTAINER_STRESS_SPEC), 10)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seq in seqs:
            for kind in CONTAINER_KINDS:
                for seed in (0, 1):
                    program = lower(seq, OperandPlan(seed=seed, container_kind=kind))
                    for fn in program.functions:
                        slots = [st.slot for st in iter_statements(fn.body)
                                 if isinstance(st, New)]
                        assert sorted(slots) == list(range(fn.slot_count))


def test_extraction_shares_no_statement_object():
    # planning fills statements in place, so a statement reached from two
    # places would be planned twice
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seq in lowering_inputs():
            program = extracted(seq)
            ids = [id(st) for fn in program.functions for st in iter_statements(fn.body)]
            assert len(ids) == len(set(ids))


def test_lowering_holds_one_statement_tree():
    # stress g=12: 5.5 MB of traced peak when planning built a second copy
    # of every statement, 3.0 MB filling in the extracted one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = derive(parse_spec(CONTAINER_STRESS_SPEC), 12)
        tracemalloc.start()
        try:
            lower(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4_000_000, peak


# sha256 over the planned programs' reprs. It pins the planner's RNG order
# and slot numbering: a change to either moves it.
PLANNER_DIGEST = "fca1dc731a02b9a814c3d82ef3c573e235fc5213c1a52bb4f7d110a32f0f8476"


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


def test_planning_is_linear_in_a_blocks_bindings():
    # 20,000 new insert pairs in one block: 1.4 s when every statement
    # copied the slots visible before it, ~0.02 s keeping one list
    program = extract_functions(parse_items("new insert " * 20000))
    start = time.perf_counter()
    plan_operands(program, OperandPlan())
    elapsed = time.perf_counter() - start
    assert program.entry.slot_count == 20000
    assert elapsed < 0.5, elapsed


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
    with pytest.raises(ValueError, match=r"^trip_count must be in \[1, 2\^64\), got 18446744073709551616$"):
        OperandPlan(trip_count=2**64)
    OperandPlan(trip_count=2**64 - 1)
    with pytest.raises(ValueError):
        OperandPlan(container_kind="deque")


def test_lower_rejects_unpruned_nonterminals():
    with pytest.raises(SpecError):
        extract_functions(parse_items("new A"))


@pytest.mark.parametrize("enabled", [True, False])
def test_lower_pauses_the_collector_and_restores_the_callers_state(enabled, monkeypatch):
    seen = []

    def failing_bits(program):
        seen.append(gc.isenabled())
        raise RuntimeError("bit assignment failed")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        lower(parse_items("IF(insert, contains) LOOP(new, remove)"))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(astgen, "assign_all_path_bits", failing_bits)
        with pytest.raises(RuntimeError, match="bit assignment failed"):
            lower(parse_items("insert"))
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
