import gc
import hashlib
import random
import warnings

import pytest

from helpers import (
    CALL_CHURN_SPEC,
    CONTAINER_STRESS_SPEC,
    random_seq,
    random_seq_nonempty,
)
from lsysbench.astgen import (
    CONTAINER_KINDS,
    Call,
    Contains,
    FunctionDef,
    If,
    Insert,
    Loop,
    New,
    OperandPlan,
    Program,
    Remove,
    lower,
)
from lsysbench.grammar import derive, parse_items, parse_spec
from lsysbench.oracle import (
    CHECKSUM_OFFSET,
    CHECKSUM_PRIME,
    ExecConfig,
    OracleInvariantError,
    RunStats,
    checksum_update,
    format_trace_event,
    interpret,
    run_to_text,
)

U64 = (1 << 64) - 1


def lower_text(text, **plan_kwargs):
    return lower(parse_items(text), OperandPlan(**plan_kwargs))


def lower_container_stress(generations, **plan_kwargs):
    seq = derive(parse_spec(CONTAINER_STRESS_SPEC), generations)
    with pytest.warns(UserWarning, match="nonterminal"):
        return lower(seq, OperandPlan(**plan_kwargs))


def lcg_draws(seed, n):
    """The planned operand stream, recomputed from raw arithmetic."""
    draws = [None]  # 1-indexed
    state = seed
    for _ in range(n):
        state = (state * 6364136228273018565 + 1442695040888963407) & U64
        draws.append(state >> 33)
    return draws


# ---------------------------------------------------------------------------
# golden run, hand-audited

def test_golden_container_stress_gen4_path1():
    # Generation 4 of the container-stress grammar, seed 0, array, path 1.
    # After pruning there is a single function shaped
    #   new IF(LOOP(body4), LOOP(body4)) IF(LOOP(body4), LOOP(body4))
    # with body4 = insert new IF2a IF2b contains and each IF2 block holding
    # LOOP(insert new contains) in both arms. Conditionals take bits 0..9 in
    # walk order; path=1 sets only bit 0, so only the first inner IF2 of the
    # first outer cond block runs its then-arm, and both outer IFs (bits 2
    # and 7) plus all the other inner IF2s run their cond block alone.
    #
    # Operand draws (two per insert/contains, plan order): d1/d2 for the
    # first insert, d3/d4 the first inner cond insert, d5/d6 its contains,
    # d7/d8 the then-arm insert, d9/d10 its contains, d11/d12 the second
    # inner cond insert, d13/d14 its contains. Slot picks: d1%1=0 (object 1),
    # d3%2=1 (the iteration-local object), d5%3=1, d7%2=0, d9%3=2 (the
    # just-bound then-local), d11%2=1, d13%3=0.
    d = lcg_draws(0, 14)
    expected = [
        ("new", 1, 0, 1),               # entry slot 0 -> object 1
        # loop-1 iteration 1
        ("insert", 1, d[2] % 1000, 1),  # into object 1, size 0 -> 1
        ("new", 2, 0, 1),               # iteration-local -> object 2
        # first inner IF2, cond loop iteration 1
        ("insert", 2, d[4] % 1000, 1),
        ("new", 3, 0, 1),               # cond-loop-local, freed each iteration
        ("contains", 2, d[6] % 1000, 0),
        # cond loop iteration 2: object 3 was freed, fresh id 4
        ("insert", 2, d[4] % 1000, 2),
        ("new", 4, 0, 1),
        ("contains", 2, d[6] % 1000, 0),
        # bit 0 is set: then-arm loop, iteration 1
        ("insert", 1, d[8] % 1000, 2),  # object 1 grows to size 2
        ("new", 5, 0, 1),
        ("contains", 5, d[10] % 1000, 0),  # probes the empty then-local
        # then-arm loop iteration 2
        ("insert", 1, d[8] % 1000, 3),
        ("new", 6, 0, 1),
        ("contains", 6, d[10] % 1000, 0),
        # second inner IF2 (bit 1 unset): cond loop only, iteration 1
        ("insert", 2, d[12] % 1000, 3),  # object 2 held [d4, d4], now size 3
        ("new", 7, 0, 1),
        ("contains", 1, d[14] % 1000, 0),
        # cond loop iteration 2
        ("insert", 2, d[12] % 1000, 4),
        ("new", 8, 0, 1),
    ]
    program = lower_container_stress(4, seed=0, container_kind="array")
    assert len(program.functions) == 1
    assert program.entry.slot_count == 21
    assert program.entry.max_bit_index == 9
    trace, stats = interpret(program, ExecConfig(path=1, debug_trace=True))
    got = [(e.op, e.var, e.val, e.res) for e in trace[:20]]
    assert got == expected
    # frozen from the first run of this interpreter after the audit above
    assert len(trace) == 73
    assert stats.op_counts == {"new": 25, "insert": 24, "remove": 0, "contains": 24}
    assert stats.max_live == 3
    assert stats.checksum == 2019715006645032050


# ---------------------------------------------------------------------------
# small hand-checked programs

def test_single_new():
    trace, stats = interpret(lower_text("new"), ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.val, e.res) for e in trace] == [("new", 1, 0, 1)]
    assert stats.max_live == 1


def test_new_insert_singleton_size():
    trace, _ = interpret(lower_text("new insert"), ExecConfig(debug_trace=True))
    assert trace[1].op == "insert"
    assert trace[1].res == 1


def test_empty_program():
    trace, stats = interpret(lower_text(""), ExecConfig(debug_trace=True))
    assert trace == []
    assert stats.max_live == 0
    assert stats.checksum == CHECKSUM_OFFSET
    assert run_to_text(lower_text("")) == f"CHECKSUM {CHECKSUM_OFFSET}\n"


def test_checksum_single_event_arithmetic():
    # independent recomputation of the folding step
    event = (1 << 48) + (1 << 32) + (0 << 16) + 1
    expected = (CHECKSUM_OFFSET * CHECKSUM_PRIME + event) & U64
    _, stats = interpret(lower_text("new"))
    assert stats.checksum == expected
    assert checksum_update(CHECKSUM_OFFSET, "new", 1, 0, 1) == expected
    # var is added whole, not cut to its low 16 bits as val and res are
    var = (1 << 16) + 5
    assert checksum_update(0, "new", var, 0, 1) == (1 << 48) + (var << 32) + 1


def test_checksum_masks_negative_val():
    assert checksum_update(0, "insert", 1, -1, 2) == (
        (0 * CHECKSUM_PRIME) ^ ((2 << 48) | (1 << 32) | (0xFFFF << 16) | 2)
    )


def test_trace_line_format():
    from lsysbench.oracle import TraceEvent

    assert (
        format_trace_event(TraceEvent("insert", 7, 430, 2))
        == "OP kind=insert var=7 val=430 res=2"
    )


def test_run_to_text_debug_has_trace_then_checksum():
    text = run_to_text(lower_text("new"), ExecConfig(debug_trace=True))
    lines = text.splitlines()
    assert lines[0] == "OP kind=new var=1 val=0 res=1"
    assert lines[1].startswith("CHECKSUM ")
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# call and aliasing semantics

def test_alias_consumes_parameter():
    # one object total: the callee's new re-uses the passed reference
    program = lower_text("new CALL(new insert)")
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace][:2] == [("new", 1, 1), ("new", 1, 0)]
    assert stats.max_live == 1


def test_params_consumed_in_slot_order():
    program = lower_text("new new CALL(new)")
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace] == [
        ("new", 1, 1),
        ("new", 2, 1),
        ("new", 1, 0),  # aliases the first visible slot's object
    ]


def test_a_parameter_the_callee_never_binds_stays_with_its_owner():
    program = lower_text("new CALL()")
    _, stats = interpret(program)
    assert stats.max_live == 1


def test_callee_allocates_fresh_after_params_exhausted():
    program = lower_text("new CALL(new new)")
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace] == [
        ("new", 1, 1),
        ("new", 1, 0),
        ("new", 2, 1),
    ]
    assert stats.max_live == 2


# ---------------------------------------------------------------------------
# scoping and leaks

def test_loop_locals_freed_each_iteration():
    program = lower_text("LOOP(new)", trip_count=2)
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace] == [("new", 1, 1), ("new", 2, 1)]
    assert stats.max_live == 1


def test_cond_locals_not_visible_to_materialized_operand():
    program = lower_text("IF(new, ) insert")
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    # cond-local object 1 is freed at cond exit; the insert got its own New
    assert [(e.op, e.var, e.res) for e in trace] == [
        ("new", 1, 1),
        ("new", 2, 1),
        ("insert", 2, 1),
    ]


def test_hand_built_rebinding_leaks():
    # same-block slot rebinding drops the first object without freeing it;
    # the generator never emits this, so it only arises in hand-built
    # programs like this one, and the function's return reports it
    fn = FunctionDef(id=0, canonical="new new", body=[New(0), New(0)], slot_count=1)
    program = Program(functions=[fn], entry_id=0)
    with pytest.raises(OracleInvariantError,
                       match="ownership broken: function 0 returns with 1 objects"):
        interpret(program)


def test_unbound_slot_use_aborts():
    fn = FunctionDef(
        id=0, canonical="insert", body=[Insert(slot=0, value=5)], slot_count=1
    )
    program = Program(functions=[fn], entry_id=0)
    with pytest.raises(OracleInvariantError):
        interpret(program)


def test_unbound_call_argument_aborts():
    callee = FunctionDef(id=0, canonical="", body=[], slot_count=0)
    entry = FunctionDef(
        id=1,
        canonical="CALL()",
        body=[Call(callee_id=0, available_slots=[0])],
        slot_count=1,
    )
    program = Program(functions=[callee, entry], entry_id=1)
    with pytest.raises(OracleInvariantError):
        interpret(program)


def test_ownership_verification_catches_a_leaked_rebinding():
    # the same hand-built leak as above: with verification on, the function
    # returns with an object it allocated still live
    fn = FunctionDef(id=0, canonical="new new", body=[New(0), New(0)], slot_count=1)
    program = Program(functions=[fn], entry_id=0)
    with pytest.raises(OracleInvariantError, match="ownership broken"):
        interpret(program)


def test_callee_borrows_the_callers_object():
    # the callee's new aliases the caller's object and inserts into it; the
    # caller sees that insert, and only the caller frees the object
    for kind in ("array", "sortedList"):
        program = lower_text("new CALL(new insert) insert contains", container_kind=kind)
        trace, stats = interpret(program, ExecConfig(debug_trace=True))
        assert [(e.op, e.var, e.res) for e in trace[:4]] == [
            ("new", 1, 1),
            ("new", 1, 0),
            ("insert", 1, 1),
            ("insert", 1, 2),  # size 2: the callee's insert is visible
        ]
        assert [(e.op, e.var) for e in trace[4:]] == [("contains", 1)]
        assert stats.max_live == 1


def test_callee_rebinding_a_borrowed_slot_frees_only_its_own_object():
    # the callee's second new replaces the borrowed object with its own,
    # which it frees; the caller's object stays live for the caller's insert
    callee = FunctionDef(id=0, canonical="new new", body=[New(0), New(0)], slot_count=1)
    entry = FunctionDef(
        id=1, canonical="new CALL() insert",
        body=[New(0), Call(0, [0]), Insert(0, 7)], slot_count=1,
    )
    program = Program(functions=[callee, entry], entry_id=1)
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace] == [
        ("new", 1, 1),
        ("new", 1, 0),
        ("new", 2, 1),
        ("insert", 1, 1),
    ]
    assert stats.max_live == 2


def test_ownership_verification_catches_a_leak_inside_a_callee():
    callee = FunctionDef(id=0, canonical="new new", body=[New(0), New(0)], slot_count=1)
    entry = FunctionDef(id=1, canonical="CALL()", body=[Call(0, [])], slot_count=0)
    program = Program(functions=[callee, entry], entry_id=1)
    with pytest.raises(OracleInvariantError,
                       match="ownership broken: function 0 returns with 1 objects"):
        interpret(program)


def inert_chain(entry_body, entry_slots=1):
    """fn0 is empty, fn1 only calls fn0, and the entry (fn2) calls fn1."""
    fn0 = FunctionDef(id=0, canonical="", body=[], slot_count=0)
    fn1 = FunctionDef(id=1, canonical="CALL()", body=[Call(0, [])], slot_count=0)
    entry = FunctionDef(id=2, canonical="entry", body=entry_body, slot_count=entry_slots)
    return Program(functions=[fn0, fn1, entry], entry_id=2)


def test_inert_callee_still_checks_its_arguments():
    program = inert_chain([Call(1, [0])])
    with pytest.raises(OracleInvariantError, match="use of unbound slot 0"):
        interpret(program)


def test_inert_callee_leaves_the_heap_as_a_full_call_does():
    # appending an If whose arm allocates makes fn1 non-inert, so its calls
    # run in full; at PATH 0 the arm is not taken and fn1 still emits nothing
    arm = If(cond=[], then=[New(0), Insert(0, 9)], bit_index=0, bit_index_raw=0)
    body = [New(0), Insert(0, 5), Call(1, [0]), New(1), Call(1, [1, 0]), Insert(0, 6)]
    for kind in CONTAINER_KINDS:
        runs = []
        for fn1_body in ([Call(0, [])], [Call(0, []), arm]):
            program = inert_chain(body, entry_slots=2)
            program.plan = OperandPlan(container_kind=kind)
            program.functions[1] = FunctionDef(
                id=1, canonical="fn1", body=fn1_body, slot_count=1
            )
            trace, stats = interpret(program, ExecConfig(debug_trace=True))
            runs.append(([(e.op, e.var, e.val, e.res) for e in trace], stats))
        assert all(run == runs[0] for run in runs)
        trace, stats = runs[0]
        assert [e[0] for e in trace] == ["new", "insert", "new", "insert"]
        assert stats.max_live == (0 if kind == "scalar" else 2)


def test_a_callee_empty_at_this_path_still_checks_its_arguments():
    # the callee's ops sit in one If arm: at PATH 0 it has nothing to run,
    # at PATH 1 it runs; either way the unbound argument is caught
    arm = If(cond=[], then=[New(0), Insert(0, 9)], bit_index=0, bit_index_raw=0)
    callee = FunctionDef(id=0, canonical="IF(,new insert)", body=[arm], slot_count=1)
    entry = FunctionDef(id=1, canonical="CALL()", body=[Call(0, [0])], slot_count=1)
    for kind in CONTAINER_KINDS:
        program = Program(functions=[callee, entry], entry_id=1,
                          plan=OperandPlan(container_kind=kind))
        for path in (0, 1):
            with pytest.raises(OracleInvariantError, match="use of unbound slot 0"):
                interpret(program, ExecConfig(path=path))


# ---------------------------------------------------------------------------
# no-arg calls: the first runs in full, later ones replay its record

def trace_of(trace):
    return [(e.op, e.var, e.val, e.res) for e in trace]


def test_a_leaking_no_arg_callee_runs_in_full_every_call():
    # each call would drop one object unfreed; the first call's return
    # raises, so no leaking call is ever recorded for replay
    callee = FunctionDef(
        id=0, canonical="new insert new insert",
        body=[New(0), Insert(0, 5), New(0), Insert(0, 6)], slot_count=1,
    )
    entry = FunctionDef(id=1, canonical="CALL() CALL()", body=[Call(0, []), Call(0, [])])
    program = Program(functions=[callee, entry], entry_id=1)
    for cfg in (ExecConfig(), ExecConfig(debug_trace=True)):
        with pytest.raises(OracleInvariantError,
                           match="ownership broken: function 0 returns with 1 objects"):
            interpret(program, cfg)


def test_a_no_arg_callee_peaks_above_what_its_caller_holds():
    # the callee holds two objects at its peak; its second call comes while
    # the caller holds two of its own, so the run peaks at four
    callee = FunctionDef(
        id=0, canonical="new insert new insert",
        body=[New(0), Insert(0, 1), New(1), Insert(1, 2)], slot_count=2,
    )
    entry = FunctionDef(
        id=1, canonical="CALL() new new CALL() insert",
        body=[Call(0, []), New(0), New(1), Call(0, []), Insert(1, 3)], slot_count=2,
    )
    program = Program(functions=[callee, entry], entry_id=1)
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert trace_of(trace) == [
        ("new", 1, 0, 1), ("insert", 1, 1, 1), ("new", 2, 0, 1), ("insert", 2, 2, 1),
        ("new", 3, 0, 1), ("new", 4, 0, 1),
        ("new", 5, 0, 1), ("insert", 5, 1, 1), ("new", 6, 0, 1), ("insert", 6, 2, 1),
        ("insert", 4, 3, 1),
    ]
    assert stats.max_live == 4


def test_a_scalar_no_arg_callee_traces_its_slot_ordinals_every_call():
    callee = FunctionDef(
        id=0, canonical="new insert new contains",
        body=[New(0), Insert(0, 3), New(1), Contains(1, 4)], slot_count=2,
    )
    entry = FunctionDef(
        id=1, canonical="new CALL() CALL() remove",
        body=[New(0), Call(0, []), Call(0, []), Remove(0, 5)], slot_count=1,
    )
    program = Program(functions=[callee, entry], entry_id=1,
                      plan=OperandPlan(container_kind="scalar"))
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    call = [("new", 0, 0, 1), ("insert", 0, 3, 1), ("new", 1, 0, 1), ("contains", 1, 4, 1)]
    assert trace_of(trace) == [("new", 0, 0, 1), *call, *call, ("remove", 0, 5, 0)]
    assert stats.max_live == 0


def test_ownership_verification_catches_a_leak_in_a_nested_no_arg_callee():
    leaky = FunctionDef(id=0, canonical="new new", body=[New(0), New(0)], slot_count=1)
    middle = FunctionDef(id=1, canonical="new CALL()", body=[New(0), Call(0, [])], slot_count=1)
    entry = FunctionDef(id=2, canonical="CALL() CALL()", body=[Call(1, []), Call(1, [])])
    program = Program(functions=[leaky, middle, entry], entry_id=2)
    for cfg in (ExecConfig(), ExecConfig(debug_trace=True)):
        with pytest.raises(OracleInvariantError,
                           match="ownership broken: function 0 returns with 1 objects"):
            interpret(program, cfg)


# 66,049 calls of fn1, each allocating two objects, one in a nested no-arg
# call: the ids pass 2^16, and the checksum adds each id whole
WIDE_TRIPS = 257
WIDE_CHECKSUM = 6238785972650546556


def test_replayed_ids_past_two_to_the_sixteen():
    inner = FunctionDef(id=0, canonical="new contains", body=[New(0), Contains(0, 7)],
                        slot_count=1)
    outer = FunctionDef(id=1, canonical="new insert CALL()",
                        body=[New(0), Insert(0, 7), Call(0, [])], slot_count=1)
    entry = FunctionDef(id=2, canonical="LOOP(LOOP(CALL()))",
                        body=[Loop(body=[Loop(body=[Call(1, [])])])])
    program = Program(functions=[inner, outer, entry], entry_id=2,
                      plan=OperandPlan(trip_count=WIDE_TRIPS))
    calls = WIDE_TRIPS ** 2
    cs = CHECKSUM_OFFSET
    for k in range(calls):
        a = 2 * k + 1
        for op, var, val, res in (("new", a, 0, 1), ("insert", a, 7, 1),
                                  ("new", a + 1, 0, 1), ("contains", a + 1, 7, 0)):
            cs = checksum_update(cs, op, var, val, res)
    assert cs == WIDE_CHECKSUM
    _, stats = interpret(program)
    assert (stats.checksum, stats.max_live) == (cs, 2)
    assert stats.op_counts == {"new": 2 * calls, "insert": calls, "remove": 0,
                               "contains": calls}
    lines = run_to_text(program, ExecConfig(debug_trace=True)).splitlines()
    assert len(lines) == 4 * calls + 1
    assert lines[-5:] == [
        f"OP kind=new var={2 * calls - 1} val=0 res=1",
        f"OP kind=insert var={2 * calls - 1} val=7 res=1",
        f"OP kind=new var={2 * calls} val=0 res=1",
        f"OP kind=contains var={2 * calls} val=7 res=0",
        f"CHECKSUM {cs}",
    ]


# sha256 over churn g=10 at PATHs 0, 1 and 2^64-1 on every container kind:
# the traced text run_to_text prints, and the untraced checksum, op counts,
# max_live, and a 0 where the objects live at exit were counted (a run
# that leaves any raises). Churn is almost all no-arg calls, so this pins
# replayed results.
CHURN_DIGEST = "e2ed5faf74e8b2ba1a538b274d6f2a6f7646727fd743c3a9232c046f5415207b"


def test_churn_results_digest_is_pinned():
    seq = derive(parse_spec(CALL_CHURN_SPEC), 10)
    digest = hashlib.sha256()
    for kind in CONTAINER_KINDS:
        with warnings.catch_warnings():  # dropped nonterminals
            warnings.simplefilter("ignore")
            program = lower(seq, OperandPlan(seed=7, container_kind=kind))
        for path in (0, 1, U64):
            digest.update(run_to_text(program, ExecConfig(path=path, debug_trace=True)).encode())
            _, stats = interpret(program, ExecConfig(path=path))
            digest.update(repr((stats.checksum, list(stats.op_counts.items()),
                                stats.max_live, 0)).encode())
    assert digest.hexdigest() == CHURN_DIGEST


def test_checksum_is_the_fold_of_the_printed_trace():
    # a replayed no-arg call moves the checksum by one multiply-add; it must
    # land where folding its trace lines one event at a time lands, traced
    # or not
    for spec, generations in ([(CALL_CHURN_SPEC, g) for g in range(3, 11)]
                              + [(CONTAINER_STRESS_SPEC, g) for g in range(4, 9)]):
        seq = derive(parse_spec(spec), generations)
        for kind in CONTAINER_KINDS:
            with warnings.catch_warnings():  # dropped nonterminals, wrapped bits
                warnings.simplefilter("ignore")
                program = lower(seq, OperandPlan(seed=7, container_kind=kind))
            for path in (0, 1, U64):
                *lines, last = run_to_text(
                    program, ExecConfig(path=path, debug_trace=True)).splitlines()
                cs = CHECKSUM_OFFSET
                for line in lines:
                    _, op, var, val, res = (field.partition("=")[2] for field in line.split())
                    cs = checksum_update(cs, op, int(var), int(val), int(res))
                where = (generations, kind, path)
                assert last == f"CHECKSUM {cs}", where
                assert interpret(program, ExecConfig(path=path))[1].checksum == cs, where


def test_runs_leave_no_cyclic_garbage():
    # everything a run makes is freed by reference counting as it returns,
    # so the cyclic collector finds nothing and never pauses a later run
    programs = []
    for spec, generations in ((CALL_CHURN_SPEC, 8), (CONTAINER_STRESS_SPEC, 6)):
        seq = derive(parse_spec(spec), generations)
        for kind in CONTAINER_KINDS:
            with warnings.catch_warnings():  # dropped nonterminals, wrapped bits
                warnings.simplefilter("ignore")
                programs.append(lower(seq, OperandPlan(seed=5, container_kind=kind)))
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            for path in (0, 1, U64):
                for traced in (False, True):
                    interpret(program, ExecConfig(path=path, debug_trace=traced))
                    assert gc.collect() == 0
                    run_to_text(program, ExecConfig(path=path, debug_trace=traced))
                    assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_leaks_random_programs_all_containers():
    rng = random.Random(555)
    for _ in range(40):
        seq = random_seq_nonempty(rng, depth=4, max_len=5)
        for kind in ("array", "sortedList", "scalar"):
            program = lower(seq, OperandPlan(seed=1, container_kind=kind))
            for path in (0, 1, U64):
                _, stats = interpret(program, ExecConfig(path=path))


# ---------------------------------------------------------------------------
# container semantics

def test_scalar_semantics_hand_checked():
    program = lower_text(
        "new insert insert remove remove remove contains", container_kind="scalar"
    )
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    # value goes 0 ->1 ->2, then three decrements (the last from 0), then a
    # zero test on -1
    assert [(e.op, e.res) for e in trace] == [
        ("new", 1),
        ("insert", 1),
        ("insert", 2),
        ("remove", 1),
        ("remove", 1),
        ("remove", 0),
        ("contains", 0),
    ]
    # scalar var is the slot ordinal, not an allocation id
    assert all(e.var == 0 for e in trace)
    assert stats.max_live == 0


def test_scalar_params_are_value_copies():
    program = lower_text("new CALL(new insert) contains", container_kind="scalar")
    trace, stats = interpret(program, ExecConfig(debug_trace=True))
    assert [(e.op, e.var, e.res) for e in trace] == [
        ("new", 0, 1),       # entry slot 0 starts at zero
        ("new", 0, 0),       # callee consumes the passed value as a copy
        ("insert", 0, 1),    # callee-local copy becomes 1
        ("contains", 0, 1),  # entry slot 0 still zero: no aliasing
    ]
    assert stats.max_live == 0


def test_scalar_contains_tests_zero():
    trace, _ = interpret(
        lower_text("new contains", container_kind="scalar"),
        ExecConfig(debug_trace=True),
    )
    assert trace[1].res == 1


def test_sorted_list_remove_absent():
    program = lower_text("new remove", container_kind="sortedList")
    trace, _ = interpret(program, ExecConfig(debug_trace=True))
    assert trace[1].res == 0


def test_container_invariance_array_vs_sorted():
    rng = random.Random(321)
    cases = [random_seq_nonempty(rng, depth=4, max_len=5) for _ in range(20)]
    cases.append(derive(parse_spec(CONTAINER_STRESS_SPEC), 4))
    for seq in cases:
        results = []
        for kind in ("array", "sortedList"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                program = lower(seq, OperandPlan(seed=0, container_kind=kind))
            trace, stats = interpret(program, ExecConfig(path=1, debug_trace=True))
            results.append((trace, stats.checksum))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]


def test_path_sensitivity():
    program = lower_container_stress(4, seed=0)
    _, all_zero = interpret(program, ExecConfig(path=0))
    _, all_one = interpret(program, ExecConfig(path=U64))
    assert all_zero.checksum != all_one.checksum
    total = lambda s: sum(s.op_counts.values())
    assert total(all_zero) < total(all_one)


@pytest.mark.filterwarnings("ignore:function 0 needs bit")
def test_monotone_op_growth_over_generations():
    # generation 8 intentionally exceeds 64 branch bits; the wrap warning is
    # the library's documented behavior, not a defect in this test
    totals = []
    for gen in range(4, 9):
        program = lower_container_stress(gen, seed=0)
        _, stats = interpret(program, ExecConfig(path=1))
        totals.append(sum(stats.op_counts.values()))
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_op_counts_equal_the_traced_events_at_every_trip_count():
    # op counts come from the compile (loops multiply by the trip count,
    # calls add their callee's counts); they must match what the run does
    rng = random.Random(8642)
    seqs = [random_seq_nonempty(rng, depth=4, max_len=4) for _ in range(25)]
    for seq in seqs:
        for trips in (1, 2, 3):
            for kind in CONTAINER_KINDS:
                program = lower(seq, OperandPlan(seed=2, trip_count=trips, container_kind=kind))
                for path in (0, 1, U64):
                    trace, stats = interpret(program, ExecConfig(path=path, debug_trace=True))
                    ops = [e.op for e in trace]
                    assert stats.op_counts == {op: ops.count(op) for op in stats.op_counts}
                    assert sorted(stats.op_counts) == sorted(("new", "insert", "remove", "contains"))


def test_interpret_deterministic_and_pure():
    program = lower_container_stress(4, seed=0)
    r1 = interpret(program, ExecConfig(path=5, debug_trace=True))
    r2 = interpret(program, ExecConfig(path=5, debug_trace=True))
    assert r1 == r2


def test_program_plan_sets_container_kind():
    program = lower_text("new contains", container_kind="array")
    program.plan = OperandPlan(seed=0, container_kind="scalar")
    trace, _ = interpret(program, ExecConfig(debug_trace=True))
    assert trace[1].res == 1  # scalar zero-test instead of array membership


def model_remove(model, value):
    if value not in model:
        return 0
    model.remove(value)
    return 1


LIST_MODEL = {
    Insert: lambda model, value: model.append(value) or len(model),
    Remove: model_remove,
    Contains: lambda model, value: 1 if value in model else 0,
}


def test_heap_containers_match_a_list_model():
    # each object is modelled as a plain Python list, independently of the
    # interpreter's containers; small signed values give repeats, negative
    # values and removes of absent values
    rng = random.Random(2468)
    for _ in range(60):
        body = [New(0), New(1)]  # objects 1 and 2
        for _ in range(rng.randint(0, 40)):
            op = rng.choice(list(LIST_MODEL))
            body.append(op(slot=rng.randint(0, 1), value=rng.randint(-4, 4)))
        models = {1: [], 2: []}
        expected = [
            (st.slot + 1, st.value, LIST_MODEL[type(st)](models[st.slot + 1], st.value))
            for st in body[2:]
        ]
        for kind in ("array", "sortedList"):
            fn = FunctionDef(id=0, canonical="model", body=body, slot_count=2)
            program = Program([fn], entry_id=0, plan=OperandPlan(container_kind=kind))
            trace, stats = interpret(program, ExecConfig(debug_trace=True))
            assert [(e.var, e.val, e.res) for e in trace[2:]] == expected


# ---------------------------------------------------------------------------
# pinned results

# sha256 over the trace, checksum, op counts, max_live and a 0 (where the
# objects live at exit were counted; a run that leaves any raises) of
# every run below. It pins the interpreter's results: any change to what a
# program does under the oracle moves it.
ORACLE_DIGEST = "672f9e48192eb2bbe729bc6ce0e33be7698ab90668427c99e2b492357db90b6e"


def digest_programs():
    rng = random.Random(4321)
    seqs = [random_seq(rng, depth=3) for _ in range(60)]
    seqs.append(derive(parse_spec(CALL_CHURN_SPEC), 8))
    seqs.append(derive(parse_spec(CONTAINER_STRESS_SPEC), 7))
    for seq in seqs:
        for kind in CONTAINER_KINDS:
            with warnings.catch_warnings():  # dropped nonterminals, wrapped bits
                warnings.simplefilter("ignore")
                yield lower(seq, OperandPlan(seed=3, container_kind=kind))


def run_record(program, path):
    trace, stats = interpret(program, ExecConfig(path=path, debug_trace=True))
    events = [(e.op, e.var, e.val, e.res) for e in trace]
    return repr((events, stats.checksum, list(stats.op_counts.items()),
                 stats.max_live, 0))


def test_oracle_results_digest_is_pinned():
    digest = hashlib.sha256()
    for program in digest_programs():
        for path in (0, 1, U64):
            digest.update(run_record(program, path).encode())
    assert digest.hexdigest() == ORACLE_DIGEST


def test_run_to_text_matches_the_formatted_trace_and_untraced_runs_match():
    # run_to_text formats its own records; it must print exactly what
    # format_trace_event makes of interpret's trace, and tracing must not
    # change the checksum or any statistic
    for program in digest_programs():
        for path in (0, 1, U64):
            trace, stats = interpret(program, ExecConfig(path=path, debug_trace=True))
            want = "".join(format_trace_event(e) + "\n" for e in trace)
            want += f"CHECKSUM {stats.checksum}\n"
            assert run_to_text(program, ExecConfig(path=path, debug_trace=True)) == want
            untraced, plain = interpret(program, ExecConfig(path=path))
            assert untraced == []
            assert (plain.checksum, plain.op_counts, plain.max_live) == (
                stats.checksum, stats.op_counts, stats.max_live)
