"""Shared fixtures: reference grammars, reference walkers that the
lowering is tested against, a random program generator, bit assignment
property checks, and toolchain helpers."""

import os
import random
import shutil
import subprocess

from lsysbench.astgen import (
    OPERAND_STMTS,
    Call,
    Contains,
    If,
    Insert,
    Loop,
    New,
    Remove,
    iter_statements,
)
from lsysbench.grammar import (
    TERMINAL_KINDS,
    Construct,
    ItemSeq,
    LSystemSpec,
    NonTerminal,
    SpecError,
    Terminal,
)

# Container-stress grammar: alternates object creation with insert/contains
# pairs under branching loops. Used for control-flow heavy programs.
CONTAINER_STRESS_SPEC = """\
A = new B B
B = IF(LOOP(insert A contains), LOOP(insert A contains))
"""

# Initialization gadget: three fan-out-8 layers over a two-insert leaf,
# 8^3 * 2 = 1024 inserts once fully expanded (generation 3 onward).
FAN_OUT_INIT_SPEC = """\
A0 = A1 A1 A1 A1 A1 A1 A1 A1;
A1 = A2 A2 A2 A2 A2 A2 A2 A2;
A2 = A3 A3 A3 A3 A3 A3 A3 A3;
A3 = insert insert;
"""

# Init gadget feeding a recursive CALL template: populates the container,
# then grows call-heavy churn around a fixed operation mix.
CALL_CHURN_SPEC = """\
AXIOM = A0 B
A0 = A1 A1 A1 A1 A1 A1 A1 A1;
A1 = A2 A2 A2 A2 A2 A2 A2 A2;
A2 = A3 A3 A3 A3 A3 A3 A3 A3;
A3 = insert insert;
B = LOOP(CALL(B) C);
C = B insert remove contains B;
"""

# ---------------------------------------------------------------------------
# item sequences: rendering and counting


def render_items(seq: ItemSeq, allow_nonterminals: bool = True) -> str:
    """The text of seq, as a spec writes it. The text of each sequence and
    construct is kept by id, so a node that a hash-consed derivation
    shares is rendered once."""
    memo = {}

    def render(seq):
        text = memo.get(id(seq))
        if text is None:
            parts = []
            for item in seq:
                if isinstance(item, Terminal):
                    parts.append(item.kind)
                elif isinstance(item, NonTerminal):
                    if not allow_nonterminals:
                        raise SpecError(
                            f"nonterminal {item.name!r} in a sequence expected to be pruned")
                    parts.append(item.name)
                else:
                    part = memo.get(id(item))
                    if part is None:
                        part = memo[id(item)] = "%s(%s)" % (
                            item.kind, ",".join(map(render, item.blocks)))
                    parts.append(part)
            text = memo[id(seq)] = " ".join(parts)
        return text

    return render(seq)


def canonical_serialize(seq: ItemSeq) -> str:
    """Deterministic text form of a pruned sequence; injective, reparseable."""
    return render_items(seq, allow_nonterminals=False)


def render_spec(spec: LSystemSpec) -> str:
    lines = [f"AXIOM = {render_items(spec.axiom)}"]
    for lhs, rhs in spec.productions.items():
        lines.append(f"{lhs} = {render_items(rhs)}")
    return "\n".join(lines) + "\n"


def count_terminals(seq: ItemSeq) -> dict:
    counts = {kind: 0 for kind in TERMINAL_KINDS}
    _count_into(seq, counts)
    return counts


def _count_into(seq: ItemSeq, counts: dict) -> None:
    for item in seq:
        if isinstance(item, Terminal):
            counts[item.kind] += 1
        elif isinstance(item, Construct):
            for b in item.blocks:
                _count_into(b, counts)


def has_nonterminals(seq: ItemSeq) -> bool:
    for item in seq:
        if isinstance(item, NonTerminal):
            return True
        if isinstance(item, Construct) and any(has_nonterminals(b) for b in item.blocks):
            return True
    return False


# ---------------------------------------------------------------------------
# derivation and extraction references


def rewrite_once(spec: LSystemSpec, seq: ItemSeq) -> ItemSeq:
    """One parallel rewrite: every nonterminal with a production is replaced
    by its rhs; nonterminals inside construct blocks are rewritten too. The
    reference that grammar.derive's hash-consed derivation is tested against."""
    out = []
    for item in seq:
        if isinstance(item, NonTerminal):
            rhs = spec.productions.get(item.name)
            if rhs is None:
                out.append(item)
            else:
                out.extend(rhs)
        elif isinstance(item, Construct):
            out.append(
                Construct(item.kind, tuple(rewrite_once(spec, b) for b in item.blocks))
            )
        else:
            out.append(item)
    return tuple(out)


def derive_by_rewriting(spec: LSystemSpec, generations: int) -> ItemSeq:
    """The axiom after rewrite_once `generations` times: an unshared tree."""
    seq = spec.axiom
    for _ in range(generations):
        seq = rewrite_once(spec, seq)
    return seq


TERMINAL_POOL = ("new", "insert", "remove", "contains")


def random_seq(rng: random.Random, depth: int, max_len: int = 5) -> ItemSeq:
    """Random pruned item sequence with nested constructs down to `depth`."""
    items = []
    for _ in range(rng.randint(0, max_len)):
        roll = rng.random()
        if depth > 0 and roll < 0.45:
            kind = rng.choice(("IF", "LOOP", "CALL"))
            if kind == "IF":
                n_blocks = rng.choice((2, 3))
            elif kind == "LOOP":
                n_blocks = rng.choice((1, 2))
            else:
                n_blocks = 1
            blocks = tuple(random_seq(rng, depth - 1, max_len) for _ in range(n_blocks))
            items.append(Construct(kind, blocks))
        else:
            items.append(Terminal(rng.choice(TERMINAL_POOL)))
    return tuple(items)


def random_seq_nonempty(rng: random.Random, depth: int, max_len: int = 5) -> ItemSeq:
    for _ in range(50):
        seq = random_seq(rng, depth, max_len)
        if seq:
            return seq
    return (Terminal("insert"),)


def with_loop_conds(seq: ItemSeq) -> ItemSeq:
    """The sequence with every 1-block LOOP(x) written as LOOP(, x), the
    2-block form that lowers to the same Loop."""
    items = []
    for item in seq:
        if isinstance(item, Construct):
            blocks = tuple(map(with_loop_conds, item.blocks))
            if item.kind == "LOOP" and len(blocks) == 1:
                blocks = ((), *blocks)
            item = Construct(item.kind, blocks)
        items.append(item)
    return tuple(items)


def reference_functions(seq: ItemSeq) -> list:
    """The function bodies, in id order, of a pruned sequence whose CALL
    blocks are deduplicated by their canonical_serialize text, with each
    1-block LOOP keyed as its 2-block form: the reference that
    astgen.extract_functions' structural numbering is tested against. A
    callee takes its id before its caller, and the entry comes last;
    blocks are lowered in extraction's order (an IF's else block first,
    then its cond and then blocks)."""
    terminals = {"new": New, "insert": Insert, "remove": Remove, "contains": Contains}
    ids, bodies = {}, []

    def intern(block):
        text = canonical_serialize(block)
        if text not in ids:
            body = lower(block)
            ids[text] = len(bodies)
            bodies.append(body)
        return ids[text]

    def lower(block):
        stmts = []
        for item in block:
            if isinstance(item, Terminal):
                stmts.append(terminals[item.kind]())
            elif item.kind == "IF":
                orelse = lower(item.blocks[2]) if len(item.blocks) == 3 else None
                stmts.append(If(cond=lower(item.blocks[0]), then=lower(item.blocks[1]),
                                orelse=orelse))
            elif item.kind == "LOOP":
                cond = lower(item.blocks[0]) if len(item.blocks) == 2 else []
                stmts.append(Loop(cond=cond, body=lower(item.blocks[-1])))
            else:
                stmts.append(Call(callee_id=intern(item.blocks[0])))
        return stmts

    intern(with_loop_conds(seq))
    return bodies


# ---------------------------------------------------------------------------
# variable visibility references


def available_vars(fn, call_site: Call) -> list:
    """Slots visible at a call site, in definition order: every New that is a
    strict predecessor in the same statement list or in an enclosing list's
    prefix. Definitions inside sibling branches, cond blocks, or loop bodies
    do not escape."""
    result = None

    def walk(stmts, inherited):
        nonlocal result
        local = []
        for st in stmts:
            if result is not None:
                return
            visible = inherited + local
            if st is call_site:
                result = visible
                return
            if isinstance(st, New):
                local.append(st.slot)
            elif isinstance(st, If):
                walk(st.cond, visible)
                walk(st.then, visible)
                if st.orelse is not None:
                    walk(st.orelse, visible)
            elif isinstance(st, Loop):
                walk(st.cond, visible)
                walk(st.body, visible)

    walk(fn.body, [])
    if result is None:
        raise ValueError("call site not found in this function")
    return result


def verify_slot_safety(program) -> None:
    """Standalone check that every operand slot and every call-site slot list
    agrees with an independent visibility walk."""
    for fn in program.functions:
        _verify_block(fn, fn.body, [])


def _verify_block(fn, stmts, inherited) -> None:
    local = []
    for st in stmts:
        visible = inherited + local
        if isinstance(st, New):
            assert st.slot is not None
            local.append(st.slot)
        elif isinstance(st, OPERAND_STMTS):
            assert st.slot in visible, f"slot {st.slot} not visible in function {fn.id}"
            assert st.value is not None
        elif isinstance(st, If):
            _verify_block(fn, st.cond, visible)
            _verify_block(fn, st.then, visible)
            if st.orelse is not None:
                _verify_block(fn, st.orelse, visible)
        elif isinstance(st, Loop):
            _verify_block(fn, st.cond, visible)
            _verify_block(fn, st.body, visible)
        else:
            assert st.available_slots == visible
            assert st.available_slots == available_vars(fn, st)


# ---------------------------------------------------------------------------
# bit assignment reference and property checks


def all_ifs(stmts):
    return [st for st in iter_statements(stmts) if isinstance(st, If)]


def stack_path_bits(stmts, trace=None) -> list:
    """The raw PATH bit of every If in stmts, in iter_statements order, by
    the counter-stack rule: the reference that astgen.assign_path_bits'
    one counter is tested against.

    The stack starts as [1]. An If first walks its cond at the current
    level, takes bit (top - 1), and pushes top + 1; both branch arms walk
    under that one frame. On exit the child counter is popped and the new
    top becomes max(old top, child), so later siblings never reuse a bit
    assigned inside the subtree. Loops and calls never push.

    When `trace` is a list, every assign/join event is appended to it as a
    dict with the stack snapshot, as the bitpath_*.json fixture tables list
    them."""
    stack = [1]
    bits = {}

    def walk(stmts):
        for st in stmts:
            if isinstance(st, If):
                walk(st.cond)
                raw = bits[id(st)] = stack[-1] - 1
                stack.append(stack[-1] + 1)
                if trace is not None:
                    trace.append({"event": "assign", "bit": raw, "stack_after": list(stack)})
                walk(st.then)
                if st.orelse is not None:
                    walk(st.orelse)
                child = stack.pop()
                stack[-1] = max(stack[-1], child)
                if trace is not None:
                    trace.append({"event": "join", "stack_after": list(stack)})
            elif isinstance(st, Loop):
                walk(st.cond)
                walk(st.body)

    walk(stmts)
    return [bits[id(st)] for st in all_ifs(stmts)]


def subtree_raw_bits(if_stmt: If) -> set:
    bits = set()
    for st in iter_statements([if_stmt]):
        if isinstance(st, If):
            bits.add(st.bit_index_raw)
    return bits


def assert_bitpath_properties(stmts):
    """Nested chains strictly increase; an If after a sibling's join never
    reuses any raw bit from that sibling's subtree."""
    prev_ifs = []
    for st in stmts:
        if isinstance(st, If):
            for earlier in prev_ifs:
                earlier_bits = subtree_raw_bits(earlier)
                assert not (subtree_raw_bits(st) & earlier_bits)
            for branch in (st.then, st.orelse or []):
                for nested in all_ifs(branch):
                    assert nested.bit_index_raw > st.bit_index_raw
            assert_bitpath_properties(st.cond)
            assert_bitpath_properties(st.then)
            if st.orelse is not None:
                assert_bitpath_properties(st.orelse)
            prev_ifs.append(st)
        elif isinstance(st, Loop):
            assert_bitpath_properties(st.cond)
            assert_bitpath_properties(st.body)


# ---------------------------------------------------------------------------
# toolchain helpers

STRICT_C_FLAGS = ["-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wshadow", "-Werror"]


def find_c_compiler():
    for candidate in ("gcc", "cc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def find_go_compiler():
    return shutil.which("go")


def write_files(files, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for f in files:
        with open(os.path.join(out_dir, f.relative_path), "w", encoding="utf-8") as fh:
            fh.write(f.contents)


def start_compile_c(src_dir, src_files, binary, compiler, extra_flags=()):
    """Start a strict compile without waiting for it; communicate() reaps it."""
    argv = [compiler] + STRICT_C_FLAGS + list(extra_flags) + list(src_files) + ["-o", binary]
    return subprocess.Popen(argv, cwd=src_dir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def compile_c(src_dir, src_files, binary, compiler, extra_flags=()):
    with start_compile_c(src_dir, src_files, binary, compiler, extra_flags) as proc:
        stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def run_binary(binary, path, debug=True):
    argv = [binary, str(path)] + (["--debug"] if debug else [])
    return subprocess.run(argv, capture_output=True, text=True)
