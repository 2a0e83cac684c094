"""L-system specs over the program alphabet: parsing, rewriting, derivation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Sequence, Tuple, Union

TERMINAL_KINDS = ("new", "insert", "remove", "contains")
CONSTRUCT_KINDS = ("IF", "LOOP", "CALL")
RESERVED_WORDS = frozenset(TERMINAL_KINDS) | frozenset(CONSTRUCT_KINDS)

# construct kind -> (min blocks, max blocks); 1-block LOOP means empty condition
CONSTRUCT_ARITY = {"IF": (2, 3), "LOOP": (1, 2), "CALL": (1, 1)}

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# gen's peak is ~0.14 KB per item (stress g=16: 524,283 items, 72.7 MB max
# RSS; g=17: 202 MB), so this cap is ~0.3 GB.
MAX_ITEMS = 2 * 10**6

# Constructs nested inside constructs, in a spec body and in a derivation.
# Pruning, extraction, planning and emit walk a derivation recursively, and
# gen overflowed Python's stack at about 330 levels; the deepest derivation
# under the item cap (churn g=19) nests 38 deep.
MAX_NESTING = 128


class SpecError(Exception):
    """Malformed spec or sequence."""


class SpecParseError(SpecError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DerivationLimitError(SpecError):
    """Derived sequence exceeded the configured item cap."""


@dataclass(frozen=True)
class Terminal:
    kind: str  # one of TERMINAL_KINDS


@dataclass(frozen=True)
class NonTerminal:
    name: str


@dataclass(frozen=True)
class Construct:
    kind: str  # one of CONSTRUCT_KINDS
    blocks: Tuple["ItemSeq", ...]


SymbolItem = Union[Terminal, NonTerminal, Construct]
# a rule body, a construct block or a derivation
ItemSeq = Tuple[SymbolItem, ...]


@dataclass(frozen=True)
class LSystemSpec:
    axiom: ItemSeq
    productions: Dict[str, ItemSeq] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\S")


def parse_items(text: str, line: int = 1, col_offset: int = 0) -> ItemSeq:
    """Parse a bare item sequence (a rule body, or a canonical string)."""
    tokens = [(m.group(), col_offset + m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    for tok, col in tokens:
        if tok not in ("(", ")", ",") and not NAME_RE.fullmatch(tok):
            raise SpecParseError(f"unexpected character {tok!r}", line, col)
    tokens.append(("", col_offset + len(text) + 1))  # the end of the text
    # one entry per open construct: its keyword, column and blocks so far;
    # the bottom entry holds the top-level sequence as its one block
    stack = [("", 0, [[]])]
    pos = 0
    while True:
        tok, col = tokens[pos]
        pos += 1
        kw, kw_col, blocks = stack[-1]
        if tok in CONSTRUCT_KINDS:
            if tokens[pos][0] != "(":
                raise SpecParseError(f"{tok} requires a parenthesized block list", line, col)
            pos += 1
            if len(stack) > MAX_NESTING:
                raise SpecParseError(f"constructs nest more than {MAX_NESTING} deep", line, col)
            stack.append((tok, col, [[]]))
        elif kw and tok == ",":
            blocks.append([])
        elif kw and tok == ")":
            lo, hi = CONSTRUCT_ARITY[kw]
            if not lo <= len(blocks) <= hi:
                expected = str(lo) if lo == hi else f"{lo} or {hi}"
                raise SpecParseError(f"{kw} requires {expected} blocks, got {len(blocks)}",
                                     line, kw_col)
            stack.pop()
            _, _, outer = stack[-1]
            outer[-1].append(Construct(kw, tuple(map(tuple, blocks))))
        elif tok == "":
            if kw:
                raise SpecParseError(f"unterminated {kw}(...)", line, col)
            return tuple(blocks[0])
        elif tok in ("(", ")", ","):
            raise SpecParseError(f"unexpected {tok!r}", line, col)
        else:
            blocks[-1].append(Terminal(tok) if tok in TERMINAL_KINDS else NonTerminal(tok))


def parse_spec(text: str) -> LSystemSpec:
    """Parse a spec file: one `NAME = body` per line, `#` comments, optional
    trailing `;`, optional `AXIOM = body` line overriding the first-rule default."""
    productions: Dict[str, ItemSeq] = {}
    axiom: ItemSeq | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.rstrip()
        if stripped.endswith(";"):
            stripped = stripped[:-1]
        if not stripped.strip():
            continue
        if "=" not in stripped:
            raise SpecParseError("expected `NAME = body`", lineno, len(line.rstrip()) + 1)
        lhs_text, rhs_text = stripped.split("=", 1)
        lhs = lhs_text.strip()
        lhs_col = line.index(lhs) + 1 if lhs else 1
        if not NAME_RE.fullmatch(lhs):
            raise SpecParseError(f"invalid rule name {lhs!r}", lineno, lhs_col)
        rhs_col = len(stripped) - len(rhs_text)
        rhs = parse_items(rhs_text, line=lineno, col_offset=rhs_col)
        if lhs == "AXIOM":
            if axiom is not None:
                raise SpecParseError("duplicate AXIOM line", lineno, lhs_col)
            axiom = rhs
            continue
        if lhs in RESERVED_WORDS:
            raise SpecParseError(f"reserved word {lhs!r} used as nonterminal", lineno, lhs_col)
        if lhs in productions:
            raise SpecParseError(f"duplicate production for {lhs!r}", lineno, lhs_col)
        productions[lhs] = rhs
    if axiom is None:
        if not productions:
            raise SpecParseError("spec has no productions and no AXIOM line", 1, 1)
        axiom = next(iter(productions.values()))
    return LSystemSpec(axiom=axiom, productions=productions)


# ---------------------------------------------------------------------------
# rewriting

# What each nonterminal of a spec has become after some rewrites, by name,
# and what each construct of the spec has become, by id.
_Rules = Dict[str, ItemSeq]
_Nodes = Dict[int, Construct]


def derive(spec: LSystemSpec, generations: int) -> ItemSeq:
    """The axiom after `generations` parallel rewrites: each one replaces
    every nonterminal that has a production by its rhs, inside construct
    blocks too. The item count and nesting depth of every generation, 0
    included, are worked out from the productions first, so a derivation
    above MAX_ITEMS or MAX_NESTING fails before anything is rewritten.

    The result is hash-consed: what a nonterminal or a construct of the
    spec becomes after g rewrites is built once, as one object, and shared
    by every place it occurs, so the derivation holds O(rules x g) distinct
    constructs. Like the size table, it is built one generation at a time.

    Only what a checked generation holds is built: a rule or construct that
    generation f holds first is, after k rewrites, part of generation f + k,
    so it is built only while f + k <= generations, and a rule that no
    generation holds is never built."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    first_rules, first_nodes = _first_generations(spec)
    reached = {lhs: spec.productions[lhs] for lhs in first_rules}
    # nonterminal -> (items, nesting depth) of what it has become by this generation
    table: Dict[str, Tuple[int, int]] = {}
    for gen in range(generations + 1):
        n, depth = _size(spec.axiom, table)
        if n > MAX_ITEMS:
            raise DerivationLimitError(
                f"generation {gen} has {n} items, above the cap of {MAX_ITEMS}")
        if depth > MAX_NESTING:
            raise DerivationLimitError(
                f"generation {gen} nests constructs {depth} deep, above the cap of {MAX_NESTING}")
        table = {lhs: _size(rhs, table) for lhs, rhs in reached.items()}
    constructs = _constructs((spec.axiom, *reached.values()))
    rules: _Rules = {}
    nodes: _Nodes = {}
    for left in reversed(range(generations)):  # rewrites left after this one
        step = LSystemSpec(spec.axiom, {lhs: rhs for lhs, rhs in reached.items()
                                        if first_rules[lhs] <= left})
        rules, nodes = expand(step, [c for c in constructs if first_nodes[id(c)] <= left],
                              rules, nodes)
    return _splice(spec.axiom, rules, nodes)


def expand(spec: LSystemSpec, constructs: List[Construct], rules: _Rules,
           nodes: _Nodes) -> Tuple[_Rules, _Nodes]:
    """One generation of derive. Given what each nonterminal of the spec
    (rules, by name) and each construct of the spec (nodes, by id) have
    become after g rewrites, empty for g = 0, return what they become after
    g + 1: a nonterminal becomes its rhs after g rewrites, and a construct
    holds its blocks after g + 1. `constructs` lists the spec's constructs,
    each after the constructs nested in it."""
    next_rules = {lhs: _splice(rhs, rules, nodes) for lhs, rhs in spec.productions.items()}
    next_nodes: _Nodes = {}
    for c in constructs:
        next_nodes[id(c)] = Construct(c.kind, tuple(_splice(b, next_rules, next_nodes)
                                                    for b in c.blocks))
    return next_rules, next_nodes


def _first_generations(spec: LSystemSpec) -> Tuple[Dict[str, int], Dict[int, int]]:
    """The earliest generation that holds each rule the axiom reaches, by
    name, and each construct, by id: a breadth-first walk from the axiom,
    nested blocks included. What the axiom holds is in generation 0, and
    what a rule's body holds in the rule's generation + 1."""
    rules: Dict[str, int] = {}
    nodes: Dict[int, int] = {}
    gen, seqs = 0, [spec.axiom]  # the sequences that generation gen holds first
    while seqs:
        found: List[ItemSeq] = []
        while seqs:
            for item in seqs.pop():
                if isinstance(item, NonTerminal):
                    if item.name in spec.productions and item.name not in rules:
                        rules[item.name] = gen
                        found.append(spec.productions[item.name])
                elif isinstance(item, Construct) and id(item) not in nodes:
                    nodes[id(item)] = gen
                    seqs.extend(item.blocks)
        gen, seqs = gen + 1, found
    return rules, nodes


def _splice(seq: ItemSeq, rules: _Rules, nodes: _Nodes) -> ItemSeq:
    """seq's items, each nonterminal replaced by the items of rules[name] and
    each construct by nodes[id]; an item absent from both stays."""
    out: List[SymbolItem] = []
    for item in seq:
        if isinstance(item, NonTerminal):
            out.extend(rules.get(item.name, (item,)))
        elif isinstance(item, Construct):
            out.append(nodes.get(id(item), item))
        else:
            out.append(item)
    return tuple(out)


def _constructs(seqs: Sequence[ItemSeq]) -> List[Construct]:
    """The constructs in seqs, nested ones included, each after the
    constructs nested in it."""
    found, stack = [], list(seqs)  # found lists each before those nested in it
    while stack:
        for item in stack.pop():
            if isinstance(item, Construct):
                found.append(item)
                stack.extend(item.blocks)
    return found[::-1]


# ---------------------------------------------------------------------------
# inspection helpers

def total_items(seq: ItemSeq) -> int:
    """Items in seq, nested ones included."""
    return _size(seq, {})[0]


def nesting_depth(seq: ItemSeq) -> int:
    """How deep constructs nest in seq."""
    return _size(seq, {})[1]


def _size(seq: ItemSeq, table: Mapping[str, Tuple[int, int]]) -> Tuple[int, int]:
    """(items, nesting depth) of seq, walked a nesting level at a time, not
    by recursion; a nonterminal counts as table[name], (1, 0) if absent."""
    items = depth = 0
    level, blocks = 0, [seq]  # the blocks that lie inside `level` constructs
    while blocks:
        depth = max(depth, level)
        inner: List[ItemSeq] = []
        for item in chain.from_iterable(blocks):
            if isinstance(item, NonTerminal):
                n, d = table.get(item.name, (1, 0))
                items, depth = items + n, max(depth, level + d)
            else:
                items += 1
                if isinstance(item, Construct):
                    inner += item.blocks
        level, blocks = level + 1, inner
    return items, depth
