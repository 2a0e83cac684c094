"""L-system specs over the program alphabet: parsing, rewriting, derivation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Set, Tuple, Union

TERMINAL_KINDS = ("new", "insert", "remove", "contains")
CONSTRUCT_KINDS = ("IF", "LOOP", "CALL")
RESERVED_WORDS = frozenset(TERMINAL_KINDS) | frozenset(CONSTRUCT_KINDS)

# construct kind -> (min blocks, max blocks); 1-block LOOP means empty condition
CONSTRUCT_ARITY = {"IF": (2, 3), "LOOP": (1, 2), "CALL": (1, 1)}

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# gen's peak is ~0.14 KB per item on stress (g=16: 524,283 items, 72.7 MB
# max RSS; g=17: 202 MB), whose derivation repeats itself. A chain such as
# `A = new insert A` repeats nothing and peaks at ~0.84 KB per item
# (g=200,000: 400,003 items, 335 MB), so this cap admits ~1.7 GB.
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

# What each rule the axiom reaches has become after some rewrites, by name,
# as a rope: a list of parts, each an item, an earlier rope, or a reference
# (construct, k, ropes) to a construct of the spec after k rewrites, whose
# nonterminals read their ropes from `ropes`.
_Ropes = Dict[str, list]


def derive(spec: LSystemSpec, generations: int) -> ItemSeq:
    """The axiom after `generations` parallel rewrites: each one replaces
    every nonterminal that has a production by its rhs, inside construct
    blocks too. The item count and nesting depth of every generation, 0
    included, are worked out from the productions first, so a derivation
    above MAX_ITEMS or MAX_NESTING fails before anything is rewritten.

    A rule after k + 1 rewrites is its rhs after k, so each generation
    builds one rope per rule the axiom reaches from the ropes before it,
    and the axiom's rope is flattened once, at the end. What a construct
    of the spec becomes after k rewrites is built when the flatten reaches
    it, as one object shared by every place it occurs. So derive costs the
    items it returns plus rules x generations. A generation with no
    nonterminal left that has a production equals every later one, so
    derive checks and rewrites no further than the first such generation."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    names, todo = set(), _names(spec.axiom)
    while todo:  # the rules the axiom reaches, through rule bodies and blocks
        name = todo.pop()
        if name in spec.productions and name not in names:
            names.add(name)
            todo |= _names(spec.productions[name])
    reached = {lhs: rhs for lhs, rhs in spec.productions.items() if lhs in names}
    # nonterminal -> (items, nesting depth, rewritable nonterminals) of what
    # it has become by this generation
    table: Dict[str, Tuple[int, int, int]] = dict.fromkeys(reached, (1, 0, 1))
    for gen in range(generations + 1):
        n, depth, rewritable = _size(spec.axiom, table)
        if n > MAX_ITEMS:
            raise DerivationLimitError(
                f"generation {gen} has {n} items, above the cap of {MAX_ITEMS}")
        if depth > MAX_NESTING:
            raise DerivationLimitError(
                f"generation {gen} nests constructs {depth} deep, above the cap of {MAX_NESTING}")
        if not rewritable:  # every later generation is this one
            generations = gen
            break
        table = {lhs: _size(rhs, table) for lhs, rhs in reached.items()}
    ropes: _Ropes = {}
    for k in range(generations):
        ropes = expand(reached, ropes, k)
    return _flatten(_rope(spec.axiom, generations, ropes), {})


def expand(productions: Mapping[str, ItemSeq], ropes: _Ropes, k: int) -> _Ropes:
    """One generation of derive. Given the ropes of what each rule has
    become after k rewrites, empty for k = 0, return those after k + 1:
    each rule's rhs after k rewrites."""
    return {lhs: _rope(rhs, k, ropes) for lhs, rhs in productions.items()}


def _rope(seq: ItemSeq, k: int, ropes: _Ropes) -> list:
    """seq after k rewrites: each nonterminal that has a rope is replaced by
    it (by its one part if it has one, by nothing if it is empty), and for
    k > 0 each construct by a reference that holds the ropes it names."""
    rope: list = []
    for item in seq:
        if isinstance(item, NonTerminal) and item.name in ropes:
            part = ropes[item.name]
            if len(part) == 1:
                rope += part
            elif part:
                rope.append(part)
        elif isinstance(item, Construct) and k:
            rope.append((item, k, {n: ropes[n] for n in _names(*item.blocks) & ropes.keys()}))
        else:
            rope.append(item)
    return rope


def _flatten(rope: list, built: Dict[Tuple[int, int], Construct]) -> ItemSeq:
    """The items of a rope. Nested ropes are walked with a stack; a
    construct reference becomes the Construct built for it, once per
    (construct, k) in `built`, so only construct nesting recurses."""
    out: List[SymbolItem] = []
    stack = [iter(rope)]
    while stack:
        for part in stack[-1]:
            if isinstance(part, list):
                stack.append(iter(part))
                break
            if isinstance(part, tuple):
                c, k, ropes = part
                if (id(c), k) not in built:
                    built[id(c), k] = Construct(c.kind, tuple(_flatten(_rope(b, k, ropes), built)
                                                              for b in c.blocks))
                part = built[id(c), k]
            out.append(part)
        else:
            stack.pop()
    return tuple(out)


def _names(*seqs: ItemSeq) -> Set[str]:
    """The nonterminal names in seqs, nested blocks included."""
    names: Set[str] = set()
    stack = list(seqs)
    while stack:
        for item in stack.pop():
            if isinstance(item, NonTerminal):
                names.add(item.name)
            elif isinstance(item, Construct):
                stack.extend(item.blocks)
    return names


# ---------------------------------------------------------------------------
# inspection helpers

def total_items(seq: ItemSeq) -> int:
    """Items in seq, nested ones included."""
    return _size(seq, {})[0]


def nesting_depth(seq: ItemSeq) -> int:
    """How deep constructs nest in seq."""
    return _size(seq, {})[1]


def _size(seq: ItemSeq, table: Mapping[str, Tuple[int, int, int]]) -> Tuple[int, int, int]:
    """(items, nesting depth, nonterminals that have a production) of seq,
    walked a nesting level at a time, not by recursion; a nonterminal
    counts as table[name], (1, 0, 0) if absent."""
    items = depth = rewritable = 0
    level, blocks = 0, [seq]  # the blocks that lie inside `level` constructs
    while blocks:
        depth = max(depth, level)
        inner: List[ItemSeq] = []
        for item in chain.from_iterable(blocks):
            if isinstance(item, NonTerminal):
                n, d, r = table.get(item.name, (1, 0, 0))
                items, depth, rewritable = items + n, max(depth, level + d), rewritable + r
            else:
                items += 1
                if isinstance(item, Construct):
                    inner += item.blocks
        level, blocks = level + 1, inner
    return items, depth, rewritable
