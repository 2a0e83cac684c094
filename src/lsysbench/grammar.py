"""L-system specs over the program alphabet: parsing, rewriting, derivation."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Tuple, Union

TERMINAL_KINDS = ("new", "insert", "remove", "contains")
CONSTRUCT_KINDS = ("IF", "LOOP", "CALL")
RESERVED_WORDS = frozenset(TERMINAL_KINDS) | frozenset(CONSTRUCT_KINDS)

# construct kind -> (min blocks, max blocks); 1-block LOOP means empty condition
CONSTRUCT_ARITY = {"IF": (2, 3), "LOOP": (1, 2), "CALL": (1, 1)}

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Deriving, lowering and emitting C hold ~0.9 KB per item (stress g=16:
# 524,283 items, 467 MB max RSS), so this cap is ~1.8 GB.
DEFAULT_ITEM_CAP = 2 * 10**6


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


@dataclass(frozen=True)
class ItemSeq:
    items: Tuple[SymbolItem, ...] = ()

    def __iter__(self) -> Iterator[SymbolItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


@dataclass(frozen=True)
class LSystemSpec:
    axiom: ItemSeq
    productions: Dict[str, ItemSeq] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[(),]|\S")


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, line: int, col_offset: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = _Token(m.group(0), line, col_offset + m.start() + 1)
        if tok.text not in ("(", ")", ",") and not NAME_RE.fullmatch(tok.text):
            raise SpecParseError(f"unexpected character {tok.text!r}", tok.line, tok.col)
        tokens.append(tok)
    return tokens


class _ItemParser:
    """Recursive-descent parser for item sequences (rule bodies)."""

    def __init__(self, tokens: list[_Token], line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.end_col = end_col

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _error(self, message: str, tok: _Token | None = None):
        if tok is None:
            raise SpecParseError(message, self.line, self.end_col)
        raise SpecParseError(message, tok.line, tok.col)

    def parse_seq(self, stop: tuple[str, ...]) -> ItemSeq:
        items = []
        while True:
            tok = self._peek()
            if tok is None or tok.text in stop:
                return ItemSeq(tuple(items))
            items.append(self.parse_item())

    def parse_item(self) -> SymbolItem:
        tok = self._peek()
        assert tok is not None
        self.pos += 1
        if tok.text in ("(", ")", ","):
            self._error(f"unexpected {tok.text!r}", tok)
        if tok.text in TERMINAL_KINDS:
            return Terminal(tok.text)
        if tok.text in CONSTRUCT_KINDS:
            return self.parse_construct(tok)
        return NonTerminal(tok.text)

    def parse_construct(self, kw: _Token) -> Construct:
        opener = self._peek()
        if opener is None or opener.text != "(":
            self._error(f"{kw.text} requires a parenthesized block list", kw)
        self.pos += 1
        blocks = [self.parse_seq(stop=(",", ")"))]
        while True:
            tok = self._peek()
            if tok is None:
                self._error(f"unterminated {kw.text}(...)")
            if tok.text == ",":
                self.pos += 1
                blocks.append(self.parse_seq(stop=(",", ")")))
                continue
            assert tok.text == ")"
            self.pos += 1
            break
        lo, hi = CONSTRUCT_ARITY[kw.text]
        if not lo <= len(blocks) <= hi:
            expected = str(lo) if lo == hi else f"{lo} or {hi}"
            self._error(
                f"{kw.text} requires {expected} blocks, got {len(blocks)}", kw
            )
        return Construct(kw.text, tuple(blocks))


def parse_items(text: str, line: int = 1, col_offset: int = 0) -> ItemSeq:
    """Parse a bare item sequence (a rule body, or a canonical string)."""
    parser = _ItemParser(_tokenize(text, line, col_offset), line, col_offset + len(text) + 1)
    seq = parser.parse_seq(stop=(")",))
    trailing = parser._peek()
    if trailing is not None:
        parser._error(f"unexpected {trailing.text!r}", trailing)
    return seq


def parse_spec(text: str) -> LSystemSpec:
    """Parse a spec file: one `NAME = body` per line, `#` comments, optional
    trailing `;`, optional `AXIOM = body` line overriding the first-rule default."""
    productions: Dict[str, ItemSeq] = {}
    axiom: ItemSeq | None = None
    first_rhs: ItemSeq | None = None
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
        if first_rhs is None:
            first_rhs = rhs
    if axiom is None:
        if first_rhs is None:
            raise SpecParseError("spec has no productions and no AXIOM line", 1, 1)
        axiom = first_rhs
    return LSystemSpec(axiom=axiom, productions=productions)


# ---------------------------------------------------------------------------
# rendering

def render_items(seq: ItemSeq, allow_nonterminals: bool = True) -> str:
    return " ".join(_render_item(item, allow_nonterminals) for item in seq.items)


def _render_item(item: SymbolItem, allow_nonterminals: bool) -> str:
    if isinstance(item, Terminal):
        return item.kind
    if isinstance(item, NonTerminal):
        if not allow_nonterminals:
            raise SpecError(f"nonterminal {item.name!r} in a sequence expected to be pruned")
        return item.name
    blocks = ",".join(render_items(b, allow_nonterminals) for b in item.blocks)
    return f"{item.kind}({blocks})"


def canonical_serialize(seq: ItemSeq) -> str:
    """Deterministic text form of a pruned sequence; injective, reparseable."""
    return render_items(seq, allow_nonterminals=False)


def render_spec(spec: LSystemSpec) -> str:
    lines = [f"AXIOM = {render_items(spec.axiom)}"]
    for lhs, rhs in spec.productions.items():
        lines.append(f"{lhs} = {render_items(rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rewriting

def rewrite_once(spec: LSystemSpec, seq: ItemSeq) -> ItemSeq:
    """One parallel rewrite: every nonterminal with a production is replaced
    by its rhs; nonterminals inside construct blocks are rewritten too."""
    out = []
    for item in seq.items:
        if isinstance(item, NonTerminal):
            rhs = spec.productions.get(item.name)
            if rhs is None:
                out.append(item)
            else:
                out.extend(rhs.items)
        elif isinstance(item, Construct):
            out.append(
                Construct(item.kind, tuple(rewrite_once(spec, b) for b in item.blocks))
            )
        else:
            out.append(item)
    return ItemSeq(tuple(out))


def derive(spec: LSystemSpec, generations: int, max_items: int = DEFAULT_ITEM_CAP) -> ItemSeq:
    """Apply rewrite_once `generations` times to the axiom. Every
    generation's item count is worked out from the productions first, so a
    derivation above max_items fails before anything is rewritten."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    sizes: Dict[str, int] = {}  # nonterminal -> items it has become by this generation
    for gen in range(1, generations + 1):
        sizes = {lhs: total_items(rhs, sizes) for lhs, rhs in spec.productions.items()}
        n = total_items(spec.axiom, sizes)
        if n > max_items:
            raise DerivationLimitError(
                f"generation {gen} has {n} items, above the cap of {max_items}"
            )
    seq = spec.axiom
    for _ in range(generations):
        seq = rewrite_once(spec, seq)
    return seq


# ---------------------------------------------------------------------------
# inspection helpers

def total_items(seq: ItemSeq, sizes: Mapping[str, int] = MappingProxyType({})) -> int:
    """Items in seq, nested ones included; a nonterminal counts as
    sizes[name] items, 1 if absent."""
    n = 0
    for item in seq.items:
        if isinstance(item, NonTerminal):
            n += sizes.get(item.name, 1)
            continue
        n += 1
        if isinstance(item, Construct):
            for b in item.blocks:
                n += total_items(b, sizes)
    return n


def count_terminals(seq: ItemSeq) -> Dict[str, int]:
    counts = {kind: 0 for kind in TERMINAL_KINDS}
    _count_into(seq, counts)
    return counts


def _count_into(seq: ItemSeq, counts: Dict[str, int]) -> None:
    for item in seq.items:
        if isinstance(item, Terminal):
            counts[item.kind] += 1
        elif isinstance(item, Construct):
            for b in item.blocks:
                _count_into(b, counts)


def has_nonterminals(seq: ItemSeq) -> bool:
    for item in seq.items:
        if isinstance(item, NonTerminal):
            return True
        if isinstance(item, Construct) and any(has_nonterminals(b) for b in item.blocks):
            return True
    return False
