"""Line-oriented game-description format.

A document has four fixed sections introduced by bare headers::

    GAME v1
    ALPHABET 2
    DEPTH 4
    NODES
    0
    0/0
    1
    TABOOS
    0/0 II
    PAYOFF closed
    1

Positions are slash paths of labels (``-`` is the root); every non-root
position is listed under NODES and must come with its parent.  TABOOS tags
early terminals with the player they are a loss for; the tags must cover
exactly the terminals above full depth.  PAYOFF is ``closed`` or ``open``
followed by generator paths, or ``union`` followed by ``CLOSED`` blocks:
the expressions ``Closed(spec)``, ``Not(Closed(spec))`` and
``Union(Closed(spec), ...)``.  No other payoff expression can be written.

A parsed document is ``GameDocument(alphabet, tree, payoff)``.  The parser
checks the text, reading each list section up to the keyword that ends
it; the tree is built once, and it and ``check_generators`` are the only
structural checks.  The NODES rows, in any order, are read in one pass
(``_nodes``) that turns each row into a position, most of them from
their parent's without splitting the line, and the positions go to the
one constructor, ``GameTree(depth, nodes, taboo)``; rows in canonical
order, as ``format_game`` writes them, need no sort there.  Every parse
error carries a line (and where sensible a column, found in the line's text)
number: a structural error is reported on the TABOOS line of a tagged
position, on the NODES line of any other, on the line of a generator, or
on the DEPTH line for an illegal depth bound.

Blank lines and full-line ``#`` comments are accepted on input; the
canonical printer emits neither, and parse/print round-trips canonically
formatted text byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, islice

from .core import ArenaError, GameTree, Player, Position, _paths, format_position
from .payoff import Closed, ClosedSpec, ClosedUnion, Not, Open, PayoffSpec, Union, check_generators

VERSION = "v1"


class GameDocError(ValueError):
    """Parse or validation failure, annotated with its position in the text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}: " if col is None else f"line {line}, col {col}: "
        super().__init__(where + message)


@dataclass(frozen=True)
class GameDocument:
    """A parsed game: the declared alphabet, the validated tree and the payoff."""

    alphabet: int
    tree: GameTree
    payoff: PayoffSpec


_TOKEN = re.compile(r"\S+")  # a token, as ``str.split`` finds it


def _col(raw: str, i: int) -> int:
    """The column of token ``i`` of a line, worked out only for an error."""
    return list(_TOKEN.finditer(raw))[i].start() + 1


class _Lines:
    """The lines of a text, read from ``cursor`` on, an index into
    ``lines``.  A row is a line that is neither blank nor a comment; a
    section splits a row into tokens only when it reads it, as its line
    number, tokens and text."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.cursor = 0

    @property
    def last_line(self) -> int:
        """The number of the last row, or 1 in a text without rows."""
        for number in range(len(self.lines), 0, -1):
            tokens = self.lines[number - 1].split()
            if tokens and not tokens[0].startswith("#"):
                return number
        return 1

    def peek(self):
        """The row at or after the cursor, which moves to it, or None at
        the end."""
        lines = self.lines
        while self.cursor < len(lines):
            raw = lines[self.cursor]
            tokens = raw.split()
            if tokens and not tokens[0].startswith("#"):
                return self.cursor + 1, tokens, raw
            self.cursor += 1
        return None

    def until(self, keyword: str) -> list[tuple[int, list[str], str]]:
        """The rows before the next one that starts with ``keyword``, or
        up to the end; the cursor moves past them."""
        rows = []
        while (row := self.peek()) is not None and row[1][0] != keyword:
            rows.append(row)
            self.cursor += 1
        return rows


def _parse_path(token: str, line: int, raw: str, alphabet: int) -> Position:
    """The position a path token names; paths are the first token of their line."""
    if token == "-":
        return ()
    labels = []
    for part in token.split("/"):
        if not (part.isascii() and part.isdigit()):
            raise GameDocError(f"bad path component {part!r}", line, _col(raw, 0))
        label = int(part)
        if label >= alphabet:
            raise GameDocError(
                f"label {label} outside alphabet 0..{alphabet - 1}", line, _col(raw, 0)
            )
        labels.append(label)
    return tuple(labels)


def _nodes(lines: _Lines, alphabet: int) -> tuple[list[Position], list[int]]:
    """The positions of the NODES rows, up to the TABOOS row, in row order,
    each checked on its own row, and the line number of each.

    A line whose part before its last slash is the canonical text of a
    position read on an earlier row, and whose part after it is a label
    written canonically, is a row of one token as it stands: neither part
    holds a space or starts a comment.  Its position is the parent's plus
    the label, found in a table of the label texts built for at most as
    many labels as there are lines left.  Any other line is split into
    tokens: a blank line or a comment is skipped, the TABOOS row ends the
    section, and any other row is read by ``_parse_path``.  Every position
    is kept under its canonical text, which finds a repeated node however
    it is written."""
    start = lines.cursor
    label_of = {str(label): label for label in range(min(alphabet, len(lines.lines) - start))}
    texts: dict[str, Position] = {}  # by canonical text, in row order
    numbers: list[int] = []
    for number, raw in enumerate(islice(lines.lines, start, None), start + 1):
        head, slash, tail = raw.rpartition("/")
        label, parent = label_of.get(tail), texts.get(head) if slash else ()
        if label is not None and parent is not None:
            text, position = raw, parent + (label,)
        else:
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if tokens[0] == "TABOOS":
                lines.cursor = number - 1
                break
            if len(tokens) != 1:
                raise GameDocError("node lines carry a single path", number, _col(raw, 1))
            position = _parse_path(tokens[0], number, raw, alphabet)
            if not position:
                raise GameDocError("the root is implicit and not listed", number, _col(raw, 0))
            text = format_position(position)
        if text in texts:
            raise GameDocError(f"duplicate node {raw.split()[0]}", number, _col(raw, 0))
        texts[text] = position
        numbers.append(number)
    else:
        lines.cursor = len(lines.lines)
    return list(texts.values()), numbers


def _expect_header(lines: _Lines, keyword: str, argc: int) -> tuple[int, list[str], str]:
    row = lines.peek()
    if row is None:
        raise GameDocError(f"missing {keyword} section", lines.last_line)
    lines.cursor += 1
    line, tokens, raw = row
    if tokens[0] != keyword:
        raise GameDocError(f"expected {keyword!r}, got {tokens[0]!r}", line, _col(raw, 0))
    if len(tokens) != 1 + argc:
        raise GameDocError(f"{keyword} takes {argc} argument(s)", line)
    return row


def _int_arg(header: tuple[int, list[str], str]) -> int:
    """The argument of a one-argument header row, a non-negative integer."""
    line, (keyword, token), raw = header
    if not (token.isascii() and token.isdigit()):
        raise GameDocError(f"{keyword} must be a non-negative integer", line, _col(raw, 1))
    return int(token)


def parse_game(text: str) -> GameDocument:
    """Parse a document and build its tree once.

    The parser checks what only the text shows: headers, the alphabet,
    path syntax, repeated entries, player tags and the payoff layout.
    ``GameTree`` and ``check_generators`` check the structure, and their
    errors are mapped to the line of the offending entry."""
    lines = _Lines(text)

    line, (_, version), raw = _expect_header(lines, "GAME", 1)
    if version != VERSION:
        raise GameDocError(f"unsupported version {version!r}", line, _col(raw, 1))
    header = _expect_header(lines, "ALPHABET", 1)
    alphabet = _int_arg(header)
    if alphabet < 1:
        raise GameDocError("ALPHABET must be at least 1", header[0])
    header = _expect_header(lines, "DEPTH", 1)
    depth, depth_line = _int_arg(header), header[0]

    nodes_line, _, _ = _expect_header(lines, "NODES", 0)
    nodes, node_lines = _nodes(lines, alphabet)

    _expect_header(lines, "TABOOS", 0)
    taboos: dict[Position, Player] = {}
    taboo_lines: dict[Position, int] = {}
    for line, tokens, raw in lines.until("PAYOFF"):
        if len(tokens) != 2:
            raise GameDocError("taboo lines carry a path and a player", line)
        path, owner = tokens
        position = _parse_path(path, line, raw, alphabet)
        if owner not in ("I", "II"):
            raise GameDocError(f"player must be I or II, got {owner!r}", line, _col(raw, 1))
        if position in taboos:
            raise GameDocError(f"duplicate taboo for {path}", line, _col(raw, 0))
        taboos[position] = Player(owner)
        taboo_lines[position] = line

    header_line, (_, kind), raw = _expect_header(lines, "PAYOFF", 1)
    if kind not in ("closed", "open", "union"):
        raise GameDocError(f"payoff kind must be closed, open or union, got {kind!r}",
                           header_line, _col(raw, 1))

    def read_generators() -> dict[Position, int]:
        """One block of generator paths, each with the line it first appears on."""
        generator_lines: dict[Position, int] = {}
        for line, tokens, raw in lines.until("CLOSED"):
            if len(tokens) != 1:
                raise GameDocError("generator lines carry a single path", line, _col(raw, 1))
            generator_lines.setdefault(_parse_path(tokens[0], line, raw, alphabet), line)
        return generator_lines

    blocks = []
    if kind in ("closed", "open"):
        blocks.append(read_generators())
        if (row := lines.peek()) is not None:
            line, tokens, raw = row
            raise GameDocError(f"unexpected {tokens[0]!r}", line, _col(raw, 0))
    else:
        if lines.peek() is None:
            raise GameDocError("union payoff needs at least one CLOSED block", header_line)
        while (row := lines.peek()) is not None:
            line, tokens, raw = row
            if tokens[0] != "CLOSED":
                raise GameDocError(f"expected 'CLOSED', got {tokens[0]!r}", line, _col(raw, 0))
            if len(tokens) != 1:
                raise GameDocError("CLOSED takes no arguments", line)
            lines.cursor += 1
            blocks.append(read_generators())
    specs = [ClosedSpec(block) for block in blocks]

    try:
        tree = GameTree(depth, nodes, taboos)
    except ArenaError as error:
        if error.position is None:  # the depth bound itself
            line = depth_line
        elif error.position in taboo_lines:  # a tagged position is reported on its TABOOS line
            line = taboo_lines[error.position]
        elif error.position:  # each node on its own row
            line = dict(zip(nodes, node_lines)).get(error.position)
        else:  # the root on the NODES line
            line = nodes_line
        raise GameDocError(str(error), line) from error
    for spec, block in zip(specs, blocks):
        try:
            check_generators(tree, spec)
        except ArenaError as error:
            raise GameDocError(str(error), block[error.position]) from error

    if kind == "union":
        return GameDocument(alphabet, tree, ClosedUnion(specs))
    return GameDocument(alphabet, tree, (Closed if kind == "closed" else Open)(specs[0]))


def parse_game_bytes(data: bytes) -> GameDocument:
    """Decode UTF-8 and parse; decoding failures become annotated errors."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as error:
        line = data[: error.start].count(b"\n") + 1
        raise GameDocError("not valid UTF-8", line) from error
    return parse_game(text)


def format_game(document: GameDocument) -> str:
    """Canonical form: the tree's canonical order, no comments, one token of
    whitespace; each node's path is written from its parent's."""
    tree = document.tree
    out = [f"GAME {VERSION}", f"ALPHABET {document.alphabet}", f"DEPTH {tree.depth}", "NODES"]
    out.extend(_paths(tree)[1:])
    out.append("TABOOS")
    out.extend(f"{format_position(p)} {owner}" for p, owner in tree.taboo_items())
    kind, specs = _written_form(document.payoff)
    out.append(f"PAYOFF {kind}")
    for spec in specs:
        if kind == "union":
            out.append("CLOSED")
        out.extend(format_position(g) for g in spec.generators)
    return "\n".join(out) + "\n"


def _written_form(payoff: PayoffSpec) -> tuple[str, list[ClosedSpec]]:
    """The PAYOFF kind and generator blocks of the expressions the format
    can write: a closed set, its complement, and a union of closed sets."""
    if isinstance(payoff, Closed):
        return "closed", [payoff.spec]
    if isinstance(payoff, Not) and isinstance(payoff.payoff, Closed):
        return "open", [payoff.payoff.spec]
    if isinstance(payoff, Union) and all(isinstance(part, Closed) for part in payoff.parts):
        return "union", [part.spec for part in payoff.parts]
    raise ValueError(f"GAME {VERSION} cannot write the payoff {payoff!r}")


def to_document(tree: GameTree, payoff: PayoffSpec) -> GameDocument:
    """Wrap a base game (integer labels only) and a payoff the format can
    write for printing; the tree is shared."""
    _written_form(payoff)
    labels = list(chain.from_iterable(tree._labels))  # each label of a position once
    if any(not isinstance(label, int) for label in labels):
        raise ValueError("only base games with integer labels are serializable")
    return GameDocument(max(labels, default=0) + 1, tree, payoff)
