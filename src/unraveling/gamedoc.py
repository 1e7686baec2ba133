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
structural checks.  The tree comes by one of two routes.  NODES rows in
canonical order and canonical text, as ``format_game`` writes them, are
read in one linear pass (``_nodes_in_order``) that finds each parent by a
pointer moving forward, builds each position from its parent's and
collects every node's child labels by id; they enter the tree through
the checked id entry ``GameTree._from_ids_checked``, with no sort.  At
the first row that pass does not accept, the section is read again from
its first row, one row at a time (``_nodes_by_row``), and the positions
go to ``GameTree.from_nodes`` and the sorting constructor.  Both routes
give the same tree and the same rejections.  Every parse error carries a
line (and where sensible a column, found in the line's text) number: a
structural error is reported on the TABOOS line of a tagged position, on
the NODES line of any other, on the line of a generator, or on the DEPTH
line for an illegal depth bound.

Blank lines and full-line ``#`` comments are accepted on input; the
canonical printer emits neither, and parse/print round-trips canonically
formatted text byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat

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
    """The rows that are not blank or comments, each as its line number,
    tokens and text, read from ``cursor`` on."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, list[str], str]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split()
            if tokens and not tokens[0].startswith("#"):
                self.rows.append((number, tokens, raw))
        self.cursor = 0
        self.last_line = self.rows[-1][0] if self.rows else 1

    def peek(self):
        return self.rows[self.cursor] if self.cursor < len(self.rows) else None

    def until(self, keyword: str, missing: str | None = None):
        """Yield the rows before the next one that starts with ``keyword``;
        running out of rows raises the error ``missing``, if one is given."""
        rows = self.rows
        while self.cursor < len(rows):
            row = rows[self.cursor]
            if row[1][0] == keyword:
                return
            self.cursor += 1
            yield row
        if missing is not None:
            raise GameDocError(missing, self.last_line)


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


def _nodes_in_order(
    rows, alphabet: int, most: int
) -> tuple[list[Position], list[tuple[int, ...]]] | None:
    """The positions of the NODES rows, the root first, and every node's
    child labels, both by id, read in one linear pass while the rows list
    them in canonical order and canonical text; ``None`` at the first row
    that pass does not accept, which it leaves to ``_nodes_by_row``.

    Each row's path is split once, at its last slash.  Its parent is found
    by moving one pointer forward over the path texts already read, and its
    label through a table of the label texts, built for at most ``most``
    labels; the position is the parent's plus that label.  Siblings must
    ascend, so no path repeats, and a node's id is its row's index: each
    parent's children are one block of ids, the blocks in parent order."""
    label_of = {str(label): label for label in range(min(alphabet, most))}
    texts: list[str | None] = [None]  # the root: a path with no slash names no parent
    positions: list[Position] = [()]
    labels: list[tuple[int, ...]] = []  # by id, up to the parent before the current one
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal label tuples, kept once
    parent, siblings = 0, []  # the current parent and its child labels so far

    def close(up_to: int) -> None:
        """Store the current parent's child labels, and none for the ids
        after it and before ``up_to``."""
        own = tuple(siblings)
        labels.append(shared.setdefault(own, own))
        labels.extend(repeat((), up_to - parent - 1))

    for _, tokens, _ in rows:
        if len(tokens) != 1:
            return None
        head, slash, tail = tokens[0].rpartition("/")
        label, up = label_of.get(tail), head if slash else None
        if label is None:
            return None
        if up != texts[parent]:
            try:
                later = texts.index(up, parent + 1)
            except ValueError:
                return None
            close(later)
            parent, siblings = later, []
        elif siblings and label <= siblings[-1]:
            return None
        siblings.append(label)
        texts.append(tokens[0])
        positions.append(positions[parent] + (label,))
    close(len(positions))
    return positions, labels


def _nodes_by_row(rows, alphabet: int) -> list[Position]:
    """The positions of the NODES rows, the root first, the rows in any
    order, each checked on its own row."""
    seen: dict[Position, None] = {(): None}  # in row order
    for line, tokens, raw in rows:
        if len(tokens) != 1:
            raise GameDocError("node lines carry a single path", line, _col(raw, 1))
        position = _parse_path(tokens[0], line, raw, alphabet)
        if not position:
            raise GameDocError("the root is implicit and not listed", line, _col(raw, 0))
        if position in seen:
            raise GameDocError(f"duplicate node {tokens[0]}", line, _col(raw, 0))
        seen[position] = None
    return list(seen)


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
    first_row = lines.cursor
    in_order = _nodes_in_order(lines.until("TABOOS"), alphabet, len(lines.rows))
    if in_order is None or lines.peek() is None:  # read the section again, row by row
        lines.cursor, in_order = first_row, None
        nodes = _nodes_by_row(lines.until("TABOOS", "missing TABOOS section"), alphabet)
    else:
        nodes = in_order[0]

    _expect_header(lines, "TABOOS", 0)
    taboos: dict[Position, Player] = {}
    taboo_lines: dict[Position, int] = {}
    for line, tokens, raw in lines.until("PAYOFF", "missing PAYOFF section"):
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
        if in_order is None:
            tree = GameTree.from_nodes(depth, nodes, taboos)
        else:
            tree = GameTree._from_ids_checked(depth, *in_order, taboos)
    except ArenaError as error:
        if error.position is None:  # the depth bound itself
            line = depth_line
        elif error.position in taboo_lines:  # a tagged position is reported on its TABOOS line
            line = taboo_lines[error.position]
        else:  # the root is on the NODES line, and each node on its own row
            rows = (row[0] for row in lines.rows[first_row:])
            line = dict(zip(nodes, chain([nodes_line], rows))).get(error.position)
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
