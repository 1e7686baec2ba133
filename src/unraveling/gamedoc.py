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
checks the text; the tree is built once, and ``GameTree`` and
``check_generators`` are the only structural checks.  Every parse error
carries a line (and where sensible a column) number: a structural error
is reported on the TABOOS line of a tagged position, on the NODES line of
any other, on the line of a generator, or on the DEPTH line for an illegal
depth bound.

Blank lines and full-line ``#`` comments are accepted on input; the
canonical printer emits neither, and parse/print round-trips canonically
formatted text byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import ArenaError, GameTree, Player, Position, format_position
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


_TOKEN = re.compile(r"\S+")


class _Lines:
    def __init__(self, text: str):
        self.rows: list[tuple[int, list[tuple[int, str]]]] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(raw)]
            self.rows.append((number, tokens))
        self.cursor = 0

    def peek(self):
        return self.rows[self.cursor] if self.cursor < len(self.rows) else None

    def take(self):
        row = self.peek()
        if row is not None:
            self.cursor += 1
        return row

    @property
    def last_line(self) -> int:
        return self.rows[-1][0] if self.rows else 1


def _parse_path(token: str, line: int, col: int, alphabet: int) -> Position:
    if token == "-":
        return ()
    labels = []
    for part in token.split("/"):
        if not (part.isascii() and part.isdigit()):
            raise GameDocError(f"bad path component {part!r}", line, col)
        label = int(part)
        if label >= alphabet:
            raise GameDocError(f"label {label} outside alphabet 0..{alphabet - 1}", line, col)
        labels.append(label)
    return tuple(labels)


def _expect_header(lines: _Lines, keyword: str, argc: int):
    row = lines.take()
    if row is None:
        raise GameDocError(f"missing {keyword} section", lines.last_line)
    line, tokens = row
    if not tokens or tokens[0][1] != keyword:
        raise GameDocError(f"expected {keyword!r}, got {tokens[0][1]!r}", line, tokens[0][0])
    if len(tokens) != 1 + argc:
        raise GameDocError(f"{keyword} takes {argc} argument(s)", line)
    return line, tokens[1:]


def _int_arg(keyword: str, line: int, col: int, token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise GameDocError(f"{keyword} must be a non-negative integer", line, col)
    return int(token)


def parse_game(text: str) -> GameDocument:
    """Parse a document and build its tree once.

    The parser checks what only the text shows: headers, the alphabet,
    path syntax, repeated entries, player tags and the payoff layout.
    ``GameTree`` and ``check_generators`` check the structure, and their
    errors are mapped to the line of the offending entry."""
    lines = _Lines(text)

    line, args = _expect_header(lines, "GAME", 1)
    version = args[0][1]
    if version != VERSION:
        raise GameDocError(f"unsupported version {version!r}", line, args[0][0])
    line, args = _expect_header(lines, "ALPHABET", 1)
    alphabet = _int_arg("ALPHABET", line, args[0][0], args[0][1])
    if alphabet < 1:
        raise GameDocError("ALPHABET must be at least 1", line)
    depth_line, args = _expect_header(lines, "DEPTH", 1)
    depth = _int_arg("DEPTH", depth_line, args[0][0], args[0][1])

    nodes_line, _ = _expect_header(lines, "NODES", 0)
    node_lines: dict[Position, int] = {(): nodes_line}
    while True:
        row = lines.peek()
        if row is None:
            raise GameDocError("missing TABOOS section", lines.last_line)
        line, tokens = row
        if tokens[0][1] == "TABOOS":
            break
        if len(tokens) != 1:
            raise GameDocError("node lines carry a single path", line, tokens[1][0])
        col, token = tokens[0]
        position = _parse_path(token, line, col, alphabet)
        if not position:
            raise GameDocError("the root is implicit and not listed", line, col)
        if position in node_lines:
            raise GameDocError(f"duplicate node {token}", line, col)
        node_lines[position] = line
        lines.take()

    _expect_header(lines, "TABOOS", 0)
    taboos: dict[Position, Player] = {}
    taboo_lines: dict[Position, int] = {}
    while True:
        row = lines.peek()
        if row is None:
            raise GameDocError("missing PAYOFF section", lines.last_line)
        line, tokens = row
        if tokens[0][1] == "PAYOFF":
            break
        if len(tokens) != 2:
            raise GameDocError("taboo lines carry a path and a player", line)
        col, token = tokens[0]
        position = _parse_path(token, line, col, alphabet)
        owner_col, owner_token = tokens[1]
        if owner_token not in ("I", "II"):
            raise GameDocError(f"player must be I or II, got {owner_token!r}", line, owner_col)
        if position in taboos:
            raise GameDocError(f"duplicate taboo for {token}", line, col)
        taboos[position] = Player(owner_token)
        taboo_lines[position] = line
        lines.take()

    header_line, args = _expect_header(lines, "PAYOFF", 1)
    kind_col, kind = args[0]
    if kind not in ("closed", "open", "union"):
        raise GameDocError(f"payoff kind must be closed, open or union, got {kind!r}",
                           header_line, kind_col)

    def read_generators() -> dict[Position, int]:
        """One block of generator paths, each with the line it first appears on."""
        generator_lines: dict[Position, int] = {}
        while True:
            row = lines.peek()
            if row is None:
                break
            line, tokens = row
            if tokens[0][1] == "CLOSED":
                break
            if len(tokens) != 1:
                raise GameDocError("generator lines carry a single path", line, tokens[1][0])
            col, token = tokens[0]
            generator_lines.setdefault(_parse_path(token, line, col, alphabet), line)
            lines.take()
        return generator_lines

    blocks = []
    if kind in ("closed", "open"):
        blocks.append(read_generators())
        if lines.peek() is not None:
            line, tokens = lines.peek()
            raise GameDocError(f"unexpected {tokens[0][1]!r}", line, tokens[0][0])
    else:
        if lines.peek() is None:
            raise GameDocError("union payoff needs at least one CLOSED block", header_line)
        while lines.peek() is not None:
            line, tokens = lines.peek()
            if tokens[0][1] != "CLOSED":
                raise GameDocError(f"expected 'CLOSED', got {tokens[0][1]!r}", line, tokens[0][0])
            if len(tokens) != 1:
                raise GameDocError("CLOSED takes no arguments", line)
            lines.take()
            blocks.append(read_generators())
    specs = [ClosedSpec(block) for block in blocks]

    try:
        tree = GameTree.from_nodes(depth, node_lines, taboos)
    except ArenaError as error:
        if error.position is None:  # the depth bound itself
            line = depth_line
        else:  # a tagged position is reported on its TABOOS line
            line = taboo_lines.get(error.position, node_lines.get(error.position))
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
    """Canonical form: the tree's canonical order, no comments, one token of whitespace."""
    tree = document.tree
    out = [f"GAME {VERSION}", f"ALPHABET {document.alphabet}", f"DEPTH {tree.depth}", "NODES"]
    out.extend(format_position(p) for p in tree.positions()[1:])
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
    labels = [label for p in tree.positions() for label in p]
    if any(not isinstance(label, int) for label in labels):
        raise ValueError("only base games with integer labels are serializable")
    return GameDocument(max(labels, default=0) + 1, tree, payoff)
