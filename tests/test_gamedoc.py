import json
import random

import pytest

from unraveling.core import Player
from unraveling.gamedoc import (
    GameDocError,
    GameDocument,
    format_game,
    parse_game,
    parse_game_bytes,
    to_document,
)
from unraveling.payoff import Closed, ClosedSpec, ClosedUnion, Not, Open
from unraveling.unravel import build_base_covering

import oracles

MINIMAL = """\
GAME v1
ALPHABET 2
DEPTH 2
NODES
0
1
0/0
0/1
1/0
1/1
TABOOS
PAYOFF closed
"""


def test_minimal_document_parses():
    document = parse_game(MINIMAL)
    assert document.alphabet == 2 and document.tree.depth == 2
    assert document.tree.node_count == 7
    assert document.payoff == Closed(ClosedSpec())


def test_comments_and_blank_lines_are_ignored():
    noisy = "# a game\n\n" + MINIMAL.replace("NODES\n", "NODES\n# body\n\n")
    assert parse_game(noisy) == parse_game(MINIMAL)


def test_canonical_round_trip_is_identity():
    document = parse_game(MINIMAL)
    assert parse_game(format_game(document)) == document
    assert format_game(parse_game(format_game(document))) == format_game(document)


def test_fixture_files_round_trip(fixtures_dir):
    names = sorted(p.name for p in fixtures_dir.glob("*.game"))
    assert len(names) >= 4
    for name in names:
        text = (fixtures_dir / name).read_text()
        document = parse_game(text)
        assert format_game(document) == text, f"{name} is stored canonically"


def test_to_document_round_trips(ex2):
    payoff = Open(ClosedSpec([(1,)]))
    document = to_document(ex2, payoff)
    assert document.tree is ex2
    parsed = parse_game(format_game(document))
    assert parsed.tree == ex2
    assert parsed.payoff == payoff


def test_union_payoff_round_trip(ex1):
    union = ClosedUnion([ClosedSpec([(1,)]), ClosedSpec([(0,), (0, 1)])])
    document = to_document(ex1, union)
    assert parse_game(format_game(document)).payoff == union


def _message_ids(cases):
    """Test ids ``<lambda>-<message>``; the expected line is not part of the id."""
    return [f"<lambda>-{message}" for _, message, _ in cases]


REJECTIONS = [
    (lambda t: t.replace("GAME v1", "GAME v2"), "unsupported version", 1),
    (lambda t: t.replace("DEPTH 2", "DEPTH 3"), "even", 3),
    (lambda t: t.replace("ALPHABET 2", "ALPHABET 0"), "at least 1", 2),
    (lambda t: t.replace("0/0\n", "0/0\n0/0\n"), "duplicate node", 8),
    (lambda t: t.replace("0/0\n", "0/0/1\n0/0\n"), "exceeds depth", 7),
    (lambda t: t.replace("1/1\n", "2/1\n"), "outside alphabet", 10),
    (lambda t: t.replace("NODES\n0\n", "NODES\n"), "prefix closure", 6),
    (lambda t: t.replace("TABOOS\n", "TABOOS\n0 II\n"), "non-terminal", 12),
    (lambda t: t.replace("TABOOS\n", "TABOOS\n0/0 II\n"), "taboo at full depth", 12),
    (lambda t: t.replace("1/0\n1/1\n", ""), "partition", 6),
    (lambda t: t.split("0\n", 1)[0] + "TABOOS\nPAYOFF closed\n", "partition", 4),
    (lambda t: t.replace("PAYOFF closed\n", "PAYOFF closed\n0/0\n"), "depth range", 13),
    (lambda t: t.replace("PAYOFF closed", "PAYOFF weird"), "payoff kind", 12),
    (lambda t: t.replace("PAYOFF closed\n", "PAYOFF union\n"), "CLOSED block", 12),
    (lambda t: t + "EXTRA\n", "bad path component", 13),
]


@pytest.mark.parametrize("mutate, message, line", REJECTIONS, ids=_message_ids(REJECTIONS))
def test_rejections_carry_line_numbers(mutate, message, line):
    with pytest.raises(GameDocError, match=message) as info:
        parse_game(mutate(MINIMAL))
    assert info.value.line == line


def test_terminal_generator_is_rejected():
    text = """\
GAME v1
ALPHABET 2
DEPTH 4
NODES
0
0/0
0/1
0/1/0
0/1/0/0
TABOOS
0/0 II
PAYOFF closed
0/0
"""
    with pytest.raises(GameDocError, match="terminal") as info:
        parse_game(text)
    assert info.value.line == 13


def test_missing_taboo_tag_is_rejected():
    text = """\
GAME v1
ALPHABET 2
DEPTH 4
NODES
0
0/0
0/1
0/0/0
0/0/0/0
TABOOS
PAYOFF closed
"""
    with pytest.raises(GameDocError, match="partition") as info:
        parse_game(text)
    assert info.value.line == 7


def test_root_taboo_degenerate_document():
    text = """\
GAME v1
ALPHABET 1
DEPTH 2
NODES
TABOOS
- II
PAYOFF closed
"""
    tree = parse_game(text).tree
    assert tree.node_count == 1
    assert oracles.taboo_owner(tree, ()) is Player.II


def test_parse_bytes_rejects_bad_utf8():
    with pytest.raises(GameDocError, match="UTF-8") as info:
        parse_game_bytes(b"GAME v1\n\xff\xfe\n")
    assert info.value.line == 2


def test_parser_totality_under_fuzz():
    """Random byte strings either parse or raise an annotated error."""
    rng = random.Random("gamedoc-fuzz")
    fragments = [
        b"GAME v1\n", b"ALPHABET 2\n", b"DEPTH 2\n", b"NODES\n", b"TABOOS\n",
        b"PAYOFF closed\n", b"0\n", b"1\n", b"0/0\n", b"- I\n", b"CLOSED\n",
    ]
    for trial in range(2000):
        if rng.random() < 0.5:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 160)))
        else:
            blob = b"".join(rng.choice(fragments) for _ in range(rng.randrange(0, 12)))
        try:
            document = parse_game_bytes(blob)
        except GameDocError:
            continue
        assert isinstance(document, GameDocument)


MORE_REJECTIONS = [
    (lambda t: t.replace("DEPTH 2", "DEPTH two"), "non-negative integer", 3),
    (lambda t: t.replace("NODES\n0\n", "NODES\n0 extra\n"), "single path", 5),
    (lambda t: t.replace("NODES\n", "NODES\n-\n"), "root is implicit", 5),
    (lambda t: t.replace("TABOOS\n", "TABOOS\n0\n"), "path and a player", 12),
    (lambda t: t.replace("TABOOS\n", "TABOOS\n0 X\n"), "must be I or II", 12),
    (lambda t: t.replace("TABOOS\n", "TABOOS\n1/0/1 II\n"), "unknown position", 12),
    (lambda t: t.replace("PAYOFF closed\n", "PAYOFF closed\n1/0/1\n"), "unknown position", 13),
    (lambda t: t.replace("GAME v1\n", ""), "expected 'GAME'", 1),
    (lambda t: t.split("PAYOFF")[0], "missing PAYOFF", 11),
    (lambda t: "GAME v1\nALPHABET 2\n", "missing DEPTH", 2),
    (lambda t: t.replace("DEPTH 2", "DEPTH 2 3"), "DEPTH takes 1 argument", 3),
    (lambda t: t.split("TABOOS")[0], "missing TABOOS", 10),
    (lambda t: t + "CLOSED\n", "unexpected 'CLOSED'", 13),
    (
        lambda t: t.replace("PAYOFF closed\n", "PAYOFF union\n1\nCLOSED\n"),
        "expected 'CLOSED', got '1'",
        13,
    ),
    # str.isdigit accepts these, int() does not (or reads them as ASCII digits)
    (lambda t: t.replace("NODES\n0\n", "NODES\n\u00b3\n"), "bad path component '\u00b3'", 5),
    (lambda t: t.replace("0/0\n", "\u0660/0\n"), "bad path component '\u0660'", 7),
    (lambda t: t.replace("ALPHABET 2", "ALPHABET \u00b2"), "ALPHABET must be a non-negative", 2),
    (lambda t: t.replace("DEPTH 2", "DEPTH \u00b2"), "DEPTH must be a non-negative", 3),
]


@pytest.mark.parametrize(
    "mutate, message, line", MORE_REJECTIONS, ids=_message_ids(MORE_REJECTIONS)
)
def test_more_rejections(mutate, message, line):
    with pytest.raises(GameDocError, match=message) as info:
        parse_game(mutate(MINIMAL))
    assert info.value.line == line


def test_duplicate_taboo_rejected():
    text = """\
GAME v1
ALPHABET 2
DEPTH 4
NODES
0
0/0
0/1
0/1/0
0/1/0/0
TABOOS
0/0 II
0/0 I
PAYOFF closed
"""
    with pytest.raises(GameDocError, match="duplicate taboo"):
        parse_game(text)


def test_union_closed_header_takes_no_arguments(ex1):
    from unraveling.payoff import ClosedUnion

    text = format_game(to_document(ex1, ClosedUnion([ClosedSpec([(1,)])])))
    with pytest.raises(GameDocError, match="no arguments"):
        parse_game(text.replace("CLOSED\n", "CLOSED yes\n"))


def test_printer_refuses_what_the_format_cannot_write(ex1):
    not_union = Not(ClosedUnion([ClosedSpec([(1,)])]))
    with pytest.raises(ValueError, match="cannot write the payoff"):
        format_game(GameDocument(2, ex1, not_union))
    with pytest.raises(ValueError, match="cannot write the payoff"):
        to_document(ex1, not_union)
    covering = build_base_covering(ex1, ClosedSpec([(1,)]), 0)
    with pytest.raises(ValueError, match="only base games with integer labels"):
        to_document(covering.source, Closed(ClosedSpec()))


# The mutation corpus: case i edits one fixture, chosen and edited by
# ``random.Random(f"gamedoc-mutation:{i}")``, one to three times.
MUTATION_CASES = 1200
_MUTATION_TOKENS = [
    "0", "1", "2", "3", "-", "0/0", "1/0/1", "0/0/0/0/0", "0//1", "I", "II", "X",
    "NODES", "TABOOS", "PAYOFF", "CLOSED", "closed", "open", "union", "v2", "#", "\u00b3",
]
_MUTATION_LINES = [
    "", "# note", "0", "0/0", "1/1/1", "- I", "0/1 II", "NODES", "TABOOS",
    "PAYOFF closed", "PAYOFF open", "PAYOFF union", "CLOSED", "CLOSED 1", "DEPTH 4",
]
_MUTATION_SPACES = ["\t", "\u00a0", "\u2003", "\u3000", " \t "]


def _mutated(index: int, texts: dict[str, str]) -> tuple[str, str]:
    """The fixture name and mutated text of case ``index``: tokens inserted
    or replaced, lines inserted, dropped, duplicated or swapped, and tabs
    or Unicode spaces as separators and padding."""
    rng = random.Random(f"gamedoc-mutation:{index}")
    name = rng.choice(sorted(texts))
    lines = texts[name].splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        at = rng.randrange(len(lines))
        if rng.random() < 0.5:  # the short tail: TABOOS and PAYOFF
            at = max(0, len(lines) - rng.randint(1, 6))
        if op in (0, 1):  # insert or replace a token
            words = lines[at].split(" ")
            if op == 0:
                words.insert(rng.randint(0, len(words)), rng.choice(_MUTATION_TOKENS))
            else:
                words[rng.randrange(len(words))] = rng.choice(_MUTATION_TOKENS)
            lines[at] = " ".join(words)
        elif op == 2:
            lines.insert(at, rng.choice(_MUTATION_LINES))
        elif op == 3:
            if len(lines) > 1:
                del lines[at]
        elif op == 4:
            lines.insert(at, lines[at])
        elif op == 5:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            space = rng.choice(_MUTATION_SPACES)
            where = rng.randrange(3)
            if where == 0:
                lines[at] = lines[at].replace(" ", space)
            elif where == 1:
                lines[at] = space + lines[at]
            else:
                lines[at] += space
    return name, "\n".join(lines) + "\n"


def _mutation_outcome(text: str, fixture: str):
    """``None`` for the fixture's own document, the canonical text of any
    other document, or a rejection's message, line and column."""
    try:
        canonical = format_game(parse_game(text))
    except GameDocError as error:
        return [error.message, error.line, error.col]
    return None if canonical == fixture else canonical


def test_mutated_fixtures_keep_their_recorded_outcomes(fixtures_dir):
    """Every case of the mutation corpus parses to the recorded document, or
    is rejected with the recorded message, line and column."""
    texts = {path.name: path.read_text() for path in fixtures_dir.glob("*.game")}
    recorded = json.loads((fixtures_dir / "gamedoc_mutations.json").read_text())
    assert len(recorded) == MUTATION_CASES
    for index, expected in enumerate(recorded):
        name, text = _mutated(index, texts)
        assert _mutation_outcome(text, texts[name]) == expected, (index, name, text)
