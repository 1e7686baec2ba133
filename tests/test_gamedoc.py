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
    assert tree.taboo_owner(()) is Player.II


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
