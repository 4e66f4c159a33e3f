"""Differential test of the SQL front end against its predecessor.

``data/parser_golden.jsonl`` was written by ``parser_golden.py`` on the commit
before the tokenizer became one pattern and the expression grammar one
precedence loop (PR 24): every statement of the SQLite-oracle and
config-invariance suites, the statement shapes of the four ``benchmarks/e2e``
workloads, the UDF corpus' ``CREATE FUNCTION``s, hand-picked edge cases and
2,400 generated expressions, about half of them invalid.  The front end must
make the same AST — or raise the same ``ParseError``, message and position —
for every line, except the ones listed here, which three bug fixes of that PR
changed on purpose.
"""

import json

import pytest

from parser_golden import GOLDEN, outcome

ENTRIES = {entry["id"]: entry for entry in
           map(json.loads, GOLDEN.read_text(encoding="utf-8").splitlines())}

#: id -> what the front end answers now.  The reference died in ``float()``
#: with a ``ValueError`` on the first six and silently dropped the tokens
#: behind a complete statement on the other five.
CHANGED_ON_PURPOSE = {
    "fix/malformed_number/1e": ["ParseError", "malformed number '1e'", 7],
    "fix/malformed_number/1e+": ["ParseError", "malformed number '1e+'", 7],
    "fix/malformed_number/1.2.3": ["ParseError", "malformed number '1.2.3'", 7],
    "fix/malformed_number/1..2": ["ParseError", "malformed number '1..2'", 7],
    "fix/malformed_number/1ea": ["ParseError", "malformed number '1ea'", 7],
    "fix/malformed_number/in_values":
        ["ParseError", "malformed number '2e-'", 25],
    "fix/trailing/missing_comma":
        ["ParseError", "unexpected token '(' after statement", 27],
    "fix/trailing/two_strings":
        ["ParseError", "unexpected token 'b' after statement", 11],
    "fix/trailing/number_after_where":
        ["ParseError", "unexpected token '2' after statement", 28],
    "fix/trailing/second_statement":
        ["ParseError", "unexpected token 'SELECT' after statement", 10],
    "fix/trailing/close_paren":
        ["ParseError", "unexpected token ')' after statement", 14],
}


def test_the_corpus_is_the_recorded_one():
    assert len(ENTRIES) == 2624
    assert sum(name.startswith("generated/") for name in ENTRIES) == 2400
    errors = sum(entry["expect"][0] == "ParseError" for entry in ENTRIES.values()
                 if entry["kind"] == "expr")
    assert 1000 < errors < 1400  # invalid input is half of the generated part
    assert set(CHANGED_ON_PURPOSE) <= set(ENTRIES)


def test_every_recorded_input_parses_as_it_did():
    different = {}
    for name, entry in ENTRIES.items():
        expected = CHANGED_ON_PURPOSE.get(name, entry["expect"])
        got = outcome(entry["kind"], entry["sql"])
        if got != expected:
            different[name] = (entry["sql"], expected, got)
    assert not different, (len(different), list(different.items())[:5])


@pytest.mark.parametrize("name", sorted(CHANGED_ON_PURPOSE))
def test_a_fix_changed_what_the_reference_did(name):
    # the list above stays honest: an entry the reference already answered
    # this way does not belong on it
    assert ENTRIES[name]["expect"] != CHANGED_ON_PURPOSE[name]
