"""Nested UDF discovery (paper §2.3).

MonetDB/Python UDFs can issue loopback queries through the ``_conn`` object,
and those loopback queries can themselves call other UDFs (Listing 3).  To
debug such a UDF locally, devUDF must

* find the loopback queries inside the UDF body,
* identify which of them call other (nested) UDFs,
* import those nested UDFs too (with the same code transformation), and
* extract the nested UDFs' input data "in conjunction with the main UDF data".

This module does the static analysis part: finding loopback query literals and
classifying them.  The data extraction lives in :mod:`repro.core.extract`, the
local ``_conn`` replacement in the generated file template
(:mod:`repro.core.transform`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from ..sqldb.lexer import LITERAL_OR_COMMENT

#: Matches ``_conn.execute(`` followed by a Python string literal (single,
#: double, or triple quoted).  The optional ``% ...`` formatting suffix of
#: Listing 3 is not part of the literal and is therefore ignored here.
_LOOPBACK_PATTERN = re.compile(
    r"_conn\s*\.\s*execute\s*\(\s*"
    r"(?P<quote>\"\"\"|'''|\"|')"
    r"(?P<query>.*?)"
    r"(?P=quote)",
    re.DOTALL,
)

#: Matches a table-function call in a FROM clause: ``FROM <name> (``.
_FROM_FUNCTION_PATTERN = re.compile(r"\bfrom\s+([a-z_][a-z0-9_]*)\s*\(", re.IGNORECASE)

#: A run of blanks outside a literal: one space in a normalised query.
_BLANKS = re.compile(r"\s+")

#: Matches a scalar function call anywhere in the query text.
_CALL_PATTERN = re.compile(r"\b([a-z_][a-z0-9_]*)\s*\(", re.IGNORECASE)


def _code(query: str) -> str:
    """``query`` with its string literals and comments blanked out, position
    for position: what is left is the SQL its calls and parentheses are in."""
    # [outside, literal or comment, outside, ...]
    pieces = LITERAL_OR_COMMENT.split(query)
    pieces[1::2] = [" " * len(piece) for piece in pieces[1::2]]
    return "".join(pieces)


def normalize_query(query: str) -> str:
    """Query text with blanks collapsed and case folded outside its string
    literals and comments, and the trailing ``;`` dropped: ``WHERE s = 'A'``
    and ``WHERE s = 'a'`` are two queries.

    This is the key under which extracted loopback results are stored and
    later replayed by the local ``_conn`` stand-in, so both sides must use the
    same normalisation.
    """
    # [outside, literal or comment, outside, ...]
    pieces = LITERAL_OR_COMMENT.split(str(query))
    pieces[::2] = [_BLANKS.sub(" ", piece).lower() for piece in pieces[::2]]
    return "".join(pieces).strip("; ")


@dataclass
class LoopbackQuery:
    """One loopback query found in a UDF body."""

    text: str
    normalized: str
    has_placeholders: bool = False
    nested_udfs: list[str] = field(default_factory=list)
    subqueries: list[str] = field(default_factory=list)

    @property
    def calls_nested_udf(self) -> bool:
        return bool(self.nested_udfs)


def find_loopback_queries(body: str) -> list[str]:
    """Return the raw query literals passed to ``_conn.execute`` in a body."""
    return [match.group("query") for match in _LOOPBACK_PATTERN.finditer(body)]


def find_called_functions(query: str) -> list[str]:
    """Names that appear as function calls in a query (lowercased, in order)."""
    names: list[str] = []
    for match in _CALL_PATTERN.finditer(_code(query)):
        name = match.group(1).lower()
        if name not in names:
            names.append(name)
    return names


def extract_subquery_arguments(query: str) -> list[str]:
    """Parenthesised ``SELECT`` arguments of table-function calls in a query.

    For Listing 3's ``SELECT * FROM train_rnforest((SELECT data, labels FROM
    trainingset), %d)`` this returns ``["SELECT data, labels FROM trainingset"]``;
    those subqueries are what devUDF must run to extract the nested UDF's
    inputs.
    """
    subqueries: list[str] = []
    code = _code(query)
    for match in _FROM_FUNCTION_PATTERN.finditer(code):
        start = match.end()
        stop = _closing_parenthesis(code, start - 1)
        if stop is None:
            continue
        for first, last in _top_level_parts(code, start, stop):
            stripped = query[first:last].strip()
            if stripped.startswith("(") and stripped.endswith(")"):
                stripped = stripped[1:-1].strip()
            if stripped.lower().startswith("select"):
                subqueries.append(stripped)
    return subqueries


def _closing_parenthesis(code: str, open_position: int) -> int | None:
    depth = 0
    for index in range(open_position, len(code)):
        char = code[index]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return index
    return None


def _top_level_parts(code: str, start: int, stop: int) -> list[tuple[int, int]]:
    """``(first, last)`` of each comma-separated part of ``code[start:stop]``
    that is not inside parentheses."""
    parts: list[tuple[int, int]] = []
    depth = 0
    for index in range(start, stop):
        char = code[index]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append((start, index))
            start = index + 1
    if start < stop:
        parts.append((start, stop))
    return parts


def analyse_loopback_queries(body: str, known_udfs: Iterable[str]) -> list[LoopbackQuery]:
    """Classify every loopback query in a body.

    ``known_udfs`` is the set of UDF names registered in the database catalog;
    a loopback query that calls one of them is a *nested UDF call* and needs
    the §2.3 treatment (import the nested UDF, extract its subquery inputs).
    """
    known = {name.lower() for name in known_udfs}
    queries: list[LoopbackQuery] = []
    for raw in find_loopback_queries(body):
        nested = [name for name in find_called_functions(raw) if name in known]
        queries.append(
            LoopbackQuery(
                text=raw,
                normalized=normalize_query(raw),
                # on the raw text: %-formatting fills a quoted '%s' too
                has_placeholders="%d" in raw or "%s" in raw or "%f" in raw,
                nested_udfs=nested,
                subqueries=extract_subquery_arguments(raw),
            )
        )
    return queries


def find_nested_udf_names(body: str, known_udfs: Iterable[str]) -> list[str]:
    """The distinct nested UDFs referenced from a body's loopback queries."""
    names: list[str] = []
    for query in analyse_loopback_queries(body, known_udfs):
        for name in query.nested_udfs:
            if name not in names:
                names.append(name)
    return names
