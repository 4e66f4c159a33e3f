"""SQL tokenizer.

Tokens are a regular language, so the scanner is one compiled pattern
(:data:`_TOKEN`): blanks and comments, then one of number, punctuation,
string, word, operator, end of input — or the catch-all that stands for
"no token starts here".  A new operator or punctuation mark is one more
entry in that pattern; a new keyword one more entry in :data:`KEYWORDS`.

The only MonetDB-specific piece is ``LANGUAGE PYTHON { ... }``: the text
between the braces is *not* SQL and is captured verbatim (it is Python source,
see paper Listing 1), so :meth:`Lexer.scan` never reads past a ``{`` and the
parser calls :meth:`Lexer.scan_braced_block` when it reaches the opening one
of a CREATE FUNCTION body.
"""

from __future__ import annotations

import enum
import re
from itertools import islice

from ..errors import ParseError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    EOF = "EOF"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC", "DESC",
    "LIMIT", "OFFSET", "DISTINCT", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL",
    "BETWEEN", "LIKE", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "EXISTS",
    "CREATE", "OR", "REPLACE", "TABLE", "DROP", "IF", "INSERT", "INTO", "VALUES",
    "DELETE", "UPDATE", "SET", "FUNCTION", "RETURNS", "LANGUAGE", "JOIN", "INNER",
    "LEFT", "RIGHT", "OUTER", "CROSS", "ON", "TRUE", "FALSE", "COPY", "DELIMITERS",
    "HEADER", "UNION", "ALL", "NOT", "EXPLAIN", "ANALYZE", "CHECKPOINT",
    "VERIFY", "BACKUP", "TO", "SHOW", "STATS",
    "PREPARE", "EXECUTE", "DEALLOCATE",
}

#: Where a comment and a string literal end (``re.VERBOSE | re.DOTALL``
#: fragments): a line comment takes its newline along, a doubled quote inside
#: a literal is an escaped quote.
_COMMENT = r"--[^\n]*\n? | /\*.*?\*/"
_QUOTED = r"""' [^']*+ (?: '' [^']*+ )*+ ' | " [^"]*+ (?: "" [^"]*+ )*+ " """

#: One token per match; the group that matched (``_NUMBER`` ... ``_NO_TOKEN``,
#: in this order) says which.  A number may not run into a word character or
#: another ``.`` — ``1e``, ``1.2.3``, ``1ea`` are no token at all — and ``?``
#: is the positional parameter placeholder of PREPARE/EXECUTE.
_TOKEN = re.compile(rf"""
    (?: \s+ | {_COMMENT} )*+
    (?: ( (?: \d+\.?\d* | \.\d+ ) (?: [eE][+-]?\d+ )? (?![\w.]) )
      | ( [(),;{{}}?] | \.(?!\d) )
      | ( {_QUOTED} )
      | ( [^\W\d]\w* )
      | ( <> | <= | >= | != | \|\| | [-+*%<>=] | /(?!\*) )
      | ( \Z )
      | ( . )
    )""", re.VERBOSE | re.DOTALL)
_NUMBER, _PUNCTUATION, _STRING, _WORD, _OPERATOR, _END, _NO_TOKEN = range(1, 8)
#: Token type by group (a word in :data:`KEYWORDS` is a KEYWORD instead).
_TYPES = (None, TokenType.NUMBER, TokenType.PUNCTUATION, TokenType.STRING,
          TokenType.IDENTIFIER, TokenType.OPERATOR, TokenType.EOF)
#: A string literal or a comment: what a rewrite of statement text — the plan
#: cache's key — has to step over, found the way the tokenizer finds them.
LITERAL_OR_COMMENT = re.compile(rf"( {_QUOTED} | {_COMMENT} )",
                                re.VERBOSE | re.DOTALL)
#: The text a malformed-number error quotes: digits and dots, an exponent
#: with or without digits, and the word characters run into it.
_NUMBER_LIKE = re.compile(r"[\d.]+(?:[eE][+-]?\d*)?\w*")

#: Tokens lexed per :meth:`Lexer.scan` call at most, so a long script is
#: never held as tokens all at once.
_SCAN_TOKENS = 4096


class Token:
    """One lexed token.  ``keyword`` is the upper-cased word for a KEYWORD
    token and ``None`` for every other type, so keyword tests compare it
    without touching ``value`` again."""

    __slots__ = ("type", "value", "position", "keyword")

    def __init__(self, type: TokenType, value: str, position: int,
                 keyword: str | None = None) -> None:
        self.type = type
        self.value = value
        self.position = position
        self.keyword = keyword

    def is_keyword(self, *names: str) -> bool:
        """True for a KEYWORD token spelling one of ``names`` (upper case)."""
        return self.keyword in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


class Lexer:
    """Tokenises SQL text on demand."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def tokens(self) -> list[Token]:
        """Tokenise the whole input (stopping at EOF)."""
        result = self.scan()
        while result[-1].type is not TokenType.EOF:
            result.extend(self.scan())
        return result

    def scan(self) -> list[Token]:
        """Lex from ``self.pos`` up to and including the next ``{``, the end
        of the input or :data:`_SCAN_TOKENS` tokens, whichever comes first.

        What follows a ``{`` may be a Python function body, which only the
        parser can tell, so that is where every scan stops.  A lexical error
        behind at least one good token is left for the next call to raise:
        the parser may find a syntax error before it ever asks for more.
        """
        text = self.text
        result: list[Token] = []
        append = result.append
        for match in islice(_TOKEN.finditer(text, self.pos), _SCAN_TOKENS):
            kind = match.lastindex
            value = match.group(kind)
            start = match.start(kind)
            if kind == _WORD:
                keyword = value.upper()
                if keyword in KEYWORDS:
                    append(Token(TokenType.KEYWORD, value, start, keyword))
                    continue
            elif kind == _STRING:
                quote = value[0]
                value = value[1:-1].replace(quote + quote, quote)
            elif kind == _NO_TOKEN:
                if not result:
                    raise self._error(start)
                self.pos = start
                return result
            append(Token(_TYPES[kind], value, start))
            if value == "{" and kind == _PUNCTUATION:
                break
        self.pos = match.end()
        return result

    def _error(self, start: int) -> ParseError:
        """Why no token starts at ``start``."""
        text = self.text
        number = _NUMBER_LIKE.match(text, start)
        if number:
            return ParseError(f"malformed number {number.group()!r}", start)
        if text[start] in "'\"":
            return ParseError("unterminated string literal", position=start)
        if text.startswith("/*", start):
            return ParseError("unterminated block comment", position=start)
        return ParseError(f"unexpected character {text[start]!r}",
                          position=start)

    def scan_braced_block(self, open_position: int) -> tuple[str, int]:
        """Capture the raw text of a ``{ ... }`` block starting at ``open_position``.

        Returns ``(body_text, position_after_closing_brace)``.  Braces inside
        Python string literals and nested braces (dict/set displays, f-strings)
        are handled by brace counting with string awareness, which matches how
        MonetDB's SQL scanner captures PyAPI bodies.
        """
        text = self.text
        if text[open_position] != "{":
            raise ParseError("expected '{' to start function body", position=open_position)
        depth = 0
        index = open_position
        in_string: str | None = None
        while index < len(text):
            char = text[index]
            if in_string is not None:
                if char == "\\":
                    index += 2
                    continue
                if char == in_string:
                    in_string = None
                index += 1
                continue
            if char in ("'", '"'):
                in_string = char
                index += 1
                continue
            if char == "#":
                # Python comment: skip to end of line so braces in comments
                # do not unbalance the counter.
                while index < len(text) and text[index] != "\n":
                    index += 1
                continue
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    body = text[open_position + 1:index]
                    return body, index + 1
            index += 1
        raise ParseError("unterminated function body (missing '}')", position=open_position)
