"""SQL parser.

The dialect is the subset of MonetDB SQL that the devUDF workflow exercises:

* ``SELECT`` with joins, subqueries, aggregates, GROUP BY / HAVING / ORDER BY /
  LIMIT, scalar subqueries, ``IN``/``BETWEEN``/``LIKE``/``CASE``/``CAST``.
* DDL: ``CREATE TABLE`` (including ``AS SELECT``), ``DROP TABLE``.
* DML: ``INSERT`` (``VALUES`` and ``SELECT``), ``UPDATE``, ``DELETE``.
* ``CREATE [OR REPLACE] FUNCTION name(params) RETURNS ... LANGUAGE PYTHON { body }``
  — the body between braces is captured verbatim (it is Python, not SQL).
* ``DROP FUNCTION``.
* ``COPY INTO table FROM 'file.csv'`` for CSV ingestion (demo §2.5).
* Table-producing function calls in the FROM clause whose arguments may be
  subqueries (paper Listing 3).

Statements are recursive descent; expressions are one precedence-climbing
loop over :data:`_LEVELS`, where the levels are listed.  Tokens are pulled from
the lexer one ``{`` at a time, so a Python function body is never tokenised.
"""

from __future__ import annotations

from typing import Any

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import Lexer, Token, TokenType
from .schema import ColumnDef, FunctionParameter
from .types import ColumnType, parse_type_name

# the token types, in definition order: bound once, because every token test
# below compares against one and an enum member lookup costs several times a
# global's
(_KEYWORD, _IDENTIFIER, _NUMBER, _STRING, _OPERATOR, _PUNCTUATION,
 _EOF) = TokenType

#: Reserved words that can never start an identifier expression.  Non-reserved
#: keywords (LANGUAGE, TABLE, HEADER, ...) may still be used as column names —
#: the sys.functions meta table has a ``language`` column, for example.
_RESERVED_WORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AND", "OR", "NOT", "IN", "IS", "BETWEEN", "LIKE", "WHEN",
    "THEN", "ELSE", "END", "CREATE", "DROP", "INSERT", "INTO", "VALUES",
    "DELETE", "UPDATE", "SET", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
    "CROSS", "ON", "UNION", "AS", "DISTINCT", "COPY", "RETURNS", "FUNCTION",
}

_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}

#: Expression precedence, loosest first: ``OR`` · ``AND`` · prefix ``NOT`` ·
#: comparisons and the postfix predicates ``IS [NOT] NULL`` and ``[NOT] IN /
#: BETWEEN / LIKE`` · ``+ - ||`` · ``* / %``; a sign binds tighter than any of
#: them.  Binary operators are left-associative and every operand of the
#: comparison level is an additive expression.  A new operator is one more
#: entry in :data:`_LEVELS` (and in the lexer's pattern or keyword set).
_OR, _AND, _NOT, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE = range(1, 7)
_LEVELS = {
    "OR": _OR,
    "AND": _AND,
    **dict.fromkeys(("=", "<>", "!=", "<", "<=", ">", ">="), _COMPARISON),
    # NOT in operator position is the NOT of NOT IN / NOT BETWEEN / NOT LIKE
    **dict.fromkeys(("IS", "IN", "BETWEEN", "LIKE", "NOT"), _COMPARISON),
    **dict.fromkeys(("+", "-", "||"), _ADDITIVE),
    **dict.fromkeys(("*", "/", "%"), _MULTIPLICATIVE),
}


class Parser:
    """Parses one or more SQL statements from a text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.lexer = Lexer(text)
        #: Tokens lexed and not yet dropped, the index of the next unconsumed
        #: one, and that token itself (``None`` until lexed: the lexer stops
        #: behind every ``{`` because a Python function body may follow).
        self._tokens: list[Token] = []
        self._index = 0
        self._token: Token | None = None
        #: Number of ``?`` placeholders seen in the current statement; each
        #: occurrence becomes a :class:`ast.Parameter` with the next ordinal.
        self._parameters = 0

    # ------------------------------------------------------------------ #
    # token stream helpers
    # ------------------------------------------------------------------ #
    def peek(self, offset: int = 0) -> Token:
        tokens = self._tokens
        if self._index + offset >= len(tokens):
            del tokens[:self._index]  # consumed
            self._index = 0
            while offset >= len(tokens):
                tokens.extend(self.lexer.scan())
        token = tokens[self._index + offset]
        if offset == 0:
            self._token = token
        return token

    def advance(self) -> Token:
        token = self._token or self.peek()
        index = self._index = self._index + 1
        tokens = self._tokens
        self._token = tokens[index] if index < len(tokens) else None
        return token

    def check_keyword(self, *names: str) -> bool:
        return (self._token or self.peek()).keyword in names

    def accept_keyword(self, *names: str) -> bool:
        if (self._token or self.peek()).keyword in names:
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        token = self.peek()
        if not token.is_keyword(name):
            raise ParseError(f"expected {name}, found {token.value!r}", token.position)
        return self.advance()

    def check_punct(self, value: str) -> bool:
        token = self._token or self.peek()
        return token.type is _PUNCTUATION and token.value == value

    def accept_punct(self, value: str) -> bool:
        token = self._token or self.peek()
        if token.type is _PUNCTUATION and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        token = self.peek()
        if not (token.type is _PUNCTUATION and token.value == value):
            raise ParseError(f"expected {value!r}, found {token.value!r}", token.position)
        return self.advance()

    def check_operator(self, *values: str) -> bool:
        token = self._token or self.peek()
        return token.type is _OPERATOR and token.value in values

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.type in (_IDENTIFIER, _KEYWORD):
            self.advance()
            return token.value
        raise ParseError(f"expected identifier, found {token.value!r}", token.position)

    def at_end(self) -> bool:
        return self.peek().type is _EOF

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def parse_statement(self) -> ast.Statement:
        """Parse a single statement (consuming a trailing semicolon if present)."""
        statement = self._parse_statement_inner()
        while self.accept_punct(";"):
            pass
        token = self.peek()
        if token.type is not _EOF:
            raise ParseError(f"unexpected token {token.value!r} after statement",
                             token.position)
        return statement

    def parse_script(self) -> list[tuple[ast.Statement, str]]:
        """Parse a semicolon-separated list of statements.

        Each statement comes with its own source text (what the query log
        records for it)."""
        statements: list[tuple[ast.Statement, str]] = []
        while not self.at_end():
            if self.accept_punct(";"):
                continue
            start = self.peek().position
            statement = self._parse_statement_inner()
            statements.append(
                (statement, self.text[start:self.peek().position].strip()))
            while self.accept_punct(";"):
                pass
        return statements

    def _parse_statement_inner(self) -> ast.Statement:
        self._parameters = 0
        token = self.peek()
        if token.is_keyword("PREPARE"):
            return self._parse_prepare()
        if token.is_keyword("EXECUTE"):
            return self._parse_execute()
        if token.is_keyword("DEALLOCATE"):
            return self._parse_deallocate()
        if token.is_keyword("EXPLAIN"):
            self.advance()
            analyze = self.accept_keyword("ANALYZE")
            return ast.Explain(self.parse_select(), analyze=analyze)
        if token.is_keyword("SELECT"):
            return self.parse_select()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("COPY"):
            return self._parse_copy()
        if token.is_keyword("CHECKPOINT"):
            self.advance()
            return ast.Checkpoint()
        if token.is_keyword("VERIFY"):
            self.advance()
            return ast.Verify()
        if token.is_keyword("BACKUP"):
            return self._parse_backup()
        if token.is_keyword("SHOW"):
            self.advance()
            self.expect_keyword("STATS")
            return ast.ShowStats()
        raise ParseError(f"unsupported statement starting with {token.value!r}",
                         token.position)

    def _parse_prepare(self) -> ast.Prepare:
        self.expect_keyword("PREPARE")
        name_token = self.peek()
        name = self.expect_identifier()
        self.expect_keyword("AS")
        start = self.peek().position
        statement = self._parse_statement_inner()
        if isinstance(statement, (ast.Prepare, ast.ExecutePrepared, ast.Deallocate)):
            raise ParseError(
                f"cannot PREPARE a {type(statement).__name__} statement",
                name_token.position)
        # The inner statement's raw text: everything up to the terminating
        # semicolon / EOF (token positions index into self.text).
        sql = self.text[start:self.peek().position].strip()
        return ast.Prepare(name=name, sql=sql, statement=statement)

    def _parse_execute(self) -> ast.ExecutePrepared:
        self.expect_keyword("EXECUTE")
        name = self.expect_identifier()
        args: list[ast.Expression] = []
        if self.check_punct("("):
            self.advance()
            if not self.accept_punct(")"):
                args = self._parse_expression_list()
                self.expect_punct(")")
        return ast.ExecutePrepared(name, args)

    def _parse_deallocate(self) -> ast.Deallocate:
        self.expect_keyword("DEALLOCATE")
        if self.accept_keyword("ALL"):
            return ast.Deallocate(None)
        return ast.Deallocate(self.expect_identifier())

    def _parse_backup(self) -> ast.BackupTo:
        self.expect_keyword("BACKUP")
        self.expect_keyword("TO")
        token = self.peek()
        if token.type is not _STRING:
            raise ParseError("BACKUP TO expects a quoted file path",
                             token.position)
        self.advance()
        return ast.BackupTo(path=token.value)

    # ------------------------------------------------------------------ #
    # SELECT
    # ------------------------------------------------------------------ #
    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        select = ast.Select()
        if self.accept_keyword("DISTINCT"):
            select.distinct = True
        select.items = self._parse_select_items()
        if self.accept_keyword("FROM"):
            select.from_clause = self._parse_from()
        if self.accept_keyword("WHERE"):
            select.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            select.group_by = self._parse_expression_list()
        if self.accept_keyword("HAVING"):
            select.having = self.parse_expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = self._parse_order_items()
        if self.accept_keyword("LIMIT"):
            select.limit = self._parse_integer()
        if self.accept_keyword("OFFSET"):
            select.offset = self._parse_integer()
        return select

    def _parse_integer(self) -> int:
        token = self.peek()
        if token.type is not _NUMBER or not token.value.isdigit():
            raise ParseError(f"expected integer, found {token.value!r}", token.position)
        self.advance()
        return int(token.value)

    def _parse_select_items(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        if self.check_operator("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        expression = self.parse_expression()
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.peek().type is _IDENTIFIER:
            alias = self.advance().value
        return ast.SelectItem(expression, alias)

    def _parse_order_items(self) -> list[ast.OrderItem]:
        items: list[ast.OrderItem] = []
        while True:
            expression = self.parse_expression()
            descending = False
            if self.accept_keyword("DESC"):
                descending = True
            else:
                self.accept_keyword("ASC")
            items.append(ast.OrderItem(expression, descending))
            if not self.accept_punct(","):
                return items

    def _parse_expression_list(self) -> list[ast.Expression]:
        expressions = [self.parse_expression()]
        while self.accept_punct(","):
            expressions.append(self.parse_expression())
        return expressions

    # ------------------------------------------------------------------ #
    # FROM clause
    # ------------------------------------------------------------------ #
    def _parse_from(self) -> ast.TableRef:
        left = self._parse_joined_table()
        while self.accept_punct(","):
            right = self._parse_joined_table()
            left = ast.Join(left, right, join_type="CROSS")
        return left

    def _parse_joined_table(self) -> ast.TableRef:
        left = self._parse_table_primary()
        while True:
            if self.check_keyword("JOIN") or self.check_keyword("INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                self.expect_keyword("ON")
                condition = self.parse_expression()
                left = ast.Join(left, right, "INNER", condition)
            elif self.check_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                self.expect_keyword("ON")
                condition = self.parse_expression()
                left = ast.Join(left, right, "LEFT", condition)
            elif self.check_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                left = ast.Join(left, right, "CROSS")
            else:
                return left

    def _parse_table_primary(self) -> ast.TableRef:
        if self.accept_punct("("):
            query = self.parse_select()
            self.expect_punct(")")
            alias = self._parse_optional_alias()
            return ast.SubquerySource(query, alias)
        name = self.expect_identifier()
        if self.accept_punct("."):
            name = f"{name}.{self.expect_identifier()}"
        if self.check_punct("("):
            args = self._parse_table_function_args()
            alias = self._parse_optional_alias()
            return ast.TableFunctionCall(name, args, alias)
        alias = self._parse_optional_alias()
        return ast.NamedTable(name, alias)

    def _parse_optional_alias(self) -> str | None:
        if self.accept_keyword("AS"):
            return self.expect_identifier()
        token = self.peek()
        if token.type is _IDENTIFIER:  # WHERE, JOIN, ... are KEYWORD tokens
            self.advance()
            return token.value
        return None

    def _parse_table_function_args(self) -> list[Any]:
        """Arguments of a table function call; each is an Expression or Select."""
        self.expect_punct("(")
        args: list[Any] = []
        if self.accept_punct(")"):
            return args
        while True:
            if self.check_punct("(") and self.peek(1).is_keyword("SELECT"):
                self.advance()
                args.append(self.parse_select())
                self.expect_punct(")")
            elif self.check_keyword("SELECT"):
                args.append(self.parse_select())
            else:
                args.append(self.parse_expression())
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            return args

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expression(self, level: int = _OR) -> ast.Expression:
        """An expression of the operators at ``level`` or tighter, by
        precedence climbing: an operand, then every operator :data:`_LEVELS`
        puts at ``level`` or above, each taking a right operand one level
        tighter than itself (left-associative)."""
        # ``tightest``: an operator never takes a looser result as its left
        # operand.  What a binary operator's right operand left over is looser
        # already, but ``a IS NULL * 2`` has to stop at the ``*``.
        token = self._token or self.peek()
        if level <= _NOT and token.keyword == "NOT":
            self.advance()
            left: ast.Expression = ast.UnaryOp("NOT", self.parse_expression(_NOT))
            tightest = _NOT
        else:
            left = self._parse_primary()
            tightest = _MULTIPLICATIVE
        while True:
            token = self._token or self.peek()
            if token.type is _OPERATOR:
                name = token.value
            elif token.type is _KEYWORD:
                name = token.keyword
            else:
                return left
            found = _LEVELS.get(name, 0)
            if not level <= found <= tightest:
                return left
            tightest = found
            if found != _COMPARISON or token.type is _OPERATOR:
                self.advance()
                right = self.parse_expression(found + 1)
                left = ast.BinaryOp("<>" if name == "!=" else name, left, right)
                continue
            # the postfix predicates; their operands are additive expressions
            negated = name == "NOT"
            if negated:
                name = self.peek(1).keyword
                if name not in ("IN", "BETWEEN", "LIKE"):
                    return left
                self.advance()
            self.advance()
            if name == "IS":
                negated = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                left = ast.IsNull(left, negated)
            elif name == "IN":
                self.expect_punct("(")
                if self.check_keyword("SELECT"):
                    query = self.parse_select()
                    self.expect_punct(")")
                    left = ast.InSubquery(left, query, negated)
                else:
                    items = self._parse_expression_list()
                    self.expect_punct(")")
                    left = ast.InList(left, items, negated)
            elif name == "BETWEEN":
                lower = self.parse_expression(_ADDITIVE)
                self.expect_keyword("AND")
                upper = self.parse_expression(_ADDITIVE)
                left = ast.Between(left, lower, upper, negated)
            else:
                pattern = self.parse_expression(_ADDITIVE)
                left = ast.Like(left, pattern, negated)

    def _parse_primary(self) -> ast.Expression:
        """An operand — literal, placeholder, name, call, CASE, CAST, EXISTS,
        a parenthesised expression or subquery — under any number of signs."""
        token = self._token or self.peek()
        kind = token.type
        if kind is _NUMBER:
            self.advance()
            text = token.value
            return ast.Literal(int(text) if text.isdigit() else float(text))
        if kind is _STRING:
            self.advance()
            return ast.Literal(token.value)
        if kind is _OPERATOR and token.value in ("-", "+"):
            self.advance()
            operand = self._parse_primary()
            return ast.UnaryOp("-", operand) if token.value == "-" else operand
        if kind is _PUNCTUATION and token.value == "?":
            self.advance()
            parameter = ast.Parameter(self._parameters)
            self._parameters += 1
            return parameter
        if token.keyword in _KEYWORD_LITERALS:
            self.advance()
            return ast.Literal(_KEYWORD_LITERALS[token.keyword])
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_punct("(")
            query = self.parse_select()
            self.expect_punct(")")
            return ast.ExistsSubquery(query)
        if self.check_punct("("):
            self.advance()
            if self.check_keyword("SELECT"):
                query = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSubquery(query)
            expression = self.parse_expression()
            self.expect_punct(")")
            return expression
        if kind is _IDENTIFIER or (
                kind is _KEYWORD and token.keyword not in _RESERVED_WORDS):
            return self._parse_identifier_expression()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self.expect_identifier()
        if self.check_punct("("):
            return self._parse_function_call(name)
        if self.check_punct(".") and self.peek(1).type in (_IDENTIFIER, _KEYWORD):
            self.advance()
            column = self.expect_identifier()
            if self.check_punct("("):
                # schema-qualified function call, e.g. sys.generate_series(...)
                return self._parse_function_call(f"{name}.{column}")
            return ast.ColumnRef(column, table=name)
        if self.check_punct(".") and self.peek(1).type is _OPERATOR \
                and self.peek(1).value == "*":
            # table.* in a select list
            self.advance()
            self.advance()
            return ast.Star(table=name)
        return ast.ColumnRef(name)

    def _parse_function_call(self, name: str) -> ast.Expression:
        self.expect_punct("(")
        distinct = self.accept_keyword("DISTINCT")
        args: list[ast.Expression] = []
        if self.check_operator("*"):
            self.advance()
            args.append(ast.Star())
        elif not self.check_punct(")"):
            args = self._parse_expression_list()
        self.expect_punct(")")
        return ast.FunctionCall(name, args, distinct)

    def _parse_case(self) -> ast.Expression:
        self.expect_keyword("CASE")
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        default: ast.Expression | None = None
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((condition, result))
        if self.accept_keyword("ELSE"):
            default = self.parse_expression()
        self.expect_keyword("END")
        return ast.CaseExpression(whens, default)

    def _parse_cast(self) -> ast.Expression:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        type_name = self.expect_identifier()
        self.expect_punct(")")
        return ast.Cast(operand, parse_type_name(type_name))

    # ------------------------------------------------------------------ #
    # DDL / DML
    # ------------------------------------------------------------------ #
    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        or_replace = False
        if self.check_keyword("OR"):
            self.advance()
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.accept_keyword("TABLE"):
            return self._parse_create_table()
        if self.accept_keyword("FUNCTION"):
            return self._parse_create_function(or_replace)
        token = self.peek()
        raise ParseError(f"unsupported CREATE {token.value!r}", token.position)

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = False
        if self.check_keyword("IF"):
            self.advance()
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self._parse_table_name()
        if self.accept_keyword("AS"):
            query = self.parse_select()
            return ast.CreateTable(name, [], if_not_exists, as_select=query)
        self.expect_punct("(")
        columns: list[ColumnDef] = []
        while True:
            col_name = self.expect_identifier()
            type_name = self.expect_identifier()
            nullable = True
            if self.check_keyword("NOT"):
                self.advance()
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("NULL"):
                nullable = True
            columns.append(ColumnDef(col_name, ColumnType(parse_type_name(type_name), nullable)))
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            break
        return ast.CreateTable(name, columns, if_not_exists)

    def _parse_table_name(self) -> str:
        name = self.expect_identifier()
        if self.accept_punct("."):
            name = f"{name}.{self.expect_identifier()}"
        return name

    def _parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = self._parse_if_exists()
            return ast.DropTable(self._parse_table_name(), if_exists)
        if self.accept_keyword("FUNCTION"):
            if_exists = self._parse_if_exists()
            return ast.DropFunction(self._parse_table_name(), if_exists)
        token = self.peek()
        raise ParseError(f"unsupported DROP {token.value!r}", token.position)

    def _parse_if_exists(self) -> bool:
        if self.check_keyword("IF"):
            self.advance()
            self.expect_keyword("EXISTS")
            return True
        return False

    def _parse_insert(self) -> ast.Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self._parse_table_name()
        columns: list[str] = []
        if self.check_punct("("):
            self.advance()
            while True:
                columns.append(self.expect_identifier())
                if self.accept_punct(","):
                    continue
                self.expect_punct(")")
                break
        if self.accept_keyword("VALUES"):
            rows: list[list[ast.Expression]] = []
            while True:
                self.expect_punct("(")
                rows.append(self._parse_expression_list())
                self.expect_punct(")")
                if not self.accept_punct(","):
                    break
            return ast.InsertValues(table, columns, rows)
        if self.check_keyword("SELECT"):
            return ast.InsertSelect(table, columns, self.parse_select())
        token = self.peek()
        raise ParseError(f"expected VALUES or SELECT, found {token.value!r}",
                         token.position)

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self._parse_table_name()
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self._parse_table_name()
        self.expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self.expect_identifier()
            token = self.peek()
            if not (token.type is _OPERATOR and token.value == "="):
                raise ParseError("expected '=' in UPDATE assignment", token.position)
            self.advance()
            assignments.append((column, self.parse_expression()))
            if not self.accept_punct(","):
                break
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return ast.Update(table, assignments, where)

    def _parse_copy(self) -> ast.CopyInto:
        self.expect_keyword("COPY")
        self.expect_keyword("INTO")
        table = self._parse_table_name()
        self.expect_keyword("FROM")
        token = self.peek()
        if token.type is not _STRING:
            raise ParseError("expected file path string in COPY INTO", token.position)
        self.advance()
        path = token.value
        delimiter = ","
        header = False
        if self.accept_keyword("DELIMITERS"):
            delim_token = self.peek()
            if delim_token.type is not _STRING:
                raise ParseError("expected delimiter string", delim_token.position)
            self.advance()
            delimiter = delim_token.value
        if self.accept_keyword("HEADER"):
            header = True
        return ast.CopyInto(table, path, delimiter, header)

    # ------------------------------------------------------------------ #
    # CREATE FUNCTION (Python UDF bodies captured verbatim)
    # ------------------------------------------------------------------ #
    def _parse_create_function(self, or_replace: bool) -> ast.CreateFunction:
        name = self._parse_table_name()
        self.expect_punct("(")
        parameters: list[FunctionParameter] = []
        if not self.check_punct(")"):
            number = 0
            while True:
                param_name = self.expect_identifier()
                type_name = self.expect_identifier()
                parameters.append(
                    FunctionParameter(param_name, parse_type_name(type_name), number)
                )
                number += 1
                if self.accept_punct(","):
                    continue
                break
        self.expect_punct(")")
        self.expect_keyword("RETURNS")

        returns_table = False
        return_columns: list[ColumnDef] = []
        return_type = None
        if self.check_keyword("TABLE"):
            self.advance()
            returns_table = True
            self.expect_punct("(")
            while True:
                col_name = self.expect_identifier()
                type_name = self.expect_identifier()
                return_columns.append(ColumnDef(col_name, ColumnType(parse_type_name(type_name))))
                if self.accept_punct(","):
                    continue
                self.expect_punct(")")
                break
        else:
            return_type = parse_type_name(self.expect_identifier())

        self.expect_keyword("LANGUAGE")
        language = self.expect_identifier().upper()

        brace = self.peek()
        if not (brace.type is _PUNCTUATION and brace.value == "{"):
            raise ParseError("expected '{' to start function body", brace.position)
        # Capture the body verbatim from the raw text; then resynchronise the
        # lexer past the closing brace (it lexed nothing behind the opening one).
        body, end = self.lexer.scan_braced_block(brace.position)
        self.lexer.pos = end
        self._tokens.clear()
        self._index = 0
        self._token = None
        return ast.CreateFunction(
            name=name,
            parameters=parameters,
            returns_table=returns_table,
            return_columns=return_columns,
            return_type=return_type,
            language=language,
            body=body,
            or_replace=or_replace,
        )


def parse_statement(sql: str) -> ast.Statement:
    """Parse a single SQL statement."""
    return Parser(sql).parse_statement()


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a semicolon-separated SQL script."""
    return [statement for statement, _ in Parser(sql).parse_script()]
