"""Recursive-descent SQL parser.

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

Tokens are pulled lazily from the lexer so the Python function body — which is
not valid SQL — is never tokenised as SQL.
"""

from __future__ import annotations

from typing import Any

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import Lexer, Token, TokenType
from .schema import ColumnDef, FunctionParameter
from .types import ColumnType, parse_type_name

#: Words that terminate an alias-less table reference.
_CLAUSE_KEYWORDS = {
    "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "ON", "JOIN",
    "INNER", "LEFT", "RIGHT", "CROSS", "UNION", "SET", "VALUES",
}

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


class Parser:
    """Parses one or more SQL statements from a text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.lexer = Lexer(text)
        #: The next unconsumed token — lexed on demand, because what follows
        #: may be a Python function body — and, behind it, the few tokens a
        #: ``peek(1)`` looked further ahead.
        self._token: Token | None = None
        self._ahead: list[Token] = []
        #: Number of ``?`` placeholders seen in the current statement; each
        #: occurrence becomes a :class:`ast.Parameter` with the next ordinal.
        self._parameters = 0

    # ------------------------------------------------------------------ #
    # token stream helpers
    # ------------------------------------------------------------------ #
    def peek(self, offset: int = 0) -> Token:
        token = self._token
        if token is None:
            token = self._token = self.lexer.next_token()
        if offset == 0:
            return token
        while len(self._ahead) < offset:
            self._ahead.append(self.lexer.next_token())
        return self._ahead[offset - 1]

    def advance(self) -> Token:
        token = self._token or self.peek()
        self._token = self._ahead.pop(0) if self._ahead else None
        return token

    def check_keyword(self, *names: str) -> bool:
        return (self._token or self.peek()).is_keyword(*names)

    def accept_keyword(self, *names: str) -> bool:
        if self.check_keyword(*names):
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
        return token.type is TokenType.PUNCTUATION and token.value == value

    def accept_punct(self, value: str) -> bool:
        if self.check_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        token = self.peek()
        if not (token.type is TokenType.PUNCTUATION and token.value == value):
            raise ParseError(f"expected {value!r}, found {token.value!r}", token.position)
        return self.advance()

    def check_operator(self, *values: str) -> bool:
        token = self._token or self.peek()
        return token.type is TokenType.OPERATOR and token.value in values

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self.advance()
            return token.value
        raise ParseError(f"expected identifier, found {token.value!r}", token.position)

    def at_end(self) -> bool:
        return self.peek().type is TokenType.EOF

    # ------------------------------------------------------------------ #
    # entry points
    # ------------------------------------------------------------------ #
    def parse_statement(self) -> ast.Statement:
        """Parse a single statement (consuming a trailing semicolon if present)."""
        statement = self._parse_statement_inner()
        while self.accept_punct(";"):
            pass
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
        if token.type is not TokenType.STRING:
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
        if token.type is not TokenType.NUMBER:
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
        elif self.peek().type is TokenType.IDENTIFIER:
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
        if token.type is TokenType.IDENTIFIER and token.value.upper() not in _CLAUSE_KEYWORDS:
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
    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            right = self._parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            right = self._parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def _parse_not(self) -> ast.Expression:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            if self.check_operator("=", "<>", "!=", "<", "<=", ">", ">="):
                operator = self.advance().value
                if operator == "!=":
                    operator = "<>"
                right = self._parse_additive()
                left = ast.BinaryOp(operator, left, right)
                continue
            if self.check_keyword("IS"):
                self.advance()
                negated = self.accept_keyword("NOT")
                self.expect_keyword("NULL")
                left = ast.IsNull(left, negated)
                continue
            negated = False
            if self.check_keyword("NOT") and self.peek(1).is_keyword("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
            if self.check_keyword("IN"):
                self.advance()
                self.expect_punct("(")
                if self.check_keyword("SELECT"):
                    query = self.parse_select()
                    self.expect_punct(")")
                    left = ast.InSubquery(left, query, negated)
                else:
                    items = self._parse_expression_list()
                    self.expect_punct(")")
                    left = ast.InList(left, items, negated)
                continue
            if self.check_keyword("BETWEEN"):
                self.advance()
                lower = self._parse_additive()
                self.expect_keyword("AND")
                upper = self._parse_additive()
                left = ast.Between(left, lower, upper, negated)
                continue
            if self.check_keyword("LIKE"):
                self.advance()
                pattern = self._parse_additive()
                left = ast.Like(left, pattern, negated)
                continue
            return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self.check_operator("+", "-", "||"):
            operator = self.advance().value
            right = self._parse_multiplicative()
            left = ast.BinaryOp(operator, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self.check_operator("*", "/", "%"):
            operator = self.advance().value
            right = self._parse_unary()
            left = ast.BinaryOp(operator, left, right)
        return left

    def _parse_unary(self) -> ast.Expression:
        if self.check_operator("-"):
            self.advance()
            return ast.UnaryOp("-", self._parse_unary())
        if self.check_operator("+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.peek()

        if self.check_punct("?"):
            self.advance()
            parameter = ast.Parameter(self._parameters)
            self._parameters += 1
            return parameter
        if token.type is TokenType.NUMBER:
            self.advance()
            value: Any = float(token.value) if any(c in token.value for c in ".eE") else int(token.value)
            return ast.Literal(value)
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
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
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD
            and token.value.upper() not in _RESERVED_WORDS
        ):
            return self._parse_identifier_expression()
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self.expect_identifier()
        if self.check_punct("("):
            return self._parse_function_call(name)
        if self.check_punct(".") and self.peek(1).type in (
            TokenType.IDENTIFIER, TokenType.KEYWORD
        ):
            self.advance()
            column = self.expect_identifier()
            if self.check_punct("("):
                # schema-qualified function call, e.g. sys.generate_series(...)
                return self._parse_function_call(f"{name}.{column}")
            return ast.ColumnRef(column, table=name)
        if self.check_punct(".") and self.peek(1).type is TokenType.OPERATOR and \
                self.peek(1).value == "*":
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
            if not (token.type is TokenType.OPERATOR and token.value == "="):
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
        if token.type is not TokenType.STRING:
            raise ParseError("expected file path string in COPY INTO", token.position)
        self.advance()
        path = token.value
        delimiter = ","
        header = False
        if self.accept_keyword("DELIMITERS"):
            delim_token = self.peek()
            if delim_token.type is not TokenType.STRING:
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
        if self.check_keyword("TABLE") or (
            self.peek().type is TokenType.IDENTIFIER and self.peek().value.upper() == "TABLE"
        ):
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
        if not (brace.type is TokenType.PUNCTUATION and brace.value == "{"):
            raise ParseError("expected '{' to start function body", brace.position)
        # Capture the body verbatim from the raw text; then resynchronise the
        # lexer past the closing brace, discarding any buffered lookahead.
        body, end = self.lexer.scan_braced_block(brace.position)
        self.lexer.pos = end
        self._token = None
        self._ahead.clear()
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
