"""Abstract syntax tree nodes produced by the SQL parser."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .schema import ColumnDef, FunctionParameter
from .types import SQLType


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
class Expression:
    """Base class for expression nodes."""


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class ColumnRef(Expression):
    name: str
    table: str | None = None


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a select list."""

    table: str | None = None


@dataclass
class Parameter(Expression):
    """A positional ``?`` placeholder inside a PREPAREd statement.

    ``index`` is the zero-based position in the statement's parameter list;
    EXECUTE substitutes the bound value for it before planning.
    """

    index: int


@dataclass
class UnaryOp(Expression):
    op: str
    operand: Expression


@dataclass
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass
class FunctionCall(Expression):
    name: str
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False


@dataclass
class CaseExpression(Expression):
    whens: list[tuple[Expression, Expression]] = field(default_factory=list)
    default: Expression | None = None


@dataclass
class InList(Expression):
    operand: Expression
    items: list[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class Between(Expression):
    operand: Expression
    lower: Expression
    upper: Expression
    negated: bool = False


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass
class Cast(Expression):
    operand: Expression
    target_type: SQLType


@dataclass
class ScalarSubquery(Expression):
    query: "Select"


@dataclass
class ExistsSubquery(Expression):
    query: "Select"
    negated: bool = False


@dataclass
class InSubquery(Expression):
    operand: Expression
    query: "Select"
    negated: bool = False


# --------------------------------------------------------------------------- #
# Table references
# --------------------------------------------------------------------------- #
class TableRef:
    """Base class for FROM-clause items."""


@dataclass
class NamedTable(TableRef):
    name: str
    alias: str | None = None


@dataclass
class SubquerySource(TableRef):
    query: "Select"
    alias: str | None = None


@dataclass
class TableFunctionCall(TableRef):
    """A table-producing function call in the FROM clause.

    Arguments may be scalar expressions or entire subqueries (MonetDB allows
    ``SELECT * FROM train_rnforest((SELECT data, labels FROM trainingset), 5)``,
    paper Listing 3).
    """

    name: str
    args: list[Any] = field(default_factory=list)  # Expression | Select
    alias: str | None = None


@dataclass
class Join(TableRef):
    left: TableRef
    right: TableRef
    join_type: str = "INNER"  # INNER | LEFT | CROSS
    condition: Expression | None = None


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
class Statement:
    """Base class for SQL statements."""


@dataclass
class SelectItem:
    expression: Expression
    alias: str | None = None


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class Select(Statement):
    items: list[SelectItem] = field(default_factory=list)
    from_clause: TableRef | None = None
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    if_not_exists: bool = False
    as_select: Select | None = None


@dataclass
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass
class InsertValues(Statement):
    table: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expression]] = field(default_factory=list)


@dataclass
class InsertSelect(Statement):
    table: str
    columns: list[str] = field(default_factory=list)
    query: Select | None = None


@dataclass
class Delete(Statement):
    table: str
    where: Expression | None = None


@dataclass
class Update(Statement):
    table: str
    assignments: list[tuple[str, Expression]] = field(default_factory=list)
    where: Expression | None = None


@dataclass
class CreateFunction(Statement):
    name: str
    parameters: list[FunctionParameter] = field(default_factory=list)
    returns_table: bool = False
    return_columns: list[ColumnDef] = field(default_factory=list)
    return_type: SQLType | None = None
    language: str = "PYTHON"
    body: str = ""
    or_replace: bool = False


@dataclass
class DropFunction(Statement):
    name: str
    if_exists: bool = False


@dataclass
class CopyInto(Statement):
    """``COPY INTO table FROM 'path' [DELIMITERS ...]`` — CSV ingestion."""

    table: str
    path: str
    delimiter: str = ","
    header: bool = False


@dataclass
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select>`` — render the physical operator plan.

    With ``ANALYZE`` the query is *executed* and each plan node is annotated
    with its actual rows, batches and cumulative wall time.
    """

    query: Select
    analyze: bool = False


@dataclass
class Checkpoint(Statement):
    """``CHECKPOINT`` — persist the database image and truncate the WAL."""


@dataclass
class Verify(Statement):
    """``VERIFY`` — scrub every image/WAL checksum; one stats row per table."""


@dataclass
class BackupTo(Statement):
    """``BACKUP TO 'path'`` — write a consistent standalone image copy."""

    path: str


@dataclass
class ShowStats(Statement):
    """``SHOW STATS`` — engine, durability, and server fault counters."""


@dataclass
class Prepare(Statement):
    """``PREPARE name AS <statement>`` — register a parameterised template.

    ``sql`` holds the raw inner statement text (for cache keying and client
    display); ``statement`` is its parsed form with :class:`Parameter`
    placeholders left unbound.
    """

    name: str
    sql: str
    statement: Statement


@dataclass
class ExecutePrepared(Statement):
    """``EXECUTE name (arg, ...)`` — run a prepared template with bound args."""

    name: str
    args: list[Expression] = field(default_factory=list)


@dataclass
class Deallocate(Statement):
    """``DEALLOCATE name`` / ``DEALLOCATE ALL`` — drop prepared statements.

    ``name is None`` means ALL.
    """

    name: str | None
