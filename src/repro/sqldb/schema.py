"""Schema objects: column definitions, table definitions, function signatures."""

from __future__ import annotations

from dataclasses import dataclass, field

from .types import ColumnType, SQLType


@dataclass(frozen=True)
class ColumnDef:
    """Definition of a single table column."""

    name: str
    col_type: ColumnType

    @property
    def sql_type(self) -> SQLType:
        return self.col_type.sql_type

    def __str__(self) -> str:
        return f"{self.name} {self.col_type}"


@dataclass
class TableSchema:
    """Schema of a table: ordered columns, addressable by name."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise ValueError(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(lowered)

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, col in enumerate(self.columns):
            if col.name.lower() == lowered:
                return index
        raise KeyError(name)

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class FunctionParameter:
    """A declared parameter of a SQL function."""

    name: str
    sql_type: SQLType
    number: int = 0


@dataclass
class FunctionSignature:
    """Signature of a user-defined function as stored in the catalog.

    MonetDB stores the *body only* in ``sys.functions.func``; the parameters
    live in ``sys.args``.  devUDF reconstructs a runnable Python file from the
    two (Listing 1 -> Listing 2 in the paper), which is why the signature is a
    first-class object here.
    """

    name: str
    parameters: list[FunctionParameter] = field(default_factory=list)
    returns_table: bool = False
    return_columns: list[ColumnDef] = field(default_factory=list)
    return_type: SQLType | None = None
    language: str = "PYTHON"
    body: str = ""

    @property
    def parameter_names(self) -> list[str]:
        return [param.name for param in self.parameters]

    def describe_returns(self) -> str:
        """Render the RETURNS clause of this function as SQL text."""
        if self.returns_table:
            cols = ", ".join(f"{c.name} {c.sql_type}" for c in self.return_columns)
            return f"TABLE({cols})"
        return str(self.return_type) if self.return_type is not None else "DOUBLE"

    def to_create_sql(self, *, or_replace: bool = False) -> str:
        """Render the full ``CREATE FUNCTION`` statement for this signature."""
        replace = "OR REPLACE " if or_replace else ""
        params = ", ".join(f"{p.name} {p.sql_type}" for p in self.parameters)
        body = self.body
        if not body.endswith("\n"):
            body += "\n"
        return (
            f"CREATE {replace}FUNCTION {self.name}({params})\n"
            f"RETURNS {self.describe_returns()} LANGUAGE {self.language} {{\n"
            f"{body}}};"
        )
