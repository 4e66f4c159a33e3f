"""Plan and result caching for repeated queries.

The server-side fast path for hot statements has two tiers, both owned by
:class:`~repro.sqldb.database.Database` and consulted under its lock:

* a :class:`PlanCache` — an LRU of *parsed statements* keyed by normalized
  SQL text, so a repeated statement skips lexing and parsing.  Entries hold
  the immutable AST, not a prepared physical plan: planning re-binds table
  sources on every execution, so a cached entry can never read a dropped or
  altered table even if invalidation were to miss it.
* a :class:`ResultCache` — a byte-bounded LRU of materialised
  :class:`~repro.sqldb.result.QueryResult` objects for identical read-only
  SELECTs, invalidated whenever DML/DDL touches any table the SELECT read.

Both caches are plain data structures; the invalidation triggers live in the
executor (post-mutation) and the database facade (UDF registration,
recovery).  This module also provides the AST utilities PREPARE/EXECUTE
needs: profiling a statement (tables read, functions called, parameter
count) and binding ``?`` placeholders to literal values.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Iterator

from ..errors import ExecutionError
from . import ast_nodes as ast
from .aggregates import is_aggregate
from .functions import is_builtin_scalar
from .lexer import LITERAL_OR_COMMENT
from .result import QueryResult


def normalize_sql(sql: str) -> str:
    """Cache key for a statement's text: blanks between tokens and the
    trailing ``;`` do not count; the text of a string literal (or a comment)
    does — ``'a  b'``, ``'a b'`` and ``'a;b'`` are three statements."""
    # [outside, literal or comment, outside, ...]
    pieces = LITERAL_OR_COMMENT.split(sql)
    pieces[::2] = [" ".join(piece.split()) for piece in pieces[::2]]
    return " ".join(filter(None, pieces)).rstrip("; ")


# --------------------------------------------------------------------------- #
# AST walking
# --------------------------------------------------------------------------- #
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field names (None for other types), once per type."""
    if cls not in _FIELD_NAMES:
        _FIELD_NAMES[cls] = tuple(
            field.name for field in dataclasses.fields(cls)) \
            if dataclasses.is_dataclass(cls) else None
    return _FIELD_NAMES[cls]


def iter_nodes(root: Any) -> Iterator[Any]:
    """Yield every dataclass node reachable from ``root`` (statements,
    expressions, table refs, select/order items)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        else:
            names = _field_names(type(node))
            if names is not None:
                yield node
                stack.extend([getattr(node, name) for name in names])


@dataclasses.dataclass(frozen=True)
class StatementProfile:
    """What a statement touches — computed once per parse, reused per run."""

    tables: frozenset[str]
    functions: frozenset[str]
    parameter_count: int
    has_table_function: bool

    def deterministic(self) -> bool:
        """True when every called function is a built-in (scalar or
        aggregate) — a UDF may be non-deterministic or stateful, so results
        involving one are never cached."""
        if self.has_table_function:
            return False
        return all(is_builtin_scalar(name) or is_aggregate(name)
                   for name in self.functions)


def profile_statement(statement: ast.Statement) -> StatementProfile:
    tables: set[str] = set()
    functions: set[str] = set()
    parameters = 0
    has_table_function = False
    for node in iter_nodes(statement):
        if isinstance(node, ast.NamedTable):
            tables.add(node.name.lower())
        elif isinstance(node, (ast.InsertValues, ast.InsertSelect,
                               ast.Delete, ast.Update, ast.CopyInto)):
            tables.add(node.table.lower())
        elif isinstance(node, (ast.CreateTable, ast.DropTable)):
            tables.add(node.name.lower())
        elif isinstance(node, ast.FunctionCall):
            functions.add(node.name.lower())
        elif isinstance(node, ast.TableFunctionCall):
            functions.add(node.name.lower())
            has_table_function = True
        elif isinstance(node, ast.Parameter):
            parameters = max(parameters, node.index + 1)
    return StatementProfile(frozenset(tables), frozenset(functions),
                            parameters, has_table_function)


def parameter_bearing_ids(root: Any) -> frozenset[int]:
    """Object ids of every node/container in ``root`` that has an
    :class:`ast.Parameter` somewhere beneath it.

    The ids stay valid for as long as ``root`` itself is alive (a live
    object's id cannot be reused), so a :class:`PreparedStatement` can
    compute this once at PREPARE time and hand it to every later bind.
    """
    bearing: set[int] = set()

    def visit(node: Any) -> bool:
        if isinstance(node, ast.Parameter):
            return True
        has_parameter = False
        if isinstance(node, (list, tuple)):
            for item in node:
                if visit(item):
                    has_parameter = True
        elif isinstance(node, dict):
            for item in node.values():
                if visit(item):
                    has_parameter = True
        elif dataclasses.is_dataclass(node) and not isinstance(node, type):
            for name in _field_names(type(node)):
                if visit(getattr(node, name)):
                    has_parameter = True
        if has_parameter:
            bearing.add(id(node))
        return has_parameter

    visit(root)
    return frozenset(bearing)


def bind_parameters(statement: ast.Statement, values: list[Any],
                    bearing: frozenset[int] | None = None) -> ast.Statement:
    """Return ``statement`` with every :class:`ast.Parameter` replaced by a
    :class:`ast.Literal` of the corresponding value.

    Binding is copy-on-write: only nodes on a path to a parameter are
    rebuilt; parameter-free subtrees are *shared* with the template.  This
    is the same sharing assumption the plan cache already makes (execution
    never mutates the AST), and it keeps EXECUTE cheap — a deep copy of the
    whole template would cost as much as re-parsing it.

    ``bearing`` (from :func:`parameter_bearing_ids` over this same
    ``statement``) lets the walk skip parameter-free subtrees without even
    descending into them; without it the walk visits every node once.
    """

    def bind_one(parameter: ast.Parameter) -> ast.Literal:
        if parameter.index >= len(values):
            raise ExecutionError(
                f"statement expects parameter ${parameter.index + 1} but "
                f"only {len(values)} argument(s) were bound")
        return ast.Literal(values[parameter.index])

    def substitute(node: Any) -> tuple[Any, bool]:
        """Returns ``(replacement, changed)``; unchanged nodes are shared."""
        if isinstance(node, ast.Parameter):
            return bind_one(node), True
        if bearing is not None and id(node) not in bearing:
            return node, False
        if isinstance(node, list):
            rebuilt = [substitute(item) for item in node]
            if any(changed for _, changed in rebuilt):
                return [item for item, _ in rebuilt], True
            return node, False
        if isinstance(node, tuple):
            rebuilt = [substitute(item) for item in node]
            if any(changed for _, changed in rebuilt):
                return tuple(item for item, _ in rebuilt), True
            return node, False
        if isinstance(node, dict):
            rebuilt = {key: substitute(item) for key, item in node.items()}
            if any(changed for _, changed in rebuilt.values()):
                return {key: item for key, (item, _) in rebuilt.items()}, True
            return node, False
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            cls = type(node)
            names = _field_names(cls)
            changed_any = False
            kwargs = {}
            for name in names:
                child, changed = substitute(getattr(node, name))
                kwargs[name] = child
                changed_any = changed_any or changed
            if changed_any:
                return cls(**kwargs), True
            return node, False
        return node, False

    bound, _ = substitute(statement)
    return bound


# --------------------------------------------------------------------------- #
# prepared statements
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class PreparedStatement:
    """A named, parameterised statement template (``PREPARE name AS ...``)."""

    name: str
    sql: str
    key: str
    statement: ast.Statement
    profile: StatementProfile
    _bearing: frozenset[int] | None = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def parameter_count(self) -> int:
        return self.profile.parameter_count

    def bearing_ids(self) -> frozenset[int]:
        """Parameter-bearing node ids of the template, computed once."""
        if self._bearing is None:
            self._bearing = parameter_bearing_ids(self.statement)
        return self._bearing

    def result_key(self, values: list[Any]) -> str:
        """Result-cache key for one execution: template text + bound args."""
        return f"{self.key}\x00{values!r}"


# --------------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class CachedPlan:
    """A plan-cache entry: the parsed AST plus its touch profile."""

    statement: ast.Statement
    profile: StatementProfile


class PlanCache:
    """LRU cache of parsed SELECT statements keyed by normalized SQL."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> CachedPlan | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, entry: CachedPlan) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every entry that reads ``table``; returns the count dropped."""
        lowered = table.lower()
        stale = [key for key, entry in self._entries.items()
                 if lowered in entry.profile.tables]
        for key in stale:
            del self._entries[key]
        self.evictions += len(stale)
        return len(stale)

    def clear(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self.evictions += count
        return count


@dataclasses.dataclass
class CachedResult:
    result: QueryResult
    tables: frozenset[str]
    nbytes: int


def estimate_result_bytes(result: QueryResult) -> int:
    """Rough memory footprint of a materialised result (for cache budgeting).

    Intentionally avoids materialising lazy columns: fixed-width values are
    costed per row, strings/blobs get a flat per-row allowance.
    """
    rows = result.row_count
    total = 128
    for column in result.columns:
        total += 64 + rows * 24
        if column.sql_type.name in ("STRING", "BLOB"):
            total += rows * 40
    return total


class ResultCache:
    """Byte-bounded cache of materialised results for read-only SELECTs.

    Two LRU segments: a ``put`` enters *probation*, which holds at most
    ``max_bytes // 8`` bytes (oldest out first, the newest always kept), and
    a ``get`` that hits promotes its entry to *protected* — so results nobody
    asks for twice cannot crowd out the ones that are.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self._probation: "OrderedDict[str, CachedResult]" = OrderedDict()
        self._protected: "OrderedDict[str, CachedResult]" = OrderedDict()
        self.probation_bytes = 0
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)

    def get(self, key: str) -> QueryResult | None:
        entry = self._pop(key)
        if entry is None:
            self.misses += 1
            return None
        self._protected[key] = entry  # promoted, or most recent again
        self.used_bytes += entry.nbytes
        self.hits += 1
        return entry.result

    def put(self, key: str, result: QueryResult,
            tables: frozenset[str]) -> None:
        nbytes = estimate_result_bytes(result)
        if nbytes > max(self.max_bytes // 4, 1):
            return  # one oversized result must not wipe the whole cache
        self._pop(key)
        self._probation[key] = CachedResult(result, tables, nbytes)
        self.probation_bytes += nbytes
        self.used_bytes += nbytes
        while len(self._probation) > 1 \
                and self.probation_bytes > self.max_bytes // 8:
            self._pop(next(iter(self._probation)))
            self.evictions += 1
        while self.used_bytes > self.max_bytes:
            self._pop(next(iter(self._protected or self._probation)))
            self.evictions += 1

    def _pop(self, key: str) -> CachedResult | None:
        """Remove ``key`` from whichever segment holds it."""
        entry = self._probation.pop(key, None)
        if entry is not None:
            self.probation_bytes -= entry.nbytes
        else:
            entry = self._protected.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry.nbytes
        return entry

    def invalidate_table(self, table: str) -> int:
        lowered = table.lower()
        stale = [key for segment in (self._probation, self._protected)
                 for key, entry in segment.items() if lowered in entry.tables]
        for key in stale:
            self._pop(key)
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> int:
        count = len(self)
        self._probation.clear()
        self._protected.clear()
        self.probation_bytes = self.used_bytes = 0
        self.invalidations += count
        return count
