"""Render parsed SQL ASTs back to SQL text.

The devUDF extract-query rewriter (paper §2.2) takes the user's debug query,
replaces the call to the UDF with an extract function, and sends the rewritten
query to the server.  That requires turning (modified) ASTs back into SQL.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..errors import ExecutionError
from . import ast_nodes as ast


def render_literal(value: Any) -> str:
    if isinstance(value, np.generic):  # a NumPy scalar is spelled as its value
        value = value.item()
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, float) and math.isinf(value):
        return "1e999" if value > 0 else "-1e999"  # the lexer reads +-inf back
    if isinstance(value, bytes) or isinstance(value, float) and math.isnan(value):
        raise ExecutionError(f"{value!r} has no SQL literal; bind it with "
                             "PREPARE name AS ... ? and EXECUTE name (value)")
    if isinstance(value, (int, float)):
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def render_expression(node: ast.Expression) -> str:
    if isinstance(node, ast.Literal):
        return render_literal(node.value)
    if isinstance(node, ast.ColumnRef):
        return f"{node.table}.{node.name}" if node.table else node.name
    if isinstance(node, ast.Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, ast.UnaryOp):
        if node.op.upper() == "NOT":
            return f"NOT ({render_expression(node.operand)})"
        return f"{node.op}({render_expression(node.operand)})"
    if isinstance(node, ast.BinaryOp):
        return (f"({render_expression(node.left)} {node.op} "
                f"{render_expression(node.right)})")
    if isinstance(node, ast.FunctionCall):
        args = ", ".join(render_expression(arg) for arg in node.args)
        distinct = "DISTINCT " if node.distinct else ""
        return f"{node.name}({distinct}{args})"
    if isinstance(node, ast.CaseExpression):
        parts = ["CASE"]
        for condition, result in node.whens:
            parts.append(f"WHEN {render_expression(condition)} THEN {render_expression(result)}")
        if node.default is not None:
            parts.append(f"ELSE {render_expression(node.default)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(node, ast.InList):
        items = ", ".join(render_expression(item) for item in node.items)
        keyword = "NOT IN" if node.negated else "IN"
        return f"{render_expression(node.operand)} {keyword} ({items})"
    if isinstance(node, ast.InSubquery):
        keyword = "NOT IN" if node.negated else "IN"
        return f"{render_expression(node.operand)} {keyword} ({render_select(node.query)})"
    if isinstance(node, ast.Between):
        keyword = "NOT BETWEEN" if node.negated else "BETWEEN"
        return (f"{render_expression(node.operand)} {keyword} "
                f"{render_expression(node.lower)} AND {render_expression(node.upper)}")
    if isinstance(node, ast.IsNull):
        keyword = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{render_expression(node.operand)} {keyword}"
    if isinstance(node, ast.Like):
        keyword = "NOT LIKE" if node.negated else "LIKE"
        return f"{render_expression(node.operand)} {keyword} {render_expression(node.pattern)}"
    if isinstance(node, ast.Cast):
        return f"CAST({render_expression(node.operand)} AS {node.target_type})"
    if isinstance(node, ast.ScalarSubquery):
        return f"({render_select(node.query)})"
    if isinstance(node, ast.ExistsSubquery):
        keyword = "NOT EXISTS" if node.negated else "EXISTS"
        return f"{keyword} ({render_select(node.query)})"
    raise ExecutionError(f"cannot render expression node {type(node).__name__}")


def render_table_ref(node: ast.TableRef) -> str:
    if isinstance(node, ast.NamedTable):
        alias = f" AS {node.alias}" if node.alias else ""
        return f"{node.name}{alias}"
    if isinstance(node, ast.SubquerySource):
        alias = f" AS {node.alias}" if node.alias else ""
        return f"({render_select(node.query)}){alias}"
    if isinstance(node, ast.TableFunctionCall):
        args = []
        for arg in node.args:
            if isinstance(arg, ast.Select):
                args.append(f"({render_select(arg)})")
            else:
                args.append(render_expression(arg))
        alias = f" AS {node.alias}" if node.alias else ""
        return f"{node.name}({', '.join(args)}){alias}"
    if isinstance(node, ast.Join):
        left = render_table_ref(node.left)
        right = render_table_ref(node.right)
        if node.join_type == "CROSS" or node.condition is None:
            return f"{left} CROSS JOIN {right}"
        keyword = "LEFT JOIN" if node.join_type == "LEFT" else "JOIN"
        return f"{left} {keyword} {right} ON {render_expression(node.condition)}"
    raise ExecutionError(f"cannot render table reference {type(node).__name__}")


def render_select(select: ast.Select) -> str:
    parts = ["SELECT"]
    if select.distinct:
        parts.append("DISTINCT")
    items = []
    for item in select.items:
        text = render_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(", ".join(items))
    if select.from_clause is not None:
        parts.append("FROM " + render_table_ref(select.from_clause))
    if select.where is not None:
        parts.append("WHERE " + render_expression(select.where))
    if select.group_by:
        parts.append("GROUP BY " + ", ".join(render_expression(e) for e in select.group_by))
    if select.having is not None:
        parts.append("HAVING " + render_expression(select.having))
    if select.order_by:
        rendered = []
        for order in select.order_by:
            text = render_expression(order.expression)
            if order.descending:
                text += " DESC"
            rendered.append(text)
        parts.append("ORDER BY " + ", ".join(rendered))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    if select.offset is not None:
        parts.append(f"OFFSET {select.offset}")
    return " ".join(parts)
