"""Table 1 of the paper: most popular development environments.

The table is external survey data (the PYPL "Top IDE index" as of 2018, the
paper's reference [2]); devUDF argues from it that IDEs dominate plain text
editors, hence IDE integration is where UDF tooling should live.  The
reproduction ships the table verbatim plus the derived statistics the argument
rests on, so the T1 benchmark can print the same rows and the same conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DevelopmentEnvironment:
    """One row of Table 1."""

    name: str
    market_share: float  # percent
    kind: str  # "IDE" or "Text Editor"


#: Table 1, exactly as printed in the paper.
TABLE_1: tuple[DevelopmentEnvironment, ...] = (
    DevelopmentEnvironment("Eclipse", 25.2, "IDE"),
    DevelopmentEnvironment("Visual Studio", 19.5, "IDE"),
    DevelopmentEnvironment("Android Studio", 9.5, "IDE"),
    DevelopmentEnvironment("Vim", 7.9, "Text Editor"),
    DevelopmentEnvironment("XCode", 5.2, "IDE"),
    DevelopmentEnvironment("IntelliJ", 4.8, "IDE"),
    DevelopmentEnvironment("NetBeans", 4.0, "IDE"),
    DevelopmentEnvironment("Xamarin", 3.8, "IDE"),
    DevelopmentEnvironment("Komodo", 3.4, "IDE"),
    DevelopmentEnvironment("Sublime Text", 3.3, "Text Editor"),
    DevelopmentEnvironment("Visual Studio Code", 3.3, "Text Editor"),
    DevelopmentEnvironment("PyCharm", 2.3, "IDE"),
)


def table_rows() -> list[tuple[str, float, str]]:
    """The rows of Table 1 as plain tuples (name, market share %, type)."""
    return [(env.name, env.market_share, env.kind) for env in TABLE_1]


def total_share(kind: str | None = None) -> float:
    """Total listed market share, optionally restricted to one kind."""
    return round(
        sum(env.market_share for env in TABLE_1 if kind is None or env.kind == kind), 1
    )


def ide_vs_text_editor_share() -> dict[str, float]:
    """The derived statistic the paper argues from: IDE share vs editor share."""
    return {
        "IDE": total_share("IDE"),
        "Text Editor": total_share("Text Editor"),
    }


def pycharm_rank() -> int:
    """PyCharm's rank by market share in the table (1 = most popular)."""
    ordered = sorted(TABLE_1, key=lambda env: env.market_share, reverse=True)
    return 1 + [env.name for env in ordered].index("PyCharm")


def format_table() -> str:
    """Render Table 1 the way the paper prints it."""
    lines = [f"{'Name':<20} {'Market Share':>12} {'Type':<12}"]
    for env in TABLE_1:
        lines.append(f"{env.name:<20} {env.market_share:>11.1f}% {env.kind:<12}")
    return "\n".join(lines)
