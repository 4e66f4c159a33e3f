"""The IDE action / menu registry (Figure 1).

A JetBrains plugin contributes *actions* that are placed into menu groups; the
devUDF plugin adds a "UDF Development" submenu to the main menu with the three
actions shown in Figure 1: Settings, Import UDFs and Export UDFs.  This module
models exactly that registration surface so the reproduction can assert the
menu structure the figure depicts and invoke the actions programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ProjectError

ActionCallback = Callable[..., Any]


@dataclass
class Action:
    """A named, invokable menu action."""

    action_id: str
    label: str
    callback: ActionCallback | None = None
    description: str = ""
    invocations: int = 0

    def invoke(self, *args: Any, **kwargs: Any) -> Any:
        if self.callback is None:
            raise ProjectError(f"action {self.action_id!r} has no callback")
        self.invocations += 1
        return self.callback(*args, **kwargs)


@dataclass
class MenuGroup:
    """A menu containing actions."""

    label: str
    actions: list[Action] = field(default_factory=list)

    def add_action(self, action: Action) -> Action:
        if any(existing.action_id == action.action_id for existing in self.actions):
            raise ProjectError(f"duplicate action id {action.action_id!r}")
        self.actions.append(action)
        return action

    def action(self, action_id: str) -> Action:
        for action in self.actions:
            if action.action_id == action_id:
                return action
        raise ProjectError(f"unknown action {action_id!r}")

    def action_labels(self) -> list[str]:
        return [action.label for action in self.actions]

    def tree(self, indent: int = 0) -> str:
        """Render the menu tree (the textual equivalent of Figure 1)."""
        lines = [("  " * indent) + self.label]
        for action in self.actions:
            lines.append(("  " * (indent + 1)) + action.label)
        return "\n".join(lines)


class MainMenu:
    """The IDE main menu bar (File, Edit, ..., Tools)."""

    DEFAULT_MENUS = ("File", "Edit", "View", "Navigate", "Code", "Refactor",
                     "Run", "Tools", "VCS", "Window", "Help")

    def __init__(self) -> None:
        self.menus: dict[str, MenuGroup] = {
            label: MenuGroup(label) for label in self.DEFAULT_MENUS
        }

    def menu(self, label: str) -> MenuGroup:
        if label not in self.menus:
            self.menus[label] = MenuGroup(label)
        return self.menus[label]

    def labels(self) -> list[str]:
        return list(self.menus)
