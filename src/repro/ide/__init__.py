"""``repro.ide`` — a scriptable stand-in for the PyCharm / IntelliJ platform.

Only the surfaces the devUDF plugin touches are modelled: the project (files +
editor buffers) and the main-menu action registry the plugin contributes its
"UDF Development" submenu to (Figure 1).
"""

from .actions import Action, ActionCallback, MainMenu, MenuGroup
from .editor import EditorBuffer
from .project_model import IDEProject

__all__ = [
    "Action",
    "ActionCallback",
    "EditorBuffer",
    "IDEProject",
    "MainMenu",
    "MenuGroup",
]
