"""Tests for the action/menu registry (Figure 1 surface)."""

import pytest

from repro.errors import ProjectError
from repro.ide.actions import Action, MainMenu, MenuGroup


class TestAction:
    def test_invoke_counts(self):
        action = Action("demo.hello", "Hello", callback=lambda: "hi")
        assert action.invoke() == "hi"
        assert action.invocations == 1

    def test_invoke_without_callback(self):
        with pytest.raises(ProjectError):
            Action("demo.noop", "Noop").invoke()

    def test_invoke_passes_arguments(self):
        action = Action("demo.add", "Add", callback=lambda a, b: a + b)
        assert action.invoke(2, b=3) == 5


class TestMenuGroup:
    def test_add_and_find(self):
        group = MenuGroup("Tools")
        group.add_action(Action("a.one", "One"))
        group.add_action(Action("a.two", "Two"))
        assert group.action("a.one").label == "One"
        assert group.action("a.two").label == "Two"
        assert group.action_labels() == ["One", "Two"]

    def test_duplicate_action_id_rejected(self):
        group = MenuGroup("Tools")
        group.add_action(Action("x", "X"))
        with pytest.raises(ProjectError):
            group.add_action(Action("x", "X again"))

    def test_unknown_action(self):
        with pytest.raises(ProjectError):
            MenuGroup("Empty").action("nope")

    def test_tree_rendering(self):
        group = MenuGroup("Tools")
        group.add_action(Action("a", "Alpha"))
        group.add_action(Action("b", "Beta"))
        assert group.tree() == "Tools\n  Alpha\n  Beta"


class TestMainMenu:
    def test_default_menus_present(self):
        menu = MainMenu()
        for label in ("File", "Edit", "Tools", "Run", "VCS"):
            assert label in menu.labels()

    def test_plugin_can_add_a_new_top_level_menu(self):
        menu = MainMenu()
        group = menu.menu("UDF Development")
        group.add_action(Action("devudf.settings", "Settings"))
        assert "UDF Development" in menu.labels()
        assert menu.menu("UDF Development").action("devudf.settings").label == "Settings"
