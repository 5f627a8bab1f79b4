import sys
from pathlib import Path

import pytest

# Allow running the suite from a fresh checkout without installing.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treebalance import shapes  # noqa: E402


@pytest.fixture
def no_tree(monkeypatch):
    """``shapes.Tree`` raises: the test fails if the shapes module builds a tree."""

    def refuse(*children):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(shapes, "Tree", refuse)
