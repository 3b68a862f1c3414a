"""Every example script imports cleanly.

Importing catches a moved or deleted name in a second, without running the
examples (the CI ``scenario-harness`` job runs each one end to end: all six
take about 15 s on a 2-vCPU host).  Each example guards its work behind
``if __name__ == "__main__"``, so importing one only resolves its imports
and definitions.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_are_present():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
