"""Every warning raised by a test under this directory fails that test."""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
