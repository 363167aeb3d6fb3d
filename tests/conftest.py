"""Each test starts with no process memo filled, so what one test built,
certified or patched is never read by the next."""

import pytest

from reference import clear_memos


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_memos()
