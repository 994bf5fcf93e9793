"""Every test starts with the value memos empty, as a fresh process has
them, so no test reads a result that an earlier test left behind."""
import pytest

from helpers import cold_memos


@pytest.fixture(autouse=True)
def _cold_memos(monkeypatch):
    cold_memos(monkeypatch)
