import pytest

from frobranch import cli


@pytest.fixture(autouse=True)
def fresh_shared_table(monkeypatch):
    """Each test starts with an empty shared table, so a test that counts
    the work of a request (SNFs, walks, rank tests) or forges a failing
    check sees the semigroup or the slices built afresh, not as an earlier
    test left them."""
    monkeypatch.setattr(cli, "_TABLE", cli.SharedTable())


@pytest.fixture
def add_row_calls(monkeypatch):
    """One entry per Echelon.add_row call, a rank test or a slice's
    elimination, made while the test runs."""
    from frobranch.linalg import Echelon

    calls = []
    add_row = Echelon.add_row
    monkeypatch.setattr(Echelon, "add_row", lambda self, rows: calls.append(1) or add_row(self, rows))
    return calls
