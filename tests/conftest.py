import pytest

from epsmult import MonomialIdeal


@pytest.fixture
def products(monkeypatch):
    """A list that gains one entry, the right factor, per MonomialIdeal.product call.

    Ideals memoize their chains of powers, so a test that counts products
    builds its ideals itself: a module constant may carry a chain that an
    earlier test built.
    """
    calls = []
    product = MonomialIdeal.product

    def counted(ideal, other):
        calls.append(other)
        return product(ideal, other)

    monkeypatch.setattr(MonomialIdeal, "product", counted)
    return calls
