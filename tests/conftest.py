import pytest

from sparsepg.objectives import _LinearModel


@pytest.fixture
def products(monkeypatch):
    """The model of each dense product ``A.T @ v`` formed during the test, in call order."""
    formed = []
    gradient = _LinearModel._gradient

    def counted(model, v, supp, cols):
        formed.append(model)
        return gradient(model, v, supp, cols)

    monkeypatch.setattr(_LinearModel, "_gradient", counted)
    return formed
