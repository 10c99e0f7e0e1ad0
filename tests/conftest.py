import pytest

import graphminimax as gm


@pytest.fixture
def refuse_product_rows(monkeypatch):
    """Fail the test if any n x k product column is expanded from the factors.

    head_basis is the one place that expands them, on a grid or torus of
    two or more axes; a path's or an explicit basis's head is its factor.
    """
    head_basis = gm.spectral.head_basis

    def refuse(s, k):
        if s._graph is not None and len(s._graph.shape[1]) > 1:
            raise AssertionError("an n x k product head was formed")
        return head_basis(s, k)

    monkeypatch.setattr(gm.spectral, "head_basis", refuse)
    monkeypatch.setattr(gm, "head_basis", refuse)


@pytest.fixture(scope="session")
def path64_eig():
    return gm.eigendecompose(gm.build_path(64))


@pytest.fixture(scope="session")
def grid8_eig():
    return gm.eigendecompose(gm.build_grid([8, 8]))


@pytest.fixture(scope="session")
def path2048_eig():
    return gm.eigendecompose(gm.build_path(2048))


@pytest.fixture(scope="session")
def grid32_eig():
    return gm.eigendecompose(gm.build_grid([32, 32]))
