import numpy as np
import pytest

from slconv import quadrature as q


def test_gl_panels_degree_23_exact_on_uneven_edges():
    # 12 nodes per panel: exact through degree 23 on every panel
    edges = [0.0, 0.3, 1.1, 1.2, 2.5]
    nodes, wts = q.gl_panels(edges, n=12)
    assert nodes.shape == wts.shape == (4, 12)
    assert np.all((nodes > np.array(edges[:-1])[:, None])
                  & (nodes < np.array(edges[1:])[:, None]))
    val = float(np.sum(wts * (nodes ** 23 - 3.0 * nodes ** 7 + 1.0)))
    want = 2.5 ** 24 / 24.0 - 3.0 * 2.5 ** 8 / 8.0 + 2.5
    assert val == pytest.approx(want, rel=1e-13)


def test_improper_quad_convergent():
    res = q.improper_quad(lambda x: np.exp(-np.asarray(x, dtype=float)),
                          0.0, np.inf)
    assert res.finite
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_improper_quad_divergent():
    res = q.improper_quad(
        lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)), 0.0, np.inf)
    assert not res.finite


def test_improper_quad_endpoint_singularity():
    # integrable singularity x^{-1/2} near 0
    res = q.improper_quad(
        lambda x: 1.0 / np.sqrt(np.asarray(x, dtype=float)), 1.0, 0.0)
    assert res.finite
    assert abs(res.value) == pytest.approx(2.0, rel=1e-6)

    # non-integrable 1/x near 0
    res = q.improper_quad(lambda x: 1.0 / np.asarray(x, dtype=float),
                          1.0, 0.0)
    assert not res.finite
