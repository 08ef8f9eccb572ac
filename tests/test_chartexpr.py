import numpy as np

from diracsphere.chartexpr import ChartExpr


def _fd_wirtinger(expr, z, h=1e-6):
    def ev(zz):
        return expr(np.asarray([zz]))[0]
    dx = (ev(z + h) - ev(z - h)) / (2 * h)
    dy = (ev(z + 1j * h) - ev(z - 1j * h)) / (2 * h)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def test_wirtinger_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    expr = (ChartExpr.monomial(1.3 - 0.4j, 2, 1, 3)
            + ChartExpr.monomial(-0.7j, 0, 2, 1)
            + ChartExpr.monomial(2.0, 1, 0, 0))
    for _ in range(10):
        z = rng.normal() + 1j * rng.normal()
        fd_z, fd_zb = _fd_wirtinger(expr, z)
        assert abs(expr.dz()(np.array([z]))[0] - fd_z) < 1e-7
        assert abs(expr.dzbar()(np.array([z]))[0] - fd_zb) < 1e-7

