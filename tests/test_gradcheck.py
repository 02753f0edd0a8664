import numpy as np

from prelab import autodiff as ad
from prelab.autodiff import Parameter
from gradcheck import finite_diff_check, mean, mul, relative_error, select_coords


def test_relative_error_definition():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(5e-11, -5e-11) == 0.0  # both below the floor
    assert abs(relative_error(1.0, 1.001) - 0.001 / 1.001) < 1e-12
    assert relative_error(0.0, 1.0) == 1.0


def test_select_coords_small_tensor_takes_all():
    assert np.array_equal(select_coords(np.array([3.0, -1.0]), 64), [0, 1])


def test_select_coords_top_magnitude():
    g = np.array([0.1, -5.0, 2.0, 0.0])
    assert list(select_coords(g, 2)) == [1, 2]


def test_quadratic_exact():
    p = Parameter("w", np.linspace(-1, 1, 16))
    err = finite_diff_check(lambda: ad.sum_all(mul(p.node(), p.node())), [p])
    assert err < 1e-8


def test_constant_function_zero_error():
    p = Parameter("w", np.ones(4))
    c = ad.constant(np.array(2.0))
    err = finite_diff_check(lambda: mul(c, c), [p])
    assert err == 0.0


def test_nontrivial_composition():
    rng = np.random.default_rng(8)
    p = Parameter("w", rng.normal(size=(6, 4)))
    t = ad.constant(rng.normal(size=(6, 4)))

    def loss():
        h = ad.linear(p.node(), ad.constant(np.eye(4)), ad.constant(np.zeros(4)), gelu=True)
        return mean(ad.cosine_rows(h, t))

    err = finite_diff_check(loss, [p])
    assert err < 1e-4


def test_detects_wrong_gradient():
    p = Parameter("w", np.arange(1.0, 5.0))

    calls = {"n": 0}

    def loss():
        # forward value is w^3-like but we corrupt grads by scaling the
        # parameter leaf through a constant only on the recorded pass
        calls["n"] += 1
        node = p.node()
        if calls["n"] == 1:
            node = ad.scale(node, 0.5)  # recorded graph sees half the slope
        return ad.sum_all(mul(node, node))

    err = finite_diff_check(loss, [p])
    assert err > 0.1
