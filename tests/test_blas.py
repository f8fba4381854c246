"""Scoped single-threaded BLAS."""

import numpy as np

from gpcal.blas import _thread_controls, single_threaded_blas


def test_sets_one_thread_and_restores_counts():
    controls = _thread_controls()
    before = [getter() for _, getter in controls]
    with single_threaded_blas():
        assert [getter() for _, getter in controls] == [1] * len(controls)
        with single_threaded_blas():
            pass
        assert [getter() for _, getter in controls] == [1] * len(controls)
        A = np.random.default_rng(0).standard_normal((50, 50))
        np.testing.assert_allclose(np.linalg.inv(A) @ A, np.eye(50),
                                   atol=1e-10)
    assert [getter() for _, getter in controls] == before


def test_restores_counts_when_body_raises():
    controls = _thread_controls()
    before = [getter() for _, getter in controls]
    try:
        with single_threaded_blas():
            raise ValueError
    except ValueError:
        pass
    assert [getter() for _, getter in controls] == before
