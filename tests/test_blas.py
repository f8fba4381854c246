"""Scoped single-threaded BLAS."""

import sys
import threading

import numpy as np

from gpcal.blas import _thread_controls, single_threaded_blas

_TIMEOUT = 30.0


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


def test_overlapping_threads_restore_only_on_last_exit():
    # Thread a enters, then b; a leaves while b is still inside, which
    # must leave the counts at one; b's exit restores them.
    controls = _thread_controls()
    before = [getter() for _, getter in controls]
    a_inside, b_inside, a_left, b_may_leave = (threading.Event()
                                               for _ in range(4))
    seen = {}

    def a():
        with single_threaded_blas():
            a_inside.set()
            assert b_inside.wait(_TIMEOUT)
        a_left.set()

    def b():
        assert a_inside.wait(_TIMEOUT)
        with single_threaded_blas():
            b_inside.set()
            assert b_may_leave.wait(_TIMEOUT)
            seen["after_a_left"] = [getter() for _, getter in controls]

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    assert a_left.wait(_TIMEOUT)
    seen["while_b_inside"] = [getter() for _, getter in controls]
    b_may_leave.set()
    for t in threads:
        t.join(_TIMEOUT)
        assert not t.is_alive()
    assert seen["while_b_inside"] == [1] * len(controls)
    assert seen["after_a_left"] == [1] * len(controls)
    assert [getter() for _, getter in controls] == before


def test_many_threads_entering_and_leaving():
    # More threads than cores enter and leave at a short switch interval;
    # every body sees one thread, and the last exit restores the counts.
    controls = _thread_controls()
    before = [getter() for _, getter in controls]
    bad = []

    def worker():
        for _ in range(200):
            with single_threaded_blas():
                counts = [getter() for _, getter in controls]
                if counts != [1] * len(controls):
                    bad.append(counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(_TIMEOUT)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert bad == []
    assert [getter() for _, getter in controls] == before
