"""Scoped single-threaded BLAS.

numpy and scipy each bundle their own OpenBLAS, and each starts one thread
per core.  At the problem sizes gpcal runs (n of a few hundred), a
multi-threaded BLAS call costs more than it saves: the acceptance fixture
of 4 experiments x 5 seeds took 343 s on 2 cores with default threading
and about 50 s with one BLAS thread.

``single_threaded_blas()`` sets both libraries to one thread through their
exported setters and restores the previous counts on exit.  The count is
process-wide, so the context is reference-counted across threads: the first
entry saves the counts and sets them to one, and only the last exit
restores them, so a thread leaving while another is still inside changes
nothing.  It wraps the fits, the calibration, experiment runs and CLI
commands, and nests freely.  When neither library exports a setter
(another BLAS build), the context does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

import numpy
import scipy

__all__ = ["single_threaded_blas"]

# (package, setter, getter) of each bundled OpenBLAS; numpy's build has
# 64-bit integers and suffixed symbol names.
_OPENBLAS = (
    (numpy, "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    (scipy, "scipy_openblas_set_num_threads",
     "scipy_openblas_get_num_threads"),
)


@functools.cache
def _thread_controls() -> tuple:
    """(set, get) pairs of the bundled OpenBLAS libraries that export
    both; empty when none does."""
    controls = []
    for package, set_name, get_name in _OPENBLAS:
        libs_dir = os.path.join(
            os.path.dirname(os.path.dirname(package.__file__)),
            package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs_dir,
                                                  "libscipy_openblas*"))):
            try:
                lib = ctypes.CDLL(path)
                setter = getattr(lib, set_name)
                getter = getattr(lib, get_name)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((setter, getter))
            break
    return tuple(controls)


_lock = threading.Lock()
_depth = 0          # contexts open in any thread
_saved = []         # thread counts to restore when the last one closes


@contextmanager
def single_threaded_blas():
    """Run the body with every bundled OpenBLAS set to one thread."""
    global _depth, _saved
    controls = _thread_controls()
    with _lock:
        if _depth == 0:
            _saved = [getter() for _, getter in controls]
            for setter, _ in controls:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (setter, _), count in zip(controls, _saved):
                    setter(count)
