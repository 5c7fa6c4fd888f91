"""OpenBLAS thread-pool control through ctypes; a no-op on another BLAS."""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Iterator, Optional

__all__ = ["one_blas_thread", "openblas_thread_calls", "set_blas_threads"]

#: ``openblas_{get,set}_num_threads`` as each OpenBLAS build names them
_SYMBOLS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads64_")


@functools.lru_cache(maxsize=None)
def openblas_thread_calls():
    """OpenBLAS's ``(get_num_threads, set_num_threads)`` in this process,
    or ``None`` (another BLAS, or no ``/proc``).  The library is found
    through ``/proc/self/maps`` because NumPy loads it privately, once
    per process: forked children inherit the entry points."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _SYMBOLS:
            get, put = (getattr(lib, symbol.format(op), None)
                        for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def set_blas_threads(threads: int) -> Optional[int]:
    """Set this process's OpenBLAS pool to ``threads`` threads; returns
    the previous count, or ``None`` (changing nothing) on another BLAS."""
    calls = openblas_thread_calls()
    if calls is None:
        return None
    get, put = calls
    before = get()
    put(threads)
    return before


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body on one OpenBLAS thread, then restore the count."""
    before = set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)
