"""combnet: compact 2.5D hand-pose network with an optimized embedded-style
convolution engine (channel interleaving, kernel packing, comb-decomposed
dilated convolution) and a reference backend that serves as its oracle.
"""

import os
import threading

__version__ = "0.1.0"

# BLAS/OpenMP thread-count variables: the CLI pins them before numpy loads,
# and `bench` reports the values in effect.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# glibc's mallopt M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), high enough
# that a frame's freed temporaries (128-560 KB each) stay for the next frame
MALLOC_POLICY = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 64 << 20)}
# the settings by which a process chooses glibc's malloc thresholds itself:
# environment variables, and the same parameters as GLIBC_TUNABLES entries
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold",
                   "glibc.malloc.top_pad", "glibc.malloc.mmap_max")

# the parameters keep_freed_memory() set, None before it runs (per process)
_kept_freed = None
_kept_freed_lock = threading.Lock()


def _start_environment() -> dict:
    """The environment this process started with, the one glibc's malloc
    read; a later change to `os.environ` does not reach it."""
    try:
        with open("/proc/self/environ", "rb") as fh:
            raw = fh.read()
    except OSError:  # not Linux: the best record left is os.environ
        return dict(os.environ)
    return dict(kv.decode(errors="replace").partition("=")[::2]
                for kv in raw.split(b"\0") if kv)


def _malloc_chosen_by_environment() -> list:
    """The MALLOC_VARS and MALLOC_TUNABLES the process started with."""
    env = _start_environment()
    tunables = {t.partition("=")[0] for t in env.get("GLIBC_TUNABLES", "").split(":")}
    return [v for v in MALLOC_VARS if v in env] + [t for t in MALLOC_TUNABLES
                                                    if t in tunables]


def keep_freed_memory() -> None:
    """Once per process, keep freed working memory mapped: by default glibc
    returns each freed block of 128 KB or more to the kernel, and the next
    frame faults it in again. Sets MALLOC_POLICY through `mallopt` (stopping
    at the first parameter glibc refuses), so the heap keeps up to 64 MiB of
    free memory. The first `forward` of a process runs it, and `main` before
    any command; starting with a threshold of its own (MALLOC_VARS or
    MALLOC_TUNABLES) opts a process out. Off glibc it does nothing."""
    global _kept_freed
    with _kept_freed_lock:
        if _kept_freed is None:
            _kept_freed = _set_malloc_policy()


def _set_malloc_policy() -> tuple:
    if _malloc_chosen_by_environment():
        return ()
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return ()
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return ()
    import ctypes  # CDLL(None) is this process: no find_library subprocess
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    kept = []
    for name, (param, value) in MALLOC_POLICY.items():
        if mallopt(param, value) != 1:
            break
        kept.append(f"{name}={value >> 20}MiB")
    return tuple(kept)


def malloc_policy() -> str:
    """The allocator policy in effect, as `bench` reports it: the parameters
    keep_freed_memory() set (`keep-freed:...`), else the thresholds the
    environment sets (`environment:...`), else `default`."""
    if _kept_freed:
        return "keep-freed:" + ",".join(_kept_freed)
    chosen = _malloc_chosen_by_environment()
    return "environment:" + ",".join(chosen) if chosen else "default"
