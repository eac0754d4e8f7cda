"""The inference pool pins every OpenBLAS to one thread, whether the
process loaded it before the pool reached two workers or after.

An OpenBLAS worker thread busy-waits between calls, so a threaded BLAS
under a thread pool holds a core the pool needs.  Once the pool has two
workers, it is the process's only level of parallelism.
"""

import _ctypes
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.infer import parallel_map
from repro.infer.parallel import _pin_openblas_to_one_thread

_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _mapped_openblas():
    with open("/proc/self/maps") as f:
        rows = [line.split(None, 5) for line in f]
    paths = {row[5].strip() for row in rows if len(row) == 6}
    return sorted(p for p in paths
                  if "openblas" in os.path.basename(p).lower())


def _threads(path):
    lib = ctypes.CDLL(path)
    for name in _GETTERS:
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def test_pool_pins_every_loaded_openblas_to_one_thread():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    parallel_map(lambda i: i, [0, 1], n_threads=2)
    counts = {path: _threads(path) for path in _mapped_openblas()}
    counts = {path: n for path, n in counts.items() if n is not None}
    if not counts:
        pytest.skip("no OpenBLAS loaded in this process")
    assert set(counts.values()) == {1}, counts


#: Run in a fresh interpreter: start the pool, then load SciPy (whose
#: OpenBLAS the library maps only when data generation or SSIM first
#: runs), and report the threads of each OpenBLAS mapped before and after.
_PIN_THEN_LOAD = """
import json
from repro.infer import parallel_map
from tests.infer.test_blas_pin import _mapped_openblas, _threads
parallel_map(abs, [0, 1], n_threads=2)
pinned = _mapped_openblas()
import scipy.ndimage
print(json.dumps([pinned, {p: _threads(p) for p in _mapped_openblas()}]))
"""


def test_an_openblas_loaded_after_the_pin_starts_at_one_thread():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    root = Path(__file__).resolve().parents[2]
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    run = subprocess.run([sys.executable, "-c", _PIN_THEN_LOAD],
                         capture_output=True, text=True, env=env,
                         cwd=root, timeout=120)
    assert run.returncode == 0, run.stderr
    pinned, counts = json.loads(run.stdout)
    if not set(counts) - set(pinned):
        pytest.skip("SciPy maps no OpenBLAS of its own here")
    counts = {path: n for path, n in counts.items() if n is not None}
    assert set(counts.values()) == {1}, counts


def test_unreadable_maps_is_a_no_op(tmp_path):
    _pin_openblas_to_one_thread(str(tmp_path / "absent"))
    _pin_openblas_to_one_thread(str(tmp_path))  # a directory


def test_files_without_the_setter_are_skipped(tmp_path):
    # Named like OpenBLAS: a file that is no shared library, and a
    # shared library (the ctypes extension module) exporting no setter.
    broken = tmp_path / "libopenblas_broken.so"
    broken.write_text("not a library")
    nosym = tmp_path / "libopenblas_nosym.so"
    nosym.symlink_to(_ctypes.__file__)
    maps = tmp_path / "maps"
    maps.write_text(f"7f00-7f01 r--p 00000000 00:00 1 {broken}\n"
                    f"7f01-7f02 r--p 00000000 00:00 2 {nosym}\n")
    _pin_openblas_to_one_thread(str(maps))
