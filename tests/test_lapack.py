"""perevo reaches LAPACK through scipy.linalg.cython_lapack without importing
the scipy.linalg package, in either import order."""

import os
import subprocess
import sys

import perevo

# the address of a capsule's function, and of a function perevo bound
POINTERS = """
import ctypes
def capsule_pointer(capsule):
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))
def bound_pointer(function):
    return ctypes.cast(function, ctypes.c_void_p).value
"""

# both routines perevo calls must be the ones scipy.linalg exports
SAME_ROUTINES = """
from perevo import _lapack, evolve, operator
assert _lapack._cython_lapack() is scipy.linalg.cython_lapack
exported = scipy.linalg.cython_lapack.__pyx_capi__
assert capsule_pointer(exported["dgtsv"]) == bound_pointer(evolve._dgtsv)
assert capsule_pointer(exported["dstebz"]) == bound_pointer(operator._dstebz)
"""


def _fresh_python(code, *args):
    """Run code in a fresh interpreter that imports this perevo."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(perevo.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_perevo_first_then_scipy_linalg(tmp_path):
    # no command imports scipy.linalg, and a later import of it finds its
    # cython_lapack attribute set to the module perevo loaded
    code = POINTERS + (
        "import sys\n"
        "import perevo\n"
        "from perevo import cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'after import perevo'\n"
        "for argv in (['check', 'du_peng'], ['eigen', 'du_peng', '--lambda', '1000'],\n"
        "             ['sweep', 'du_peng', '--lambdas', '0,100'],\n"
        "             ['kernel', 'du_peng', '--lambda', '100', '--s', '0.1', '--t', '0.6']):\n"
        "    assert cli.main([*argv, '--out', sys.argv[1]]) == 0, argv\n"
        "    assert 'scipy.linalg' not in sys.modules, argv\n"
        "import scipy.linalg\n"
        "assert sys.modules['scipy.linalg.cython_lapack'] is scipy.linalg.cython_lapack\n"
        + SAME_ROUTINES)
    done = _fresh_python(code, str(tmp_path / "o"))
    assert done.returncode == 0, done.stderr


def test_scipy_linalg_first_then_perevo():
    code = POINTERS + (
        "import sys\n"
        "import scipy.linalg\n"
        "lapack = scipy.linalg.cython_lapack\n"
        "import perevo\n"
        "assert scipy.linalg.cython_lapack is lapack\n"
        "assert sys.modules['scipy.linalg.cython_lapack'] is lapack\n"
        + SAME_ROUTINES)
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
