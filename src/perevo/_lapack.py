"""LAPACK routines as ctypes functions, without importing scipy.linalg.

perevo calls two LAPACK routines, dgtsv (evolve) and dstebz (operator),
through the function pointers that scipy.linalg.cython_lapack exports.  That
module is a standalone extension, but `import scipy.linalg.cython_lapack`
would run the scipy.linalg package's __init__ first, which costs about half
of `import perevo`.  _cython_lapack() therefore loads the extension from its
file in scipy/linalg without that package: it imports the top-level scipy
package first, as any import of a scipy submodule does (its __init__ is
light, and on some platforms it is what makes scipy's bundled libraries
loadable), runs the extension as a module of its own and takes the module's
entry back out of sys.modules.  Without an entry there, a later `import scipy.linalg`
loads the extension as usual, gets this same module object back (a Cython
module is created once per interpreter) and sets it as the
scipy.linalg.cython_lapack attribute.  When scipy.linalg.cython_lapack is
already loaded, that module is used.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import re
import sys

__all__ = ["bind"]

_NAME = "scipy.linalg.cython_lapack"


@functools.cache
def _cython_lapack():
    """scipy.linalg.cython_lapack, loaded without the scipy.linalg package
    unless it is loaded already."""
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    import scipy
    where = [os.path.join(path, "linalg") for path in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, where)
    if spec is None:
        raise ImportError(f"no {_NAME} extension under {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension enters itself in sys.modules; left there, a later import
    # of scipy.linalg would find it and never set it as that package's attribute
    sys.modules.pop(_NAME, None)
    return module


def bind(routine: str, signature: str):
    """LAPACK routine from the capsule scipy.linalg.cython_lapack exports, as
    a ctypes function, which releases the GIL for every call.

    The capsule is named by its C signature, with double spelled d here; any
    other signature than the one given fails the import.  The function
    declares no argument types, which ctypes would convert on every call
    (about 1 us, enough to make a lone vector step slower than through
    scipy's own wrapper): its caller builds the arguments, pointers to
    buffers it has checked."""
    capsule = _cython_lapack().__pyx_capi__[routine]
    # own function objects, so ctypes.pythonapi's shared ones keep their types
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    exported = re.sub(r"\b(?:__pyx_t_\w*_d|double)\b", "d", name.decode())
    if exported != signature:
        raise ImportError(f"{_NAME} exports {routine} as {name.decode()!r}, "
                          f"not as {signature!r}")
    function = ctypes.CFUNCTYPE(None)(get_pointer(capsule, name))
    function.argtypes = None
    return function
