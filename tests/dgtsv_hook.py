"""A recorder for the calls of perevo's dgtsv binding, for tests that count
or hold evolution steps."""

import ctypes

import numpy as np

from perevo import evolve


def hook_dgtsv(monkeypatch, before=None):
    """Route every call of evolve._dgtsv through a recorder.

    Returns the list of (nrhs, rows) of each call, rows a copy of the 3n - 2
    bands it was handed.  before(record), when given, runs ahead of the real
    call, on the calling thread."""
    calls = []
    real = evolve._dgtsv

    def recording(*args):
        n, nrhs = args[0]._obj.value, args[1]._obj.value
        rows = np.ctypeslib.as_array((ctypes.c_double * (3 * n - 2)).from_address(args[2].value))
        calls.append((nrhs, rows.copy()))
        if before is not None:
            before(calls[-1])
        return real(*args)

    monkeypatch.setattr(evolve, "_dgtsv", recording)
    return calls
