"""Plain-text configuration documents.

A document is INI-style: sections [grid], [time], [coefficients], [boundary]
and [weight]; any other section or key exits 2.  The weight is the only
description of the vanishing set: the hard-wall limit is posed on its free
set.  The time stepper is always fully implicit and has no setting.
Coefficient and weight values are either bare numbers or calls from a small
fixed catalog:

    const(v)                         constant v
    sin_t(offset, amplitude)         offset + amplitude * sin(2 pi t / T)
    indicator_box(x1, x2, t1, t2)    1 on [x1, x2) x [t1, t2), else 0 (x1 < x2, t1 < t2)
    sum(e1, e2, ...)                 pointwise sum of catalog expressions

The weight key additionally accepts the builtin scenario weights, built and
checked by the same model functions as the builtins:

    du_peng(u_lo, u_hi, t_switch)
    counterexample(x0..x5, t0..t5)   twelve numbers, grid-snapped
"""

from __future__ import annotations

import configparser
import math
import os

import numpy as np

from . import model
from .errors import SchemaError

__all__ = ["build_problem", "document_lattice", "parse_lambda_list"]

_SCHEMA = {
    "grid": {"x_lo", "x_hi", "n"},
    "time": {"T", "M"},
    "coefficients": {"D", "a", "b", "c0", "alpha"},
    "boundary": {"bc", "b0_left", "b0_right", "bc_left", "bc_right"},
    "weight": {"weight", "delta"},
}
_REQUIRED = {("grid", "x_lo"), ("grid", "x_hi"), ("grid", "n"),
             ("time", "T"), ("time", "M"),
             ("coefficients", "D"), ("boundary", "bc")}


def _read(text_or_path: str) -> configparser.ConfigParser:
    """Parse document text, or the file at a path: a one-line string that does
    not start with '[' (a document's first section header) names a file."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str  # keep key case (T vs t)
    is_path = "\n" not in text_or_path and not text_or_path.lstrip().startswith("[")
    if is_path and not os.path.exists(text_or_path):
        raise SchemaError(f"config file {text_or_path!r} does not exist")
    try:
        if is_path:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                cp.read_file(fh, source=text_or_path)
        else:
            cp.read_string(text_or_path)
    except configparser.Error as exc:
        raise SchemaError(f"cannot parse config document: {exc}") from exc
    return cp


def _validate_keys(cp: configparser.ConfigParser):
    for section in cp.sections():
        if section not in _SCHEMA:
            raise SchemaError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise SchemaError(f"unknown key {key!r} in [{section}]")
    for section, key in _REQUIRED:
        if not cp.has_option(section, key):
            raise SchemaError(f"missing required key {key!r} in [{section}]")


def _number(cp, section, key, default=None, cast=float):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        raise SchemaError(f"key {key!r} in [{section}]: cannot parse {raw!r}") from None


# ---------------------------------------------------------------------------
# expression catalog
# ---------------------------------------------------------------------------

def _split_args(body: str):
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SchemaError(f"unbalanced parentheses in expression {body!r}")
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SchemaError(f"unbalanced parentheses in expression {body!r}")
    tail = "".join(cur).strip()
    if tail:
        args.append(tail)
    return args


def _parse_expr(text: str):
    """Parse a catalog expression into (name, args) with nested tuples."""
    text = text.strip()
    if not text:
        raise SchemaError("empty expression")
    try:
        return ("const", [float(text)])
    except ValueError:
        pass
    if "(" not in text or not text.endswith(")"):
        raise SchemaError(f"malformed expression {text!r}")
    name, body = text.split("(", 1)
    name = name.strip()
    return (name, [_parse_expr(a) if "(" in a or not _is_number(a) else float(a)
                   for a in _split_args(body[:-1])])


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _need_numbers(name, args, count):
    if len(args) != count or not all(isinstance(a, float) for a in args):
        raise SchemaError(f"{name}(...) expects {count} numeric arguments")
    return args


def _eval_expr(node, grid, tgrid, key, weight_ok):
    """Turn a parsed expression into a lattice of samples; a constant is a
    read-only broadcast of its one value."""
    name, args = node
    T = tgrid.T
    if name == "const":
        (v,) = _need_numbers("const", args, 1)
        return np.broadcast_to(np.float64(v), (grid.n + 2, tgrid.M + 1))
    if name == "sin_t":
        off, amp = _need_numbers("sin_t", args, 2)
        return model.sample_field(lambda x, t: off + amp * np.sin(2.0 * math.pi * t / T),
                                  grid, tgrid)
    if name == "indicator_box":
        return model.box_weight(grid, tgrid, *_need_numbers(name, args, 4))
    if name == "sum":
        if not args:
            raise SchemaError("sum(...) needs at least one argument")
        parts = [a if isinstance(a, tuple) else ("const", [a]) for a in args]
        return np.sum([_eval_expr(p, grid, tgrid, key, weight_ok) for p in parts], axis=0)
    if weight_ok and name == "du_peng":
        return model.du_peng_weight(grid, tgrid, *_need_numbers("du_peng", args, 3))
    if weight_ok and name == "counterexample":
        vals = _need_numbers("counterexample", args, 12)
        return model.staircase_weight(grid, tgrid, vals[:6], vals[6:])
    raise SchemaError(f"key {key!r}: unknown expression {name!r}")


def _lattice(cp, section, key, grid, tgrid, default, weight_ok=False):
    if cp.has_option(section, key):
        node = _parse_expr(cp.get(section, key))
    else:
        node = ("const", [float(default)])
    return _eval_expr(node, grid, tgrid, key, weight_ok)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _document(text_or_path: str, n=None, M=None):
    """(parsed document, Grid1D, TimeGrid): the document's lattice, or its
    domain and period with n and M replaced, validated without sampling."""
    cp = _read(text_or_path)
    _validate_keys(cp)
    grid = model.Grid1D(_number(cp, "grid", "x_lo"), _number(cp, "grid", "x_hi"),
                        _number(cp, "grid", "n", cast=int) if n is None else n)
    tgrid = model.TimeGrid(_number(cp, "time", "T"),
                           _number(cp, "time", "M", cast=int) if M is None else M)
    return cp, grid, tgrid


def document_lattice(text_or_path: str) -> tuple:
    """(n, M) of a config document's lattice, read and validated as
    build_problem reads it, without sampling a lattice."""
    _, grid, tgrid = _document(text_or_path)
    return grid.n, tgrid.M


def build_problem(text_or_path: str, n=None, M=None) -> model.ProblemSpec:
    """Parse a config document, given as text or as a file path, and build the
    validated ProblemSpec.

    n and M, when given, replace the document's [grid] n and [time] M, as the
    same keywords do for model.builtin_scenario.  The weight lattice the
    document's expression allocates is kept, not copied.
    """
    cp, grid, tgrid = _document(text_or_path, n, M)

    coeff = model.make_coefficients(
        grid, tgrid,
        D=_lattice(cp, "coefficients", "D", grid, tgrid, 1.0),
        a=_lattice(cp, "coefficients", "a", grid, tgrid, 0.0),
        b=_lattice(cp, "coefficients", "b", grid, tgrid, 0.0),
        c0=_lattice(cp, "coefficients", "c0", grid, tgrid, 0.0),
        alpha=_number(cp, "coefficients", "alpha"),
    )

    kind = cp.get("boundary", "bc").strip().lower()
    bc = model.BoundarySpec(
        kind,
        b0_left=_number(cp, "boundary", "b0_left", 0.0),
        b0_right=_number(cp, "boundary", "b0_right", 0.0),
        kind_left=cp.get("boundary", "bc_left", fallback=None),
        kind_right=cp.get("boundary", "bc_right", fallback=None),
    )

    wl = _lattice(cp, "weight", "weight", grid, tgrid, 0.0, weight_ok=True)
    weight = model._make_weight(grid, tgrid, wl, _number(cp, "weight", "delta"), copy=False)
    return model.make_problem(grid, tgrid, coeff, bc, weight)


def parse_lambda_list(text: str):
    """Parse a penalty list: comma terms, each a number or 'a:b:xF' decade ramp.

    Example: "0,1:1e5:x10" gives [0, 1, 10, 100, 1000, 10000, 100000].
    """
    out = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        if ":" in term:
            parts = term.split(":")
            if len(parts) != 3 or not parts[2].lower().startswith("x"):
                raise SchemaError(f"bad penalty range {term!r} (expected start:stop:xFACTOR)")
            try:
                start, stop, fac = float(parts[0]), float(parts[1]), float(parts[2][1:])
            except ValueError:
                raise SchemaError(f"bad penalty range {term!r}") from None
            if start <= 0 or fac <= 1 or stop < start:
                raise SchemaError(f"bad penalty range {term!r}")
            lam = start
            while lam <= stop * (1 + 1e-12):
                out.append(lam)
                lam *= fac
        else:
            try:
                out.append(float(term))
            except ValueError:
                raise SchemaError(f"bad penalty value {term!r}") from None
    if not out:
        raise SchemaError("empty penalty list")
    out = sorted(out)
    if any(v < 0 for v in out):
        raise SchemaError("penalties must be >= 0")
    return out
