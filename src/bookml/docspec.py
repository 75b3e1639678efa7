"""Declared document shapes, and the one check that reads a document by one.

Every JSON document bookml reads (a config file, a table schema, an
artifact with its pipeline, model and probe blocks) declares its shape
once, as a spec built from these parts:

    Int(lo, hi)        an int, never a bool, in [lo, hi); either end may be open
    Count              an int in [1, 2**63): a row count, a dimension, a rank
    Finite             a JSON number that is a finite float64; an int counts
    Str, Bool, Any     a string, true or false, anything
    Const(*values)     one of values, of the same type
    Nullable(spec)     null or spec
    ListOf(spec, ...)  a list of spec, at least min_len long, exactly length
                       long if given, with no entry twice if unique
    Array(shape)       a rectangular array of finite numbers, None in shape
                       taking any length on its axis
    Doc(fields, ...)   an object with exactly the fields' keys, optional ones
                       aside; an open one may hold other keys too. A field's
                       spec may be a function of the fields read before it.

Any object with a read(value, path, error) method is a spec too, as
tree.TreeDoc is. check(value, spec, path, error) returns value as spec
reads it: an Array as a float64 ndarray (converted by np.array, then its
dtype, shape and isfinite checked, never walked in Python), a Doc as a
new dict, a list of specs that convert as a new list, anything else as it
is. A value that does not fit raises error(message), DataError
by default, and the message names the path of the part at fault, as in
"model.trees[3].threshold must be a finite number, got 'x'". The path ""
is the document itself. load_json reads a JSON file by a spec.

A Doc also binds its keys to an object's attributes: attrs maps a key to
the attribute that holds it, the key's own name by default. write(spec,
obj) builds obj's document from them: a Const field as its value, a
nested Doc from the same object, an ndarray by tolist, a set sorted, and
an object with a to_json method (a tree, a block map), or a list of them,
by to_json. restore(spec, obj, doc) sets the attributes from a document
that check has read, Const fields without an attribute aside. So one
declaration writes, checks and reads each fitted model and stage state.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError


def check(value, spec, path, error=DataError):
    """value as spec reads it, or error(message) naming the path of the part at fault."""
    return spec.read(value, path, error)


def load_json(path, spec, error=DataError):
    """The JSON file at path as spec reads it; every error message starts with the path."""
    def fail(msg):
        return error(f"{path}: {msg}")

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise fail("not found") from None
    except (OSError, ValueError) as exc:
        raise fail(f"not a JSON document ({exc})") from None
    return check(doc, spec, "", fail)


def _at(path, key):
    if not key.isidentifier():
        return f"{path}[{key!r}]"
    return f"{path}.{key}" if path else key


def _fail(error, path, want, value):
    got = (repr(value) if value is None or isinstance(value, (str, int, float))
           else type(value).__name__)
    got = got if len(got) <= 40 else got[:37] + "..."
    raise error(f"{path or 'the document'} must be {want}, got {got}")


class Spec:
    """A leaf spec: a predicate, and what it accepts in words."""

    def __init__(self, what, ok):
        self.what, self.ok = what, ok

    def read(self, value, path, error):
        if not self.ok(value):
            _fail(error, path, self.what, value)
        return value


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def Int(lo=None, hi=None):
    what = ("an int" if lo is None and hi is None else f"an int >= {lo}" if hi is None
            else f"an int in [{lo}, {hi})")
    return Spec(what, lambda v: _is_int(v) and (lo is None or v >= lo) and (hi is None or v < hi))


class Const(Spec):
    def __init__(self, *values):
        what = repr(values[0]) if len(values) == 1 else f"one of {list(values)}"
        super().__init__(what, lambda v: any(type(v) is type(c) and v == c for c in values))
        self.values = values


Count = Spec("an int >= 1", lambda v: _is_int(v) and 1 <= v < 2**63)
Finite = Spec("a finite number", lambda v: math.isfinite(v) if isinstance(v, float)
              else _is_int(v) and abs(v) <= sys.float_info.max)
Str = Spec("a string", lambda v: isinstance(v, str))
Bool = Spec("true or false", lambda v: isinstance(v, bool))
Any = Spec("anything", lambda v: True)


class Nullable:
    def __init__(self, spec):
        self.spec = spec

    def read(self, value, path, error):
        return None if value is None else self.spec.read(value, path, error)


class ListOf:
    def __init__(self, spec, min_len=0, length=None, unique=False):
        self.spec, self.min_len, self.length, self.unique = spec, min_len, length, unique

    def read(self, value, path, error):
        if not isinstance(value, list):
            _fail(error, path, "a list", value)
        if len(value) < self.min_len or self.length not in (None, len(value)):
            want = f"exactly {self.length}" if self.length is not None else f"at least {self.min_len}"
            raise error(f"{path} must hold {want} entries, got {len(value)}")
        # A list of leaves takes one pass, and a walk only to name the entry at fault.
        if not (isinstance(self.spec, Spec) and all(map(self.spec.ok, value))):
            value = [self.spec.read(v, f"{path}[{i}]", error) for i, v in enumerate(value)]
        if self.unique and len(set(value)) != len(value):
            raise error(f"{path} holds an entry twice")
        return value


class Array:
    def __init__(self, shape):
        self.shape = shape

    def read(self, value, path, error):
        try:
            arr = np.array(value)
        except (ValueError, TypeError):
            raise error(f"{path} is not a rectangular array of numbers") from None
        if arr.dtype.kind not in "if" or arr.ndim != len(self.shape) or any(
                n is not None and n != got for n, got in zip(self.shape, arr.shape)):
            want = " x ".join("n" if n is None else str(n) for n in self.shape) or "scalar"
            raise error(f"{path} must be a {want} array of numbers, got {arr.dtype} {arr.shape}")
        arr = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise error(f"{path} has non-finite values")
        return arr


class Doc:
    def __init__(self, fields, optional=(), open=False, attrs=None):
        self.fields, self.optional, self.open = fields, optional, open
        self.attrs = attrs or {}

    def read(self, value, path, error):
        if not isinstance(value, dict):
            _fail(error, path, "an object", value)
        for key in self.fields:
            if key not in value and key not in self.optional:
                raise error(f"{_at(path, key)} is missing")
        for key in () if self.open else value:
            if key not in self.fields:
                raise error(f"{_at(path, key)} is not one of the keys {list(self.fields)}")
        out = dict(value) if self.open else {}
        for key, spec in self.fields.items():
            if key in value:
                spec = spec(out) if callable(spec) else spec
                out[key] = spec.read(value[key], _at(path, key), error)
        return out


def _json(value):
    """An attribute's value as JSON: see write."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, list) and value and hasattr(value[0], "to_json"):
        return [entry.to_json() for entry in value]
    return value.to_json() if hasattr(value, "to_json") else value


def write(spec, obj):
    """The document of obj that the Doc spec declares, its keys in spec's order."""
    doc = {}
    for key, field in spec.fields.items():
        if isinstance(field, Doc):
            doc[key] = write(field, obj)
        elif isinstance(field, Const):
            doc[key] = field.values[0]
        else:
            doc[key] = _json(getattr(obj, spec.attrs.get(key, key)))
    return doc


def restore(spec, obj, doc):
    """Set obj's attributes from doc, as check(doc, spec, ...) read it, and return obj."""
    for key, field in spec.fields.items():
        if isinstance(field, Doc):
            restore(field, obj, doc[key])
        elif key in spec.attrs or not isinstance(field, Const):
            setattr(obj, spec.attrs.get(key, key), doc[key])
    return obj
