"""Minimal estimator base: parameter introspection in the fit/transform idiom.

Estimators store constructor arguments verbatim as attributes and expose
them through ``get_params`` / ``set_params``; fitted state lives in
trailing-underscore attributes set by ``fit``. A model class declares its
document once, as ``doc_spec()``: ``to_json`` writes it and ``from_json``
checks and reads it (see docspec).
"""

import inspect

from .docspec import Bool, Doc, Finite, Int, Nullable, Str, check, restore, write
from .errors import NotFittedError

# The spec of a parameter, by the type of its default: an int counts as a
# float, a bool never as an int, and a None default takes None or an int.
_DEFAULT_SPECS = {bool: Bool, int: Int(), float: Finite, str: Str, type(None): Nullable(Int())}


class BaseEstimator:
    """Provides get_params/set_params backed by the __init__ signature."""

    # Specs of the parameters whose default does not give their type.
    PARAM_SPECS = {}

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    @classmethod
    def param_spec(cls):
        """The Doc of get_params(): each parameter as PARAM_SPECS or its default's type declares it."""
        params = inspect.signature(cls.__init__).parameters
        return Doc({name: cls.PARAM_SPECS.get(name) or _DEFAULT_SPECS[type(params[name].default)]
                    for name in cls._param_names()})

    def check_params(self):
        """Raise DataError if a parameter lies outside its valid range.

        fit makes this check; a config can make it before any data loads.
        The base estimator has no ranges to check.
        """

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def to_json(self):
        """This fitted model's document, as doc_spec() declares it (NotFittedError before fit)."""
        spec = self.doc_spec()
        for attr in spec.attrs.values():
            check_is_fitted(self, attr)
        return write(spec, self)

    @classmethod
    def from_json(cls, doc):
        """The fitted model of a document, checked against doc_spec() first (DataError)."""
        spec = cls.doc_spec()
        doc = check(doc, spec, "model")
        return restore(spec, cls(**doc["params"]), doc)

    def clone(self):
        """Fresh unfitted copy with identical parameters."""
        return type(self)(**self.get_params())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator, attribute):
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted; call fit() before use"
        )
