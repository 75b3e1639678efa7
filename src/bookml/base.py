"""Minimal estimator base: parameter introspection in the fit/transform idiom.

Estimators store constructor arguments verbatim as attributes and expose
them through ``get_params`` / ``set_params``; fitted state lives in
trailing-underscore attributes set by ``fit``.
"""

import inspect

from .errors import NotFittedError


class BaseEstimator:
    """Provides get_params/set_params backed by the __init__ signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

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
