"""Decorator-based registry of sparsity methods.

Methods register themselves (or are registered by the library) with

.. code-block:: python

    @register_method("my-method", defaults={"beta": 0.5}, doc="...")
    class MyMethod(SparsityMethod):
        def __init__(self, target_density=0.5, beta=0.5): ...

and are instantiated by name through :func:`create_method` (or
``REGISTRY.create``).  Unlike the original lambda-dict registry, keyword
arguments are validated against the factory's signature: unknown kwargs raise
``TypeError`` listing the method's accepted parameters instead of being
silently swallowed.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sparsity.base import DenseBaseline, SparsityMethod
from repro.sparsity.cache_aware import CacheAwareDIP
from repro.sparsity.cats import CATS
from repro.sparsity.dip import DynamicInputPruning
from repro.sparsity.gate_pruning import GatePruning, UpPruning
from repro.sparsity.glu_pruning import GLUPruning
from repro.sparsity.predictive import PredictiveGLUPruning
from repro.sparsity.thresholding import ThresholdStrategy

MethodFactory = Callable[..., SparsityMethod]


class UnknownMethodError(KeyError):
    """Raised when a method name is not registered."""


def _factory_signature(factory: MethodFactory) -> Tuple[Tuple[str, ...], bool]:
    """Parameter names accepted by ``factory`` (and whether it takes ``**kwargs``)."""
    target = factory.__init__ if inspect.isclass(factory) else factory
    names: List[str] = []
    accepts_extra = False
    for param in inspect.signature(target).parameters.values():
        if param.name == "self":
            continue
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_extra = True
        elif param.kind is not inspect.Parameter.VAR_POSITIONAL:
            names.append(param.name)
    return tuple(names), accepts_extra


def _first_doc_line(factory: MethodFactory) -> str:
    doc = inspect.getdoc(factory) or ""
    return doc.splitlines()[0] if doc else ""


@dataclasses.dataclass(frozen=True)
class MethodInfo:
    """Metadata of one registered sparsity method."""

    name: str
    factory: MethodFactory
    defaults: Mapping[str, Any]
    doc: str
    parameters: Tuple[str, ...]
    accepts_extra_kwargs: bool

    def describe(self) -> Dict[str, Any]:
        """Introspection dict (name, doc, parameters, defaults, calibration).

        ``requires_calibration`` is the class-level flag when the factory is a
        class, and ``None`` (depends on constructor arguments) for function
        factories — check the built instance for the definitive answer.
        """
        requires_calibration = (
            bool(getattr(self.factory, "requires_calibration", False))
            if inspect.isclass(self.factory)
            else None
        )
        return {
            "name": self.name,
            "doc": self.doc,
            "parameters": list(self.parameters),
            "defaults": dict(self.defaults),
            "requires_calibration": requires_calibration,
        }


class MethodRegistry:
    """Name → :class:`MethodInfo` mapping with validated instantiation."""

    def __init__(self) -> None:
        self._methods: Dict[str, MethodInfo] = {}

    # -------------------------------------------------------------- registration
    def register(
        self,
        name: str,
        *,
        defaults: Optional[Mapping[str, Any]] = None,
        doc: str = "",
        override: bool = False,
    ) -> Callable[[MethodFactory], MethodFactory]:
        """Decorator registering a factory (class or function) under ``name``."""

        def decorator(factory: MethodFactory) -> MethodFactory:
            if name in self._methods and not override:
                raise ValueError(f"method '{name}' is already registered (pass override=True to replace)")
            parameters, accepts_extra = _factory_signature(factory)
            merged_defaults = dict(defaults or {})
            if not accepts_extra:
                unknown = sorted(set(merged_defaults) - set(parameters))
                if unknown:
                    raise TypeError(
                        f"defaults for method '{name}' name unknown parameters {unknown}; "
                        f"accepted parameters: {list(parameters)}"
                    )
            self._methods[name] = MethodInfo(
                name=name,
                factory=factory,
                defaults=merged_defaults,
                doc=doc or _first_doc_line(factory),
                parameters=parameters,
                accepts_extra_kwargs=accepts_extra,
            )
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        """Remove a registered method (used by tests and plugins)."""
        self._methods.pop(name, None)

    # -------------------------------------------------------------- introspection
    def names(self) -> List[str]:
        return sorted(self._methods)

    def __contains__(self, name: str) -> bool:
        return name in self._methods

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def info(self, name: str) -> MethodInfo:
        if name not in self._methods:
            raise UnknownMethodError(f"unknown sparsity method '{name}'; available: {self.names()}")
        return self._methods[name]

    def describe(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Metadata for one method, or ``{name: metadata}`` for all of them."""
        if name is not None:
            return self.info(name).describe()
        return {n: self._methods[n].describe() for n in self.names()}

    # -------------------------------------------------------------- validation
    def validate_kwargs(self, name: str, kwargs: Mapping[str, Any]) -> None:
        """Raise ``TypeError`` if ``kwargs`` contains parameters ``name`` rejects."""
        info = self.info(name)
        if info.accepts_extra_kwargs:
            return
        unknown = sorted(set(kwargs) - set(info.parameters))
        if unknown:
            raise TypeError(
                f"method '{name}' got unexpected keyword argument(s) {unknown}; "
                f"accepted parameters: {list(info.parameters)}"
            )

    # -------------------------------------------------------------- construction
    def create(
        self, name: str, target_density: Optional[float] = None, **kwargs: Any
    ) -> SparsityMethod:
        """Instantiate the method ``name``.

        ``defaults`` given at registration are applied first, then ``kwargs``,
        then ``target_density`` (when not ``None``).  Unknown kwargs raise
        ``TypeError`` listing the accepted parameters.
        """
        info = self.info(name)
        merged: Dict[str, Any] = dict(info.defaults)
        merged.update(kwargs)
        if target_density is not None:
            merged["target_density"] = target_density
        self.validate_kwargs(name, merged)
        return info.factory(**merged)


#: The process-wide registry all built-in methods register into.
REGISTRY = MethodRegistry()


def register_method(
    name: str,
    *,
    defaults: Optional[Mapping[str, Any]] = None,
    doc: str = "",
    override: bool = False,
) -> Callable[[MethodFactory], MethodFactory]:
    """Module-level decorator registering into the global :data:`REGISTRY`."""
    return REGISTRY.register(name, defaults=defaults, doc=doc, override=override)


def create_method(name: str, target_density: Optional[float] = None, **kwargs: Any) -> SparsityMethod:
    """Instantiate a sparsity method by registry name (validated kwargs)."""
    return REGISTRY.create(name, target_density=target_density, **kwargs)


def available_methods() -> List[str]:
    """Names of all registered dynamic-sparsity methods."""
    return REGISTRY.names()


def describe_methods(name: Optional[str] = None) -> Dict[str, Any]:
    """Introspection metadata for one or all registered methods."""
    return REGISTRY.describe(name)


# ---------------------------------------------------------------------------
# Built-in method registrations.
# ---------------------------------------------------------------------------

register_method("dense", doc="No sparsification: every weight read, every neuron active.")(DenseBaseline)
register_method("gate", doc="Gate pruning (§3.2, Fig. 5b).")(GatePruning)
register_method("up", doc="Up pruning (§3.2).")(UpPruning)
register_method("cats", doc="CATS per-layer thresholding on gate activations.")(CATS)
register_method("dejavu", doc="Predictive GLU pruning with trained predictors (§3.2, Fig. 5c).")(
    PredictiveGLUPruning
)
register_method("dip", doc="Dynamic Input Pruning (§4, Eq. 7-8).")(DynamicInputPruning)
register_method("dip-ca", doc="Cache-aware DIP (§5.2, Eq. 10, Algorithm 1).")(CacheAwareDIP)


@register_method("glu", doc="GLU pruning: only W_d sparsified (§3.2, Fig. 5a).")
def _glu(
    target_density: float = 0.5,
    *,
    threshold_strategy: Optional[ThresholdStrategy] = None,
    keep_fraction: Optional[float] = None,
) -> GLUPruning:
    return GLUPruning(
        target_density, oracle=False, threshold_strategy=threshold_strategy, keep_fraction=keep_fraction
    )


@register_method("glu-oracle", doc="GLU pruning with an oracle that also skips W_u/W_g rows.")
def _glu_oracle(
    target_density: float = 0.5,
    *,
    threshold_strategy: Optional[ThresholdStrategy] = None,
    keep_fraction: Optional[float] = None,
) -> GLUPruning:
    return GLUPruning(
        target_density, oracle=True, threshold_strategy=threshold_strategy, keep_fraction=keep_fraction
    )
