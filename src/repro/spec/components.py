"""Parameterized component specs and the unified component registry.

Every pluggable piece of a simulation -- predictor, corrector,
scheduler, workload filter -- is addressed the same way: a
:class:`ComponentSpec`, i.e. a registry ``name`` plus a flat ``params``
mapping.  The registries replace the old bare-string factories
(``make_predictor("ave2")`` etc.); strings remain accepted everywhere as
*legacy shorthand* and are lowered to fully-explicit specs, so

* ``"easy-sjbf"``            -> ``easy(order="sjbf")``
* ``"ave2"``                 -> ``ave(k=2)``
* ``"ml:sq-lin-large-area"`` -> ``ml(over="sq", under="lin", weight="large-area")``
* ``{"name": "ml", "params": {"over": "sq", "under": "lin",
  "weight": "large-area", "eta": 0.3}}`` -- a parameterization the old
  string keys could not express at all.

Normalization is canonical: every registered parameter appears in the
normalized spec with its default filled in, so two spellings of the same
configuration always produce the same canonical JSON and therefore the
same :class:`~repro.spec.cellspec.CellSpec` digest.  Conversely
:meth:`ComponentRegistry.legacy_name` lowers a spec back to the old
string key when (and only when) the configuration is expressible there,
which is what keeps the paper's triple keys round-trippable as labels.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

__all__ = [
    "ComponentSpec",
    "ComponentRegistry",
    "predictor_registry",
    "corrector_registry",
    "scheduler_registry",
    "filter_registry",
    "registry_for",
]

#: Parameter values must stay scalar so specs serialize canonically.
Scalar = (bool, int, float, str)


@dataclass(frozen=True)
class ComponentSpec:
    """A component reference: registry name + flat scalar params.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    the spec is hashable and order-insensitive; use :attr:`param_dict`
    for mapping access.
    """

    name: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, name: str, params: Mapping[str, Any] | None = None) -> ComponentSpec:
        items = dict(params or {})
        for key, value in items.items():
            if not isinstance(key, str):
                raise TypeError(f"param names must be strings, got {key!r}")
            if not isinstance(value, Scalar):
                raise TypeError(
                    f"param {key!r} of component {name!r} must be a scalar "
                    f"(bool/int/float/str), got {type(value).__name__}"
                )
        return cls(name=str(name), params=tuple(sorted(items.items())))

    @classmethod
    def from_obj(cls, obj: ComponentSpec | str | Mapping[str, Any]) -> ComponentSpec:
        """Accept a ready spec, a legacy string name, or a JSON-ish dict."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, str):
            return cls.make(obj)
        if isinstance(obj, Mapping):
            extra = set(obj) - {"name", "params"}
            if "name" not in obj or extra:
                raise ValueError(
                    f"component object needs exactly 'name' (+ optional "
                    f"'params'), got keys {sorted(obj)}"
                )
            return cls.make(obj["name"], obj.get("params"))
        raise TypeError(f"cannot build a ComponentSpec from {type(obj).__name__}")

    @property
    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_obj(self) -> dict:
        """JSON-able form (canonical when the spec is normalized)."""
        return {"name": self.name, "params": self.param_dict}

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"


@dataclass
class _Registration:
    factory: Callable[..., Any]
    defaults: dict[str, Any]
    required: dict[str, type]


class ComponentRegistry:
    """Named, parameterized factories for one component kind.

    ``parse`` (optional) lowers legacy string shorthand that is not a
    plain registered name (e.g. ``"ave2"``); ``unparse`` (optional) maps
    a normalized spec back to that shorthand where representable.
    """

    def __init__(
        self,
        kind: str,
        parse: Callable[[str], ComponentSpec | None] | None = None,
        unparse: Callable[[ComponentSpec], str | None] | None = None,
    ) -> None:
        self.kind = kind
        self._parse = parse
        self._unparse = unparse
        self._entries: dict[str, _Registration] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        defaults: Mapping[str, Any] | None = None,
        required: Mapping[str, type] | None = None,
    ) -> None:
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} registered twice")
        self._entries[name] = _Registration(
            factory=factory,
            defaults=dict(defaults or {}),
            required=dict(required or {}),
        )

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- normalization --------------------------------------------------------
    def normalize(self, obj: ComponentSpec | str | Mapping[str, Any]) -> ComponentSpec:
        """Canonical spec: legacy strings lowered, every param explicit.

        Unknown names and unknown/ill-typed params are rejected here --
        validation and canonicalization are the same pass, so nothing
        un-buildable ever gets a digest.
        """
        spec = ComponentSpec.from_obj(obj)
        if spec.name not in self._entries and self._parse is not None:
            lowered = self._parse(spec.name)
            if lowered is not None:
                if spec.params:
                    raise ValueError(
                        f"legacy {self.kind} shorthand {spec.name!r} cannot "
                        f"take explicit params; use name "
                        f"{lowered.name!r} instead"
                    )
                spec = lowered
        entry = self._entries.get(spec.name)
        if entry is None:
            raise KeyError(
                f"unknown {self.kind} {spec.name!r}; known: "
                f"{', '.join(self.names())}"
            )
        given = spec.param_dict
        known = set(entry.defaults) | set(entry.required)
        unknown = set(given) - known
        if unknown:
            raise ValueError(
                f"{self.kind} {spec.name!r} got unknown param(s) "
                f"{sorted(unknown)}; accepts {sorted(known) or 'none'}"
            )
        missing = set(entry.required) - set(given)
        if missing:
            raise ValueError(
                f"{self.kind} {spec.name!r} missing required param(s) "
                f"{sorted(missing)}"
            )
        params: dict[str, Any] = {}
        for key, default in entry.defaults.items():
            params[key] = self._coerce(spec.name, key, given.get(key, default), type(default))
        for key, typ in entry.required.items():
            params[key] = self._coerce(spec.name, key, given[key], typ)
        return ComponentSpec.make(spec.name, params)

    def _coerce(self, name: str, key: str, value: Any, typ: type) -> Any:
        """Pin each param to its declared type so numerically-equal
        spellings (``2`` vs ``2.0``) cannot split the canonical digest."""
        if typ is bool:
            if not isinstance(value, bool):
                raise TypeError(f"{self.kind} {name!r} param {key!r} must be a bool")
            return value
        if typ is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{self.kind} {name!r} param {key!r} must be a number")
            return float(value)
        if typ is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{self.kind} {name!r} param {key!r} must be an integer")
            return int(value)
        if not isinstance(value, str):
            raise TypeError(f"{self.kind} {name!r} param {key!r} must be a string")
        return value

    # -- construction ---------------------------------------------------------
    def build(self, obj: ComponentSpec | str | Mapping[str, Any]) -> Any:
        """Instantiate a component from any accepted spelling."""
        spec = self.normalize(obj)
        entry = self._entries[spec.name]
        return entry.factory(**spec.param_dict)

    def describe(self, obj: ComponentSpec | str | Mapping[str, Any]) -> str:
        """Compact human label: the name plus only the params that differ
        from their registered defaults (required params always shown)."""
        spec = self.normalize(obj)
        entry = self._entries[spec.name]
        shown = {
            key: value
            for key, value in spec.param_dict.items()
            if key in entry.required or entry.defaults.get(key) != value
        }
        if not shown:
            return spec.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(shown.items()))
        return f"{spec.name}({inner})"

    # -- legacy lowering ------------------------------------------------------
    def legacy_name(self, obj: ComponentSpec | str | Mapping[str, Any]) -> str | None:
        """The old string key for this configuration, or ``None`` when the
        parameterization has no legacy spelling (then only spec-keyed
        paths can address it)."""
        spec = self.normalize(obj)
        if self._unparse is not None:
            name = self._unparse(spec)
            if name is not None:
                return name
        entry = self._entries[spec.name]
        if spec.param_dict == {**entry.defaults}:
            return spec.name
        return None


# -- predictor registry --------------------------------------------------------

_ML_KEY = re.compile(r"^ml:(sq|lin)-(sq|lin)-([a-z-]+)$")


def _parse_predictor(name: str) -> ComponentSpec | None:
    if re.fullmatch(r"ave\d+", name):
        return ComponentSpec.make("ave", {"k": int(name[3:])})
    if re.fullmatch(r"quantile[0-9.]+", name):
        return ComponentSpec.make("quantile", {"quantile": float(name[8:])})
    match = _ML_KEY.match(name)
    if match:
        return ComponentSpec.make(
            "ml",
            {"over": match.group(1), "under": match.group(2), "weight": match.group(3)},
        )
    return None


def _unparse_predictor(spec: ComponentSpec) -> str | None:
    params = spec.param_dict
    if spec.name == "ave":
        return f"ave{params['k']}"
    if spec.name == "ml":
        extras = {
            k: v for k, v in params.items() if k not in ("over", "under", "weight")
        }
        if extras != {"eta": 0.5, "l2": 1e-6, "target_scale": 3600.0, "forgetting": 1.0}:
            return None  # tuned hyperparameters have no legacy spelling
        return f"ml:{params['over']}-{params['under']}-{params['weight']}"
    if spec.name == "quantile" and params.get("eta") == 0.2:
        return f"quantile{params['quantile']:g}"
    return None


def _build_predictor_registry() -> ComponentRegistry:
    from ..predict.baselines import (
        ClairvoyantPredictor,
        RecentAveragePredictor,
        RequestedTimePredictor,
    )
    from ..predict.loss import LossSpec
    from ..predict.ml import MLPredictor
    from ..predict.quantile import QuantilePredictor

    registry = ComponentRegistry(
        "predictor", parse=_parse_predictor, unparse=_unparse_predictor
    )
    registry.register("requested", RequestedTimePredictor)
    registry.register("clairvoyant", ClairvoyantPredictor)
    registry.register("ave", RecentAveragePredictor, defaults={"k": 2})
    registry.register(
        "quantile", QuantilePredictor, defaults={"quantile": 0.25, "eta": 0.2}
    )

    long = {"sq": "squared", "lin": "linear"}

    def make_ml(over: str, under: str, weight: str, eta: float, l2: float,
                target_scale: float, forgetting: float) -> MLPredictor:
        if over not in long or under not in long:
            raise ValueError(
                f"ml branches must be 'sq' or 'lin', got over={over!r} under={under!r}"
            )
        return MLPredictor(
            LossSpec(over=long[over], under=long[under], weight=weight),
            eta=eta,
            l2=l2,
            target_scale=target_scale,
            forgetting=forgetting,
        )

    registry.register(
        "ml",
        make_ml,
        required={"over": str, "under": str, "weight": str},
        defaults={"eta": 0.5, "l2": 1e-6, "target_scale": 3600.0, "forgetting": 1.0},
    )
    return registry


# -- corrector registry --------------------------------------------------------


def _build_corrector_registry() -> ComponentRegistry:
    from ..correct.mechanisms import (
        IncrementalCorrector,
        RecursiveDoublingCorrector,
        RequestedTimeCorrector,
    )

    registry = ComponentRegistry("corrector")
    registry.register("requested", RequestedTimeCorrector)
    registry.register("incremental", IncrementalCorrector)
    registry.register("doubling", RecursiveDoublingCorrector)
    return registry


# -- scheduler registry --------------------------------------------------------

#: legacy "<base>-<order>" scheduler spellings (base name carries fcfs).
_SCHED_ORDERS = ("sjbf", "saf", "narrow")


def _parse_scheduler(name: str) -> ComponentSpec | None:
    for base in ("easy", "conservative", "multifactor", "legacy-easy", "legacy-conservative"):
        if name == base:
            return ComponentSpec.make(base)
        for order in _SCHED_ORDERS:
            if name == f"{base}-{order}":
                return ComponentSpec.make(base, {"order": order})
    return None


def _unparse_scheduler(spec: ComponentSpec) -> str | None:
    order = spec.param_dict.get("order")
    if order is None:
        return None
    if order == "fcfs":
        return spec.name
    return f"{spec.name}-{order}"


def _build_scheduler_registry() -> ComponentRegistry:
    from ..sched.base import Scheduler
    from ..sched.conservative import ConservativeScheduler
    from ..sched.easy import EasyScheduler
    from ..sched.fcfs import FcfsScheduler
    from ..sched.legacy import LegacyConservativeScheduler, LegacyEasyScheduler
    from ..sched.priority import MultifactorScheduler

    registry = ComponentRegistry(
        "scheduler", parse=_parse_scheduler, unparse=_unparse_scheduler
    )
    registry.register("fcfs", FcfsScheduler)
    registry.register(
        "easy", lambda order: EasyScheduler(order), defaults={"order": "fcfs"}
    )
    registry.register(
        "conservative",
        lambda order: ConservativeScheduler(order),
        defaults={"order": "fcfs"},
    )
    registry.register(
        "multifactor",
        lambda order: MultifactorScheduler(backfill_order=order),
        defaults={"order": "fcfs"},
    )
    def make_rl_backfill(policy: str, store: str) -> Scheduler:
        # lazy: only building a learned cell pays the repro.learn import
        # (and the checkpoint load); normalizing/digesting specs does not
        from ..learn import build_rl_scheduler

        return build_rl_scheduler(policy, store)

    registry.register(
        "rl-backfill",
        make_rl_backfill,
        required={"policy": str},
        defaults={"store": ""},
    )
    registry.register(
        "legacy-easy",
        lambda order: LegacyEasyScheduler(order),
        defaults={"order": "fcfs"},
    )
    registry.register(
        "legacy-conservative",
        lambda order: LegacyConservativeScheduler(order),
        defaults={"order": "fcfs"},
    )
    return registry


# -- workload filter registry --------------------------------------------------


def _build_filter_registry() -> ComponentRegistry:
    from ..workload import filters as wf

    registry = ComponentRegistry("filter")
    registry.register("drop-oversized", lambda: wf.drop_oversized)
    registry.register(
        "max-width",
        lambda processors: (
            lambda trace: trace.filter(
                lambda job: job.processors <= processors,
                name=f"{trace.name}/maxw{processors}",
            )
        ),
        required={"processors": int},
    )
    registry.register(
        "clamp-requested",
        lambda max_seconds: (lambda trace: wf.clamp_requested(trace, max_seconds)),
        required={"max_seconds": float},
    )
    registry.register(
        "drop-flurries",
        lambda user_jobs_per_hour: (
            lambda trace: wf.drop_flurries(trace, user_jobs_per_hour)
        ),
        defaults={"user_jobs_per_hour": 120.0},
    )
    return registry


# -- singletons ----------------------------------------------------------------

_REGISTRIES: dict[str, ComponentRegistry] = {}

_BUILDERS = {
    "predictor": _build_predictor_registry,
    "corrector": _build_corrector_registry,
    "scheduler": _build_scheduler_registry,
    "filter": _build_filter_registry,
}


def registry_for(kind: str) -> ComponentRegistry:
    """The process-wide registry of one component kind (lazily built, so
    importing :mod:`repro.spec` never drags in every component module)."""
    registry = _REGISTRIES.get(kind)
    if registry is None:
        try:
            builder = _BUILDERS[kind]
        except KeyError:
            raise KeyError(
                f"unknown component kind {kind!r}; known: {', '.join(_BUILDERS)}"
            ) from None
        registry = builder()
        _REGISTRIES[kind] = registry
    return registry


def predictor_registry() -> ComponentRegistry:
    return registry_for("predictor")


def corrector_registry() -> ComponentRegistry:
    return registry_for("corrector")


def scheduler_registry() -> ComponentRegistry:
    return registry_for("scheduler")


def filter_registry() -> ComponentRegistry:
    return registry_for("filter")
