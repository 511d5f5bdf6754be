"""Experiment cells in their one form: the unit of work everywhere.

A cell is an experiment named ``module:qualname`` plus its normalized
params, and :func:`repro.obs.cellcache.cell_key` over that pair is its
one identity.  Every entry point builds that form where the cell
enters, then runs, keys and records the cell with it: the CLI verbs
(:func:`repro.obs.manifest.run_recorded`), every experiment's fan-out
(:func:`repro.parallel.starmap_kwargs`), and ``repro run`` and the
experiment service (:mod:`repro.service`), which accept cells as plain
JSON (:func:`cell_from_wire`).  Two spellings that *mean* the same cell
must therefore normalize to the same parameter dict: without
normalization, ``{"tau": 740}`` and ``{"tau": 740.0, "preemptions":
1000}`` would be two different keys for one simulation, and a cell a
figure computed would miss when the service or a ``repro run`` sweep
asked for it again.

Normalization rules (:func:`normalize_params`):

* the experiment name canonicalizes to ``module:qualname`` — the same
  identity the parallel runner stores cells under, so a cell submitted
  by verb (``"resolution"``) dedupes against a cell a ``--jobs`` sweep
  already cached;
* **defaults are filled in** from the experiment function's signature:
  a defaulted-and-omitted parameter keys identically to the same value
  passed explicitly;
* an int provided where the signature says float — a float default,
  or a ``float`` annotation for required parameters like ``tau`` — is
  coerced (``740`` → ``740.0``), because JSON clients routinely drop
  the ``.0``; so are the int elements of a ``Sequence[float]``
  parameter (``taus=[440, 740]`` → ``[440.0, 740.0]``), because a
  composite derives its cells' seeds from those values; bools are
  never coerced (``True`` is not ``1.0``);
* ``jobs`` is execution-only: it never enters a cell's params, so a
  composite keys alike at any ``--jobs`` and a ``jobs`` sent on the
  wire runs the composite with its default (``REPRO_JOBS``, else
  serial);
* unknown parameter names are rejected up front (a typo must fail the
  request, not silently simulate the default and cache it under a key
  containing the typo);
* **structured parameters canonicalize through the experiment's own
  rules**: an experiment function may carry a ``__wire_canonical__``
  attribute mapping parameter name → canonicalizer.  The canonicalizer
  runs on the supplied value *and* on the filled default, so every
  spelling of the same structured value — ``"leash"`` vs
  ``{"policy": "leash"}`` vs the fully-defaulted kwargs dict, or
  ``None`` vs ``"none"`` vs ``"baseline"`` — keys identically, and a
  malformed spec fails the request instead of minting a junk key.
  ``run_defense_grid`` canonicalizes its ``defenses`` list spec by
  spec this way, and the mitigation policies' constructor kwargs
  normalize through these same rules
  (:func:`repro.mitigations.policy.canonical_mitigation`).

Parameter *values* travel in the manifest's sanitized encoding
(:func:`repro.obs.manifest._sanitize` — enums as ``{"__enum__": ...}``,
bytes as hex), so anything a manifest can replay, the wire can carry.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.obs.manifest import _restore, _sanitize, resolve_experiment

__all__ = [
    "WireCell",
    "WireError",
    "canonical_experiment",
    "normalize_params",
    "cell_from_wire",
    "cell_to_wire",
    "grid_cells",
]


class WireError(ValueError):
    """A request names an unknown experiment or malformed parameters."""


@dataclass(frozen=True)
class WireCell:
    """One normalized, executable experiment cell.

    ``experiment`` is canonical (``module:qualname``); ``params`` are
    restored Python values with every signature default filled in, so
    ``cell_key(experiment, params)`` is *the* dedupe identity: equal
    cells — however they were spelled on the wire — have equal keys.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)


def canonical_experiment(name: str) -> Tuple[str, Callable[..., Any]]:
    """Resolve a registry verb or ``repro.module:qualname`` path to the
    canonical cell identity and its callable."""
    try:
        fn = resolve_experiment(name)
    except (KeyError, ValueError, TypeError, ImportError,
            AttributeError) as exc:
        raise WireError(str(exc)) from exc
    return f"{fn.__module__}:{fn.__qualname__}", fn


def _wants_float(parameter: inspect.Parameter) -> bool:
    """Whether the signature declares this parameter a float — via its
    default value, or via a ``float`` annotation when there is no
    default (``tau``, the usual required parameter).  Annotations may
    be strings under ``from __future__ import annotations``."""
    default = parameter.default
    if isinstance(default, float) and not isinstance(default, bool):
        return True
    annotation = parameter.annotation
    return annotation is float or annotation == "float"


def _wants_floats(parameter: inspect.Parameter) -> bool:
    """Whether the signature declares this parameter a float sequence
    (``Sequence[float]``: the swept τ, compute and slice values)."""
    annotation = parameter.annotation
    return annotation == "Sequence[float]" or annotation == Sequence[float]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_params(fn: Callable[..., Any],
                     params: Mapping[str, Any]) -> Dict[str, Any]:
    """Fill signature defaults, coerce int→float against the signature
    (defaults and annotations, float sequences elementwise), run the
    function's ``__wire_canonical__`` canonicalizers and leave ``jobs``
    out.

    ``fn`` is an experiment function or a mitigation policy class.
    The result is the params a cell runs, keys and records with: every
    entry point calls ``fn`` with exactly this dict, so ``740`` keys
    *and runs* as ``740.0``, and a cache hit is bit-identical to a
    recompute whichever entry point stored it.  Raises
    :class:`WireError` for unknown or missing-required parameters so a
    bad request can never be keyed (and cached) as if it were a real
    cell.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError) as exc:  # builtins without signatures
        raise WireError(f"cannot introspect {fn!r}: {exc}") from exc
    accepted = {}
    has_var_kwargs = False
    for pname, parameter in sig.parameters.items():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            has_var_kwargs = True
            continue
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        accepted[pname] = parameter
    unknown = sorted(set(params) - set(accepted))
    if unknown and not has_var_kwargs:
        raise WireError(
            f"unknown parameter(s) {unknown} for {fn.__module__}:"
            f"{fn.__qualname__}; accepted: {sorted(accepted)}"
        )
    canonicalizers = getattr(fn, "__wire_canonical__", None) or {}
    normalized: Dict[str, Any] = {}
    for pname, parameter in accepted.items():
        if pname == "jobs":
            continue  # execution-only: never part of a cell
        if pname in params:
            value = params[pname]
            if _is_int(value):
                if _wants_float(parameter):
                    value = float(value)
            elif isinstance(value, (list, tuple)) and _wants_floats(parameter):
                value = type(value)(float(v) if _is_int(v) else v
                                    for v in value)
        elif parameter.default is not inspect.Parameter.empty:
            value = parameter.default
        else:
            raise WireError(
                f"missing required parameter {pname!r} for "
                f"{fn.__module__}:{fn.__qualname__}"
            )
        if pname in canonicalizers:
            # Canonicalize the default too: an omitted structured param
            # must key identically to its explicit canonical spelling.
            try:
                value = canonicalizers[pname](value)
            except (ValueError, TypeError, KeyError) as exc:
                raise WireError(
                    f"invalid value for parameter {pname!r} of "
                    f"{fn.__module__}:{fn.__qualname__}: {exc}"
                ) from exc
        normalized[pname] = value
    for pname in set(params) - set(accepted):  # **kwargs passthrough
        normalized[pname] = params[pname]
    return normalized


def cell_from_wire(obj: Mapping[str, Any]) -> WireCell:
    """Build a normalized :class:`WireCell` from one wire dict.

    Expected shape: ``{"experiment": str, "params": {...}}`` with
    parameter values in the manifest's sanitized JSON encoding.
    """
    if not isinstance(obj, Mapping):
        raise WireError(f"cell must be an object, got {type(obj).__name__}")
    name = obj.get("experiment")
    if not isinstance(name, str) or not name:
        raise WireError("cell is missing its 'experiment' name")
    raw = obj.get("params", {})
    if not isinstance(raw, Mapping):
        raise WireError("'params' must be an object")
    canonical, fn = canonical_experiment(name)
    try:
        restored = {str(k): _restore(v) for k, v in raw.items()}
    except (ValueError, TypeError, AttributeError, ImportError,
            KeyError) as exc:
        raise WireError(f"unrestorable parameter value: {exc}") from exc
    return WireCell(canonical, normalize_params(fn, restored))


def cell_to_wire(cell: WireCell) -> Dict[str, Any]:
    """The JSON-safe wire dict for one cell (sanitized param values)."""
    return {
        "experiment": cell.experiment,
        "params": {k: _sanitize(v) for k, v in cell.params.items()},
    }


def grid_cells(
    experiment: str,
    sweep: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] = (),
) -> List[WireCell]:
    """The cartesian product of ``sweep`` over ``base`` as cells.

    This is the overlapping-grid shape the service is built for: many
    users submitting products of small axis lists.  Axes expand in
    sorted-name order and values in the order given, so the same grid
    spec always yields the same cell order (and therefore the same
    wire bytes).
    """
    canonical, fn = canonical_experiment(experiment)
    axes = sorted(sweep)
    combos = itertools.product(*(list(sweep[axis]) for axis in axes))
    cells = []
    for combo in combos:
        params = dict(base)
        params.update(zip(axes, combo))
        cells.append(WireCell(canonical, normalize_params(fn, params)))
    return cells
