"""The JSON document codec of :class:`~repro.scenarios.spec.ScenarioSpec`.

A spec travels as JSON in scenario files, the service's submit payload
and the job store.  A registered scenario run reads none of it, so the
codec lives here and :class:`ScenarioSpec`'s ``to_dict``/``from_dict``/
``to_json``/``from_json`` import it on first use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Type, Union

from ..app import DutyCycle, NodeDeath, NodeSleep, Perturbation
from ..attacker import (
    AttackerSpec,
    AvoidRecentlyVisited,
    FollowAnyHeard,
    FollowFirstHeard,
)
from ..errors import ConfigurationError, invalid_field
from ..experiments import PROTECTIONLESS
from .spec import ScenarioSpec, TopologySpec


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, object]:
    """``spec`` as JSON-ready primitives (:func:`spec_from_dict` inverts
    it exactly — round-tripped specs compare equal)."""
    return {
        "name": spec.name,
        "description": spec.description,
        "topology": {
            "family": spec.topology.family,
            "size": spec.topology.size,
        },
        "algorithm": spec.algorithm,
        "search_distance": spec.search_distance,
        "attacker": (
            _attacker_to_dict(spec.attacker) if spec.attacker is not None else None
        ),
        "noise": spec.noise,
        "sources": list(spec.sources),
        "source_rotation_period": spec.source_rotation_period,
        "perturbations": [_perturbation_to_dict(p) for p in spec.perturbations],
        "repeats": spec.repeats,
        "base_seed": spec.base_seed,
        "max_periods": spec.max_periods,
    }


def spec_from_dict(cls: Type[ScenarioSpec], data: Dict[str, object]) -> ScenarioSpec:
    """Rebuild a ``cls`` spec from :func:`spec_to_dict` output (see
    :meth:`ScenarioSpec.from_dict`)."""
    if not isinstance(data, dict):
        raise invalid_field(
            "ScenarioSpec", "json", type(data).__name__,
            "a scenario document must be a JSON object",
        )
    known = {
        "name", "description", "topology", "algorithm",
        "search_distance", "attacker", "noise", "sources",
        "source_rotation_period", "perturbations", "repeats",
        "base_seed", "max_periods",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise invalid_field(
            "ScenarioSpec", "json", unknown,
            f"unknown field(s); known fields: {sorted(known)}",
        )
    topology = data.get("topology", {})
    if not isinstance(topology, dict):
        raise invalid_field(
            "ScenarioSpec", "topology", topology,
            "expected an object with family/size",
        )
    try:
        return cls(
            name=data.get("name", ""),
            topology=TopologySpec(
                family=topology.get("family", "grid"),
                size=topology.get("size", 11),
            ),
            description=data.get("description", ""),
            algorithm=data.get("algorithm", PROTECTIONLESS),
            search_distance=data.get("search_distance", 3),
            attacker=_attacker_from_dict(data.get("attacker")),
            noise=data.get("noise", "casino"),
            sources=tuple(data.get("sources", ("top-left",))),
            source_rotation_period=data.get("source_rotation_period"),
            perturbations=tuple(
                _perturbation_from_dict(p)
                for p in data.get("perturbations", ())
            ),
            repeats=data.get("repeats", 30),
            base_seed=data.get("base_seed", 0),
            max_periods=data.get("max_periods"),
        )
    except ConfigurationError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise invalid_field(
            "ScenarioSpec", "json", data.get("name", "<unnamed>"),
            f"malformed scenario document: {exc}",
        ) from exc


def spec_to_json(spec: ScenarioSpec, indent: Optional[int]) -> str:
    """``spec`` serialised as JSON (sorted keys)."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def spec_from_json(cls: Type[ScenarioSpec], text: str) -> ScenarioSpec:
    """Parse a :func:`spec_to_json` document back into a ``cls`` spec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise invalid_field(
            "ScenarioSpec", "json", f"{text[:40]!r}...",
            f"not valid JSON: {exc}",
        ) from exc
    return spec_from_dict(cls, data)


# ----------------------------------------------------------------------
# The attacker and perturbation vocabularies
# ----------------------------------------------------------------------

#: Decision functions a JSON spec may name (the ``D`` of the attacker
#: tuple).  All are parameter-free, so the class name is the whole
#: serialisation.
DECISION_FUNCTIONS = {
    "FollowFirstHeard": FollowFirstHeard,
    "FollowAnyHeard": FollowAnyHeard,
    "AvoidRecentlyVisited": AvoidRecentlyVisited,
}

#: Perturbation kinds a JSON spec may use, with their JSON field names.
PERTURBATION_KINDS = {
    "node-death": (NodeDeath, ("period", "nodes")),
    "node-sleep": (NodeSleep, ("period", "wake_period", "nodes")),
    "duty-cycle": (DutyCycle, ("nodes", "cycle_length", "sleep_for", "offset")),
}

_KIND_OF_PERTURBATION = {
    cls: kind for kind, (cls, _) in PERTURBATION_KINDS.items()
}


def _attacker_to_dict(attacker: AttackerSpec) -> Dict[str, object]:
    return {
        "messages_per_move": attacker.messages_per_move,
        "history_size": attacker.history_size,
        "moves_per_period": attacker.moves_per_period,
        "decision": attacker.decision.name,
    }


def _attacker_from_dict(data: object) -> Optional[AttackerSpec]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise invalid_field(
            "ScenarioSpec", "attacker", data,
            "expected null or an object with R/H/M/decision fields",
        )
    decision_name = data.get("decision", "FollowFirstHeard")
    try:
        decision_cls = DECISION_FUNCTIONS[decision_name]
    except KeyError:
        raise invalid_field(
            "ScenarioSpec", "attacker", decision_name,
            f"unknown decision function; pick one of "
            f"{sorted(DECISION_FUNCTIONS)}",
        ) from None
    return AttackerSpec(
        messages_per_move=data.get("messages_per_move", 1),
        history_size=data.get("history_size", 0),
        moves_per_period=data.get("moves_per_period", 1),
        decision=decision_cls(),
    )


def _perturbation_to_dict(perturbation: Perturbation) -> Dict[str, object]:
    kind = _KIND_OF_PERTURBATION.get(type(perturbation))
    if kind is None:
        raise invalid_field(
            "ScenarioSpec", "perturbations", type(perturbation).__name__,
            f"not JSON-serialisable; known kinds: {sorted(PERTURBATION_KINDS)}",
        )
    _, field_names = PERTURBATION_KINDS[kind]
    payload: Dict[str, object] = {"kind": kind}
    for name in field_names:
        value = getattr(perturbation, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    return payload


def _perturbation_from_dict(data: object) -> Perturbation:
    if not isinstance(data, dict) or "kind" not in data:
        raise invalid_field(
            "ScenarioSpec", "perturbations", data,
            "each perturbation must be an object with a 'kind' field",
        )
    kind = data["kind"]
    try:
        cls, field_names = PERTURBATION_KINDS[kind]
    except KeyError:
        raise invalid_field(
            "ScenarioSpec", "perturbations", kind,
            f"unknown perturbation kind; pick one of "
            f"{sorted(PERTURBATION_KINDS)}",
        ) from None
    unknown = sorted(set(data) - {"kind"} - set(field_names))
    if unknown:
        raise invalid_field(
            "ScenarioSpec", "perturbations", unknown,
            f"unknown field(s) for kind {kind!r}; "
            f"known: {sorted(field_names)}",
        )
    kwargs = {}
    for name in field_names:
        if name in data:
            value = data[name]
            kwargs[name] = tuple(value) if name == "nodes" else value
    try:
        return cls(**kwargs)
    except ConfigurationError:
        raise
    except TypeError as exc:
        raise invalid_field(
            "ScenarioSpec", "perturbations", kind,
            f"missing or malformed fields: {exc}",
        ) from exc


def load_scenario_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a JSON document on disk.

    The CLI's ``scenario run path/to/spec.json`` entry point and the
    file half of the experiment service's submit payload.  Unreadable
    files and malformed documents both raise
    :class:`~repro.errors.ConfigurationError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise invalid_field(
            "ScenarioSpec", "path", str(path), f"cannot read spec file: {exc}"
        ) from exc
    return ScenarioSpec.from_json(text)
