"""Run records: the replayable result of one seeded run, and its JSON form.

This module imports no numpy and no dataclasses, so `newssim stats` can read
a plan's records without loading the simulation. `RunRecord.from_dict`
refuses a malformed record with a ValueError that names the bad key.
"""

from __future__ import annotations

import json
import typing

RECORD_FORMAT = 4
AGENT_COLUMNS = ("reach_day", "reached_by", "decision")

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: str(i) at index i for i from 0 up, and "-1" at index -1; grown on demand
_decimals = ["0", "1", "-1"]


def _int_array(column) -> str:
    """An agent column as JSON, as json.dumps writes its list. A numpy
    integer column is looked up in the `_decimals` table through its own
    buffer, which builds no list of Python ints and no per-integer string;
    one holding a value the table lacks is written through its list.
    """
    if isinstance(column, list):
        return _dumps(column)
    global _decimals
    if len(_decimals) <= len(column):
        _decimals = [*map(str, range(len(column))), "-1"]
    table = _decimals
    if len(column) and (column.min() < -1 or column.max() >= len(table) - 1):
        return _dumps(column.tolist())
    return "[" + ",".join(map(table.__getitem__, memoryview(column))) + "]"


def _field(d, *path):
    """d[path[0]][path[1]]...; a ValueError names the path a record lacks."""
    for key in path:
        if not isinstance(d, dict) or key not in d:
            raise ValueError(f"run record has no {'.'.join(path)!r}")
        d = d[key]
    return d


_ENTRY_TYPES = {"integers": {int}, "numbers": {int, float}}  # bools are neither


def _list_of(d, kind: str, *path) -> list:
    """The list at d's path; a ValueError names the column unless it holds only `kind`."""
    column = _field(d, *path)
    if not isinstance(column, list) or not set(map(type, column)) <= _ENTRY_TYPES[kind]:
        raise ValueError(f"run record column {'.'.join(path)} is not a list of {kind}")
    return column


def _by_agent(d, key: str) -> dict[int, str]:
    """d[key] keyed by int agent id; a ValueError names `key` unless it is an
    object whose keys are decimal agent ids and whose values are strings."""
    column = _field(d, key)
    if not (isinstance(column, dict)
            and all(isinstance(agent, str) and agent.isascii() and agent.isdecimal()
                    and isinstance(text, str) for agent, text in column.items())):
        raise ValueError(f"run record {key} is not an object of decimal agent ids to strings")
    return {int(agent): text for agent, text in column.items()}


def _typed(d, key: str, kind: type):
    """d[key]; a ValueError names `key` unless it is a `kind`."""
    value = _field(d, key)
    if not isinstance(value, kind):
        raise ValueError(f"run record {key} is not a {kind.__name__}")
    return value


class RunRecord(typing.NamedTuple):
    """Replayable result of one seeded run.

    `meta` holds the run's `labels` and seeds, and the `config_sha` that keys
    its cell config in plan.json's `configs`. Its size grows with the number
    of agents, not edges: the per-agent columns reach_day, reached_by and
    decision (see engine.DiffusionState), the comments and LLM transcript keys
    by agent id, and the seed and intervention events. A decider decided on
    the day after its reach_day. Repeat deliveries are not stored; they follow
    from the network's adjacency, the decisions and the blocking_applied event.
    A record the engine builds holds its agent columns as the run's 1-D
    numpy integer rows of the engine's state; a record read by from_json
    holds them as lists of the same values.
    """

    meta: dict
    reached_prop: list[float]
    forwarded_prop: list[float]
    reach_day: list[int]
    reached_by: list[int]
    decision: list[int]
    comments: dict[int, str]
    transcripts: dict[int, str]
    events: list[dict]
    effective: bool
    taints: list[str]

    @property
    def labels(self) -> dict:
        """meta's labels: what stats.aggregate_experiment groups the record by."""
        return self.meta.get("labels", {})

    def first_reached_by_day(self) -> dict[int, set[int]]:
        layers: dict[int, set[int]] = {}
        for agent, day in enumerate(self.reach_day):
            if day >= 0:
                layers.setdefault(day, set()).add(agent)
        return layers

    def to_dict(self) -> dict:
        return {
            "format": RECORD_FORMAT,
            "meta": self.meta,
            "series": {
                "reached_prop": self.reached_prop,
                "forwarded_prop": self.forwarded_prop,
            },
            "agents": {name: getattr(self, name) for name in AGENT_COLUMNS},
            "comments": self.comments,
            "transcripts": self.transcripts,
            "events": self.events,
            "effective": self.effective,
            "taints": self.taints,
        }

    def to_json(self) -> str:
        """One line: json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":")) of the record with list columns, and "\\n"."""
        fields = self.to_dict()
        agents = fields.pop("agents")
        columns = ",".join(f'"{name}":{_int_array(agents[name])}' for name in sorted(agents))
        # "agents" sorts before every other key, so it leads the object
        return '{"agents":{' + columns + "}," + _dumps(fields)[1:] + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Read a format-4 record; a ValueError names what is missing or malformed."""
        found = d.get("format") if isinstance(d, dict) else None
        if found != RECORD_FORMAT:
            raise ValueError(
                f"run record format {found!r} is not supported (expected {RECORD_FORMAT})"
            )
        columns = {name: _list_of(d, "integers", "agents", name) for name in AGENT_COLUMNS}
        n = len(columns["reach_day"])
        for name, column in columns.items():
            if len(column) != n:
                raise ValueError(f"run record column agents.{name} has {len(column)} "
                                 f"entries, agents.reach_day has {n}")
        if not set(columns["decision"]) <= {-1, 0, 1}:
            raise ValueError("run record column agents.decision holds a value outside -1/0/1")
        if not (isinstance(_field(d, "meta", "config_sha"), str)
                and isinstance(_field(d, "meta", "labels"), dict)):
            raise ValueError("run record meta needs a config_sha string and a labels mapping")
        return cls(
            meta=_field(d, "meta"),
            reached_prop=_list_of(d, "numbers", "series", "reached_prop"),
            forwarded_prop=_list_of(d, "numbers", "series", "forwarded_prop"),
            **columns,
            comments=_by_agent(d, "comments"),
            transcripts=_by_agent(d, "transcripts"),
            events=_typed(d, "events", list),
            effective=_typed(d, "effective", bool),
            taints=_typed(d, "taints", list),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))
