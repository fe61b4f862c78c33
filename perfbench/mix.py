"""The benchmark's own query mix, drawn from a store's index.

Kept here rather than imported from ``repro.bench.loadgen`` so that a
change to the program cannot change the load it is measured under.
"""

from __future__ import annotations

import json
import random

#: relative draw weights: mostly points-to and alias, a sprinkle of
#: MOD/REF and call-graph questions (the shape of the §7 clients)
MIX = {
    "points_to": 6,
    "alias": 3,
    "modref": 1,
    "pointed_by": 1,
    "callees": 1,
    "callers": 1,
    "reaches": 1,
}


def request_pool(store: dict) -> list[dict]:
    """Every request the mix can draw, in a fixed order; each names real
    procedures and variables so no request takes an error path."""
    procs = store["index"]["procedures"]
    names = sorted(procs)
    pool = []
    for proc in names:
        variables = sorted(procs[proc]["vars"])
        pool += [{"op": "points_to", "var": v, "proc": proc} for v in variables]
        pool += [
            {"op": "alias", "a": a, "b": b, "proc": proc}
            for a, b in zip(variables, variables[1:])
        ]
        pool += [{"op": op, "proc": proc} for op in ("modref", "callees", "callers")]
        if proc != names[0]:
            pool.append({"op": "reaches", "src": names[0], "dst": proc})
    pool += [
        {"op": "pointed_by", "name": name}
        for name in sorted(store["index"]["pointed_by"])
    ]
    return pool


class Stream:
    """An endless seeded sequence of pool indices following :data:`MIX`."""

    def __init__(self, pool: list[dict], seed) -> None:
        by_op: dict[str, list[int]] = {}
        for i, req in enumerate(pool):
            by_op.setdefault(req["op"], []).append(i)
        self._ops = [op for op in MIX if op in by_op]
        self._weights = [MIX[op] for op in self._ops]
        self._by_op = by_op
        self._rng = random.Random(f"mix:{seed}")

    def next(self) -> int:
        op = self._rng.choices(self._ops, self._weights)[0]
        return self._rng.choice(self._by_op[op])


def spec(request: dict) -> str:
    """The ``repro query`` command-line form of a request."""
    op = request["op"]
    if op == "points_to":
        return f"points-to {request['var']}@{request['proc']}"
    if op == "alias":
        return f"alias {request['a']} {request['b']}@{request['proc']}"
    if op == "pointed_by":
        return f"pointed-by {request['name']}"
    if op == "reaches":
        return f"reaches {request['src']} {request['dst']}"
    return f"{op} {request['proc']}"


def canonical(answer) -> str:
    return json.dumps(answer, sort_keys=True)
