"""Text formats for instances, coreset dumps, and JSON reports.

Formats are versioned and diff-friendly.  The instance format is canonical:
loading a file and saving the result reproduces it byte for byte (floats are
written with ``repr``, the shortest round-tripping form).  A file that breaks
the layout its headers declare is rejected with a ValueError naming the line.
`coreset_to_text` writes a coreset dump, which `coreset_entries_from_text`
parses.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Callable, Sequence

import numpy as np

from .coreset import WeightedCoreset
from .metric import EuclideanOracle, MatrixOracle, MetricInstance, PointId

INSTANCE_MAGIC = "trimclust-instance v1"
CORESET_MAGIC = "trimclust-coreset v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _ids(ids: Sequence[int]) -> str:
    return ",".join(str(int(i)) for i in ids)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(i) for i in text.split(","))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def instance_to_text(inst: MetricInstance) -> str:
    lines = [INSTANCE_MAGIC]
    if isinstance(inst.dist, EuclideanOracle):
        coords = inst.dist.coords
        lines.append("format=euclidean")
        lines.append(f"dim={coords.shape[1]}")
        lines += [f"k={inst.k}", f"m={inst.m}", f"z={_fmt(inst.z)}"]
        lines.append(f"points={coords.shape[0]}")
        clients, facilities = set(inst.clients), set(inst.facilities)
        for i in range(coords.shape[0]):
            if i in clients and i in facilities:
                role = "both"
            elif i in clients:
                role = "client"
            elif i in facilities:
                role = "facility"
            else:
                role = "none"
            row = ",".join(_fmt(c) for c in coords[i])
            lines.append(f"{i},{role},{row}")
    elif isinstance(inst.dist, MatrixOracle):
        m = inst.dist.matrix
        lines.append("format=matrix")
        lines.append(f"n={m.shape[0]}")
        lines += [f"k={inst.k}", f"m={inst.m}", f"z={_fmt(inst.z)}"]
        lines.append(f"clients={_ids(inst.clients)}")
        lines.append(f"facilities={_ids(inst.facilities)}")
        for i in range(m.shape[0]):
            lines.append(" ".join(_fmt(m[i, j]) for j in range(i + 1)))
    else:
        raise TypeError(f"cannot serialize oracle of type {type(inst.dist).__name__}")
    return "\n".join(lines) + "\n"


def save_instance(inst: MetricInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_text(inst))


@contextmanager
def _on_line(idx: int):
    """Name 1-based line ``idx + 1`` in any ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {idx + 1}: {exc}") from None


def _header(lines: list[str], idx: int, key: str, parse: Callable[[str], Any] = str) -> Any:
    with _on_line(idx):
        line = lines[idx] if idx < len(lines) else None
        prefix = key + "="
        if line is None or not line.startswith(prefix):
            got = "end of file" if line is None else repr(line)
            raise ValueError(f"expected '{key}=...', got {got}")
        return parse(line[len(prefix):])


def _body(lines: list[str], start: int, rows: int, key: str) -> list[str]:
    """The ``rows`` lines from ``start`` on, which must end the file."""
    body = lines[start:]
    if len(body) != rows:
        line = start + min(len(body), rows) + 1
        raise ValueError(f"line {line}: {key}={rows}, but the file has {len(body)} rows")
    return body


def instance_from_text(text: str) -> MetricInstance:
    lines = text.splitlines()
    if not lines or lines[0] != INSTANCE_MAGIC:
        raise ValueError(f"not a {INSTANCE_MAGIC} file")
    fmt = _header(lines, 1, "format")
    if fmt == "euclidean":
        dim = _header(lines, 2, "dim", int)
        if dim < 1:
            raise ValueError(f"line 3: dim must be at least 1, got {dim}")
        k = _header(lines, 3, "k", int)
        m = _header(lines, 4, "m", int)
        z = _header(lines, 5, "z", float)
        n = _header(lines, 6, "points", int)
        rows, clients, facilities = [], [], []
        for pid, line in enumerate(_body(lines, 7, n, "points")):
            with _on_line(7 + pid):
                parts = line.split(",")
                if len(parts) != 2 + dim:
                    raise ValueError(f"expected id,role and {dim} coordinates, got {line!r}")
                if int(parts[0]) != pid:
                    raise ValueError(f"point ids must be 0..n-1 in order, got {parts[0]}")
                role = parts[1]
                if role not in ("client", "facility", "both", "none"):
                    raise ValueError(f"unknown role {role!r}")
                rows.append([float(c) for c in parts[2:]])
            if role in ("client", "both"):
                clients.append(pid)
            if role in ("facility", "both"):
                facilities.append(pid)
        coords = np.array(rows, dtype=float).reshape(n, dim)
        return MetricInstance(tuple(clients), tuple(facilities), EuclideanOracle(coords), k, m, z)
    if fmt == "matrix":
        n = _header(lines, 2, "n", int)
        k = _header(lines, 3, "k", int)
        m = _header(lines, 4, "m", int)
        z = _header(lines, 5, "z", float)
        clients = _header(lines, 6, "clients", _int_list)
        facilities = _header(lines, 7, "facilities", _int_list)
        body = _body(lines, 8, n, "n")
        mat = np.zeros((n, n))
        for i, line in enumerate(body):
            with _on_line(8 + i):
                vals = [float(v) for v in line.split()]
                if len(vals) != i + 1:
                    raise ValueError(f"matrix row {i} must have {i + 1} entries")
            mat[i, : i + 1] = vals
            mat[: i + 1, i] = vals
        return MetricInstance(clients, facilities, MatrixOracle(mat), k, m, z)
    raise ValueError(f"line 2: unknown format {fmt!r}")


def load_instance(path) -> MetricInstance:
    with open(path) as fh:
        return instance_from_text(fh.read())


# ---------------------------------------------------------------------------
# coreset dumps
# ---------------------------------------------------------------------------


def coreset_to_text(
    cs: WeightedCoreset,
    *,
    seed: int,
    R: float,
    phi: int,
    tau: float,
    baseline: Sequence[PointId],
) -> str:
    lines = [
        CORESET_MAGIC,
        f"seed={seed}",
        f"s={cs.sample_size}",
        f"R={_fmt(R)}",
        f"phi={phi}",
        f"tau={_fmt(tau)}",
        f"baseline={_ids(baseline)}",
        f"entries={len(cs.union)}",
    ]
    for (i, j), pid, w in zip(cs.entry_rings, cs.union.points, cs.union.weights):
        lines.append(f"{i},{j},{pid},{w}")
    return "\n".join(lines) + "\n"


def save_coreset(cs: WeightedCoreset, path, **header) -> None:
    with open(path, "w") as fh:
        fh.write(coreset_to_text(cs, **header))


def coreset_entries_from_text(text: str) -> tuple[dict[str, str], list[tuple[int, int, int, int]]]:
    """Header map plus (center, band, point, weight) rows of a dump."""
    lines = text.splitlines()
    if not lines or lines[0] != CORESET_MAGIC:
        raise ValueError(f"not a {CORESET_MAGIC} file")
    keys = ("seed", "s", "R", "phi", "tau", "baseline", "entries")
    header = {key: _header(lines, idx, key) for idx, key in enumerate(keys, start=1)}
    rows = []
    for idx, line in enumerate(_body(lines, 8, _header(lines, 7, "entries", int), "entries"), 8):
        with _on_line(idx):
            i, j, pid, w = line.split(",")
            rows.append((int(i), int(j), int(pid), int(w)))
    return header, rows


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def dump_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
