"""Text formats for instances, colors, matroids, coresets, and JSON reports.

Formats are versioned, diff-friendly, and canonical: loading a file and saving
the result reproduces the file byte for byte (floats are written with
``repr``, the shortest round-tripping form).
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from .coreset import WeightedCoreset
from .extensions import ColorfulInstance
from .matroids import ExplicitMatroid, MatroidOracle, PartitionMatroid, UniformMatroid
from .metric import EuclideanOracle, MatrixOracle, MetricInstance, PointId

INSTANCE_MAGIC = "trimclust-instance v1"
COLORS_MAGIC = "trimclust-colors v1"
MATROID_MAGIC = "trimclust-matroid v1"
CORESET_MAGIC = "trimclust-coreset v1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _ids(ids: Sequence[int]) -> str:
    return ",".join(str(int(i)) for i in ids)


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


def _header(lines: list[str], idx: int, key: str) -> str:
    line = lines[idx]
    prefix = key + "="
    if not line.startswith(prefix):
        raise ValueError(f"expected '{key}=...' on line {idx + 1}, got {line!r}")
    return line[len(prefix):]


def instance_from_text(text: str) -> MetricInstance:
    lines = text.splitlines()
    if not lines or lines[0] != INSTANCE_MAGIC:
        raise ValueError(f"not a {INSTANCE_MAGIC} file")
    fmt = _header(lines, 1, "format")
    if fmt == "euclidean":
        dim = int(_header(lines, 2, "dim"))
        k = int(_header(lines, 3, "k"))
        m = int(_header(lines, 4, "m"))
        z = float(_header(lines, 5, "z"))
        n = int(_header(lines, 6, "points"))
        coords = np.zeros((n, dim))
        clients, facilities = [], []
        for row, line in enumerate(lines[7 : 7 + n]):
            parts = line.split(",")
            pid = int(parts[0])
            if pid != row:
                raise ValueError(f"point ids must be 0..n-1 in order, got {pid}")
            role = parts[1]
            coords[row] = [float(c) for c in parts[2 : 2 + dim]]
            if role in ("client", "both"):
                clients.append(pid)
            if role in ("facility", "both"):
                facilities.append(pid)
            if role not in ("client", "facility", "both", "none"):
                raise ValueError(f"unknown role {role!r}")
        return MetricInstance(tuple(clients), tuple(facilities), EuclideanOracle(coords), k, m, z)
    if fmt == "matrix":
        n = int(_header(lines, 2, "n"))
        k = int(_header(lines, 3, "k"))
        m = int(_header(lines, 4, "m"))
        z = float(_header(lines, 5, "z"))
        clients = tuple(int(i) for i in _header(lines, 6, "clients").split(","))
        facilities = tuple(int(i) for i in _header(lines, 7, "facilities").split(","))
        mat = np.zeros((n, n))
        for i, line in enumerate(lines[8 : 8 + n]):
            vals = [float(v) for v in line.split()]
            if len(vals) != i + 1:
                raise ValueError(f"matrix row {i} must have {i + 1} entries")
            mat[i, : i + 1] = vals
            mat[: i + 1, i] = vals
        return MetricInstance(clients, facilities, MatrixOracle(mat), k, m, z)
    raise ValueError(f"unknown format {fmt!r}")


def load_instance(path) -> MetricInstance:
    with open(path) as fh:
        return instance_from_text(fh.read())


# ---------------------------------------------------------------------------
# colors
# ---------------------------------------------------------------------------


def colors_to_text(colors: dict[PointId, int], budgets: Sequence[int]) -> str:
    lines = [COLORS_MAGIC, f"budgets={_ids(budgets)}"]
    for p in sorted(colors):
        lines.append(f"{p},{colors[p]}")
    return "\n".join(lines) + "\n"


def save_colors(cinst: ColorfulInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(colors_to_text(cinst.colors, cinst.budgets))


def colors_from_text(text: str) -> tuple[dict[PointId, int], tuple[int, ...]]:
    lines = text.splitlines()
    if not lines or lines[0] != COLORS_MAGIC:
        raise ValueError(f"not a {COLORS_MAGIC} file")
    budgets = tuple(int(b) for b in _header(lines, 1, "budgets").split(","))
    colors: dict[PointId, int] = {}
    for line in lines[2:]:
        if not line:
            continue
        pid, col = line.split(",")
        colors[int(pid)] = int(col)
    return colors, budgets


def load_colors(path) -> tuple[dict[PointId, int], tuple[int, ...]]:
    with open(path) as fh:
        return colors_from_text(fh.read())


# ---------------------------------------------------------------------------
# matroids
# ---------------------------------------------------------------------------


def matroid_to_text(matroid: MatroidOracle) -> str:
    lines = [MATROID_MAGIC]
    if isinstance(matroid, UniformMatroid):
        lines.append("kind=uniform")
        lines.append(f"ground={_ids(matroid.ground_set)}")
        lines.append(f"rank={matroid.rank}")
    elif isinstance(matroid, PartitionMatroid):
        lines.append("kind=partition")
        for ids, cap in matroid.parts:
            lines.append(f"part={cap}:{_ids(ids)}")
    elif isinstance(matroid, ExplicitMatroid):
        lines.append("kind=explicit")
        lines.append(f"ground={_ids(matroid.ground_set)}")
        for s in sorted(matroid._sets, key=lambda fs: (len(fs), sorted(fs))):
            if s:
                lines.append(f"set={_ids(sorted(s))}")
    else:
        raise TypeError(f"cannot serialize matroid of type {type(matroid).__name__}")
    return "\n".join(lines) + "\n"


def save_matroid(matroid: MatroidOracle, path) -> None:
    with open(path, "w") as fh:
        fh.write(matroid_to_text(matroid))


def matroid_from_text(text: str) -> MatroidOracle:
    lines = text.splitlines()
    if not lines or lines[0] != MATROID_MAGIC:
        raise ValueError(f"not a {MATROID_MAGIC} file")
    kind = _header(lines, 1, "kind")
    if kind == "uniform":
        ground = [int(i) for i in _header(lines, 2, "ground").split(",")]
        rank = int(_header(lines, 3, "rank"))
        return UniformMatroid(ground, rank)
    if kind == "partition":
        parts = []
        for line in lines[2:]:
            if not line:
                continue
            payload = _header([line], 0, "part")
            cap, ids = payload.split(":")
            parts.append(([int(i) for i in ids.split(",")], int(cap)))
        return PartitionMatroid(parts)
    if kind == "explicit":
        ground = [int(i) for i in _header(lines, 2, "ground").split(",")]
        sets = []
        for line in lines[3:]:
            if not line:
                continue
            payload = _header([line], 0, "set")
            sets.append([int(i) for i in payload.split(",")])
        return ExplicitMatroid(ground, sets)
    raise ValueError(f"unknown matroid kind {kind!r}")


def load_matroid(path) -> MatroidOracle:
    with open(path) as fh:
        return matroid_from_text(fh.read())


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
    header: dict[str, str] = {}
    idx = 1
    for key in ("seed", "s", "R", "phi", "tau", "baseline", "entries"):
        header[key] = _header(lines, idx, key)
        idx += 1
    rows = []
    for line in lines[idx:]:
        if not line:
            continue
        i, j, pid, w = line.split(",")
        rows.append((int(i), int(j), int(pid), int(w)))
    return header, rows


def coreset_parts_to_text(
    header: dict[str, str], rows: list[tuple[int, int, int, int]]
) -> str:
    """Re-serialize a parsed dump; round-trips `coreset_entries_from_text` exactly."""
    lines = [CORESET_MAGIC]
    for key in ("seed", "s", "R", "phi", "tau", "baseline", "entries"):
        lines.append(f"{key}={header[key]}")
    for i, j, pid, w in rows:
        lines.append(f"{i},{j},{pid},{w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def dump_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
