"""Deterministic artifact IO.

CSV payloads are written with 17 significant digits, JSON with sorted
keys, so identical runs produce identical bytes.  Every payload gets a
checksummed .meta.json sidecar; the timestamp lives only there, never in
the payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from ..errors import CacheMismatch


def _format_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return "%d" % cell
    return "%.17g" % float(cell)


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:] if line]


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def meta_path(payload_path: str) -> str:
    return payload_path + ".meta.json"


def write_meta(payload_path: str, fields: dict) -> None:
    meta = dict(fields)
    meta["sha256"] = sha256_of(payload_path)
    meta["created_unix"] = time.time()
    write_json(meta_path(payload_path), meta)


def cache_state(payload_path: str, expect: dict) -> str:
    """'fresh' when payload + sidecar agree with `expect`, 'absent' when
    either file is missing.  Checksum or field mismatch raises: a cache
    that exists but cannot be trusted must never be silently reused or
    silently rebuilt."""
    mp = meta_path(payload_path)
    if not (os.path.exists(payload_path) and os.path.exists(mp)):
        return "absent"
    try:
        with open(mp) as fh:
            meta = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError):
        meta = None
    if not isinstance(meta, dict):
        raise CacheMismatch("unreadable cache sidecar %s" % mp)
    if meta.get("sha256") != sha256_of(payload_path):
        raise CacheMismatch("checksum mismatch for %s" % payload_path)
    for key, val in expect.items():
        if meta.get(key) != val:
            raise CacheMismatch(
                "stale cache %s: %s is %r, expected %r"
                % (payload_path, key, meta.get(key), val)
            )
    return "fresh"
