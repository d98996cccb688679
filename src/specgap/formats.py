"""Plain-text formatting shared by the CLI and the result-file writers."""

from __future__ import annotations

import json


def fmt(x: float) -> str:
    """17 significant digits, so every float64 round-trips exactly."""
    return f"{x:.17g}"


def write_json(path, payload: dict) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
