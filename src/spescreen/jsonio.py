"""Strict JSON output shared by the stage writers."""

from __future__ import annotations

import json
import os


def write_json(path, payload, **dumps_kwargs):
    """Write `payload` as JSON, formatted by `json.dumps(**dumps_kwargs)`.

    A NaN or infinity cannot be written as JSON: it raises
    FloatingPointError (a numerical failure, exit 3 at the CLI), and the
    file is left unwritten.
    """
    try:
        text = json.dumps(payload, allow_nan=False, **dumps_kwargs)
    except ValueError as exc:
        raise FloatingPointError(f"{os.path.basename(path)}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
