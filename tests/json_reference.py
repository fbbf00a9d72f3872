"""The report encoding ``snckit.config_io.json_text`` writes in one
pass, as a plain recursive copy, kept only as a test oracle:
``json.dumps(encode_json_value(value), indent=2, ensure_ascii=False)``
is the text ``json_text(value)`` must produce.  Nothing under ``src/``
imports this module."""

from __future__ import annotations

from typing import Any

_I64 = 2 ** 63


def encode_json_value(value: Any) -> Any:
    """Recursively convert to JSON-safe data, rendering integers past
    64 bits as decimal strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _I64 else value
    if isinstance(value, dict):
        return {str(k): encode_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_json_value(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")
