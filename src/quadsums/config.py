"""Run configuration: flat key=value files with dotted sections.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored. Dotted keys group related settings (grid.policy, out.csv). Unknown
keys are rejected with their file location; command-line flags override file
values, which override the defaults below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction


def _to_int(text: str) -> int:
    return int(text, 0)


def _to_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _to_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


# config key -> (RunConfig field, converter)
KNOWN_KEYS = {
    "form": ("form", str),
    "family": ("family", str),
    "seed": ("seed", _to_int),
    "s": ("s", _to_int),
    "N": ("N", _to_int),
    "N_list": ("N_list", _to_int_list),
    "p": ("p", float),
    "C": ("C", float),
    "c1": ("c1", Fraction),
    "grid.policy": ("grid_policy", str),
    "grid.max_cells": ("max_cells", _to_int),
    "grid.m_alpha": ("m_alpha", _to_int),
    "grid.m_theta": ("m_theta", _to_int),
    "offsets": ("offsets", _to_int),
    "levels": ("levels", _to_int),
    "lambdas": ("lambdas", _to_float_list),
    "measure": ("measure", str),
    "tolerance.slope": ("slope_tol", float),
    "samples": ("samples", _to_int),
    "Q": ("Q", _to_int),
    "q_max": ("q_max", _to_int),
    "m_cut": ("m_cut", _to_int),
    "count": ("count", _to_int),
    "a": ("a", _to_int),
    "q": ("q", _to_int),
    "out.csv": ("out_csv", str),
    "out.json": ("out_json", str),
}


@dataclass
class RunConfig:
    """Merged settings for one CLI invocation (defaults < config file < flags)."""

    subcommand: str = ""
    form: str | None = None
    family: str = "ones"
    seed: int = 0
    s: int = 1
    N: int | None = None
    N_list: tuple[int, ...] | None = None
    p: float = 4.0
    C: float = 1.0
    c1: Fraction | None = None  # None -> MollifierFamily default
    grid_policy: str = "budgeted"
    max_cells: int = 50_000_000
    m_alpha: int | None = None
    m_theta: int | None = None
    offsets: int = 3
    levels: int = 16
    lambdas: tuple[float, ...] | None = None
    measure: str = "truncated"
    slope_tol: float = 0.75
    samples: int = 10_000
    Q: int | None = None
    q_max: int = 4
    m_cut: int = 3
    count: int = 20
    a: int = 1
    q: int = 1
    out_csv: str | None = None
    out_json: str | None = None

    def apply(self, updates: dict) -> None:
        names = {f.name for f in fields(self)}
        for key, value in updates.items():
            if key not in names:
                raise ValueError(f"no RunConfig field named {key!r}")
            setattr(self, key, value)


def parse_config_text(text: str, origin: str = "config") -> dict:
    """Parse config content into {field_name: typed value}; errors carry
    origin:line locations."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(
                f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ValueError(f"{origin}:{lineno}: unknown config key {key!r}")
        field_name, convert = KNOWN_KEYS[key]
        try:
            out[field_name] = convert(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"{origin}:{lineno}: bad value for {key!r}: {exc}"
            ) from None
    return out


def parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), origin=path)
