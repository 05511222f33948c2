"""Run configuration: flat key=value files with dotted sections.

Format: one `key = value` per line, `#` starts a comment, blank lines are
ignored. Dotted keys group related settings (grid.policy, out.csv). Unknown
keys are rejected with their file location; command-line flags override file
values, which override the defaults below.

Each RunConfig field that is a run option declares it once, in its field
metadata: the converter and the choices that its config key and its flag
share, and the key or flag where they differ from the field name. The
config keys here and the CLI's flags are both read off those declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .scaling import FAMILIES, GRID_POLICIES, MEASURES


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip() != "")


def fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:  # "1/0": argparse catches only ValueError
        raise ValueError(str(exc)) from None


def _option(default, convert=str, *, choices=None, key=None, flag=None, help=None):
    """A run option: config key `key` (default: the field name) and flag
    `flag` (default: --field-name), both read by `convert` and checked
    against `choices`."""
    meta = dict(convert=convert, choices=choices, key=key, flag=flag, help=help)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Merged settings for one CLI invocation (defaults < config file < flags)."""

    subcommand: str = ""
    form: str | None = _option(None, help="form spec: diag:1,-1 or mat:2:0,1,1,0")
    family: str = _option("ones", choices=FAMILIES, help="coefficient sequence family")
    seed: int = _option(0, int, help="RNG seed for random-unit and offsets")
    s: int = _option(1, int, help="extremizer split parameter")
    N: int | None = _option(None, int, help="coefficient radius")
    N_list: tuple[int, ...] | None = _option(None, int_list, help="comma list of N")
    p: float = _option(4.0, float, help="moment exponent")
    C: float = _option(1.0, float, help="truncation constant")
    # None -> MollifierFamily default
    c1: Fraction | None = _option(None, fraction, help="mollifier cutoff fraction")
    grid_policy: str = _option(
        "budgeted", choices=GRID_POLICIES, key="grid.policy", flag="--grid",
        help="grid sizes: Nyquist, or capped at --max-cells",
    )
    max_cells: int = _option(50_000_000, int, key="grid.max_cells", help="cell budget")
    m_alpha: int | None = _option(None, int, key="grid.m_alpha", help="alpha grid size")
    m_theta: int | None = _option(None, int, key="grid.m_theta", help="theta grid size")
    offsets: int = _option(3, int, help="seeded grid offsets per N")
    levels: int = _option(16, int, help="level-set profile size")
    lambdas: tuple[float, ...] | None = _option(None, float_list, help="threshold list")
    measure: str = _option("truncated", choices=MEASURES, help="fitted column")
    slope_tol: float = _option(0.75, float, key="tolerance.slope", help="verdict window")
    samples: int = _option(10_000, int, help="sample count for mollifier-check")
    Q: int | None = _option(None, int, help="restrict to one dyadic block")
    q_max: int = _option(4, int, help="largest denominator q of the major-arc points")
    m_cut: int = _option(3, int, help="dual-sum cutoff")
    count: int = _option(20, int, help="points drawn per arc kind")
    a: int = _option(1, int, help="numerator a of S(a, b; q)")
    q: int = _option(1, int, help="modulus q of S(a, b; q)")
    out_csv: str | None = _option(None, key="out.csv", help="CSV output path")
    out_json: str | None = _option(None, key="out.json", help="JSON output path")


# RunConfig field -> its option declaration, for every run option
OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}
# config key -> RunConfig field
KNOWN_KEYS = {opt["key"] or name: name for name, opt in OPTIONS.items()}


def option_flag(name: str) -> str:
    return OPTIONS[name]["flag"] or "--" + name.replace("_", "-")


def read_option(name: str, text: str):
    """The value of option `name` spelled `text`, as a config file gives it;
    a flag goes through the same converter and the same choices."""
    opt = OPTIONS[name]
    value = opt["convert"](text)
    if opt["choices"] is not None and value not in opt["choices"]:
        listed = ", ".join(map(repr, opt["choices"]))
        raise ValueError(f"invalid choice: {value!r} (choose from {listed})")
    return value


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
        if key not in KNOWN_KEYS:
            raise ValueError(f"{origin}:{lineno}: unknown config key {key!r}")
        try:
            out[KNOWN_KEYS[key]] = read_option(KNOWN_KEYS[key], value.strip())
        except ValueError as exc:
            raise ValueError(
                f"{origin}:{lineno}: bad value for {key!r}: {exc}"
            ) from None
    return out


def parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), origin=path)
