"""Command-line entry point for the charging experiments.

A JSON config file may set any option; explicitly passed flags win over the
config file, which wins over the built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import ExperimentConfig, HarnessError, run

# argparse settings of a field's flag, by the field's annotation; a field
# of any other type is read as text
_FLAG_KINDS = {
    "int": {"type": int},
    "float": {"type": float},
    "float | None": {"type": float},
    "bool": {"action": "store_true", "default": None},
    "tuple[str, ...]": {"action": "append"},
}
_HELP = {
    "input": "chargepoint session CSV",
    "history": "sessions of history used for learning: an integer or 'unlimited'",
    "cp": "restrict to this charge point (repeatable)",
    "cold_start": "online mode: re-learn from scratch after each session instead "
    "of warm-starting from the previous policy",
}


def _parse_history(value) -> int | None:
    if value is None or value == "unlimited":
        return None
    message = f"history must be a positive integer or 'unlimited', got {value!r}"
    # int() would truncate 5.5, read true as 1 and raise TypeError on a list
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(message)
    try:
        return int(value)
    except ValueError:
        raise ValueError(message) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smartcharge",
        description="Learn and evaluate two-phase EV charging policies "
        "on a chargepoint session dataset.",
        # a bad flag value raises ArgumentError, which build_config reports
        exit_on_error=False,
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, help=_HELP.get(f.name), **_FLAG_KINDS.get(f.type, {}))
    return p


def build_config(argv: list[str] | None = None) -> ExperimentConfig:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:  # e.g. "argument --workers: invalid int value: 'x'"
        raise ValueError(str(exc)) from None

    names = [f.name for f in fields(ExperimentConfig)]
    settings: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(names)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_cfg)
    for name in names:
        value = getattr(args, name)
        if value is not None:
            settings[name] = value

    if "input" not in settings:
        raise ValueError("an input CSV is required (--input or config file)")

    if "history" in settings:
        settings["history"] = _parse_history(settings["history"])
    # a list of ids becomes a tuple; any other type fails config validation
    cp = settings.get("cp")
    if isinstance(cp, (str, list)):
        settings["cp"] = (cp,) if isinstance(cp, str) else tuple(cp)
    return ExperimentConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
        paths = run(cfg)
    except (HarnessError, ValueError, OSError) as exc:
        print(f"smartcharge: error: {exc}", file=sys.stderr)
        return 1
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
