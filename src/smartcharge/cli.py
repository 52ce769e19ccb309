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

# config file keys (also the flags' argparse dests), by ExperimentConfig
# field: the field's own name, except for these five
_RENAMED = {
    "input_path": "input",
    "e_max_loss": "max_loss",
    "online_warmup": "warmup",
    "output_dir": "out_dir",
    "cp_filter": "cp",
}
CONFIG_KEYS = {_RENAMED.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}


def _parse_history(value) -> int | None:
    if value is None or value == "unlimited":
        return None
    # int() would truncate 5.5, read true as 1 and raise TypeError on a list
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"history must be a positive integer or 'unlimited', got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smartcharge",
        description="Learn and evaluate two-phase EV charging policies "
        "on a chargepoint session dataset.",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--input", help="chargepoint session CSV")
    p.add_argument("--mode", choices=["offline", "online", "predict"])
    p.add_argument(
        "--history",
        help="sessions of history used for learning: an integer or 'unlimited'",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--min-sessions", type=int, dest="min_sessions")
    p.add_argument("--n-tries", type=int, dest="n_tries")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--max-loss", type=float, dest="max_loss")
    p.add_argument("--warmup", type=int)
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument(
        "--cp",
        action="append",
        help="restrict to this charge point (repeatable)",
    )
    p.add_argument("--workers", type=int)
    p.add_argument("--emit-resolution", type=int, dest="emit_resolution")
    p.add_argument(
        "--cold-start",
        action="store_true",
        default=None,
        dest="cold_start",
        help="online mode: re-learn from scratch after each session instead "
        "of warm-starting from the previous policy",
    )
    return p


def build_config(argv: list[str] | None = None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)

    settings: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_cfg)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value

    if "input" not in settings:
        raise ValueError("an input CSV is required (--input or config file)")

    kwargs = {CONFIG_KEYS[k]: v for k, v in settings.items()}
    kwargs["history"] = _parse_history(kwargs.get("history", 30))
    # a list of ids becomes a tuple; any other type fails config validation
    cp = kwargs.get("cp_filter")
    if isinstance(cp, (str, list)):
        kwargs["cp_filter"] = (cp,) if isinstance(cp, str) else tuple(cp)
    return ExperimentConfig(**kwargs)


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
