"""Command-line interface.

    tweetflow <stage> --config pipeline.yaml [--input PATH] [--out DIR]
              [--seed N] [--lang en|it] [--interactive]

`all` runs every stage in order. Exit codes: 0 success, 1 configuration
or usage error, 2 data error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import STAGES, load_config
from .errors import ConfigError, DataError, StageError
from .pipeline import run_all, run_stage

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_STAGE = 3

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_CONFIG on a usage error, not argparse's 2: 2 means a data error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tweetflow",
        description="Deterministic tweet-corpus mining pipeline",
    )
    parser.add_argument(
        "stage",
        choices=list(STAGES) + ["all"],
        help="pipeline stage to run ('all' runs the full sequence)",
    )
    parser.add_argument("--config", required=True, help="YAML pipeline config")
    parser.add_argument("--input", help="override the configured input corpus")
    parser.add_argument("--out", help="override the configured output directory")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--lang", choices=["en", "it"], help="restrict to one language")
    parser.add_argument(
        "--interactive",
        action="store_true",
        help="choose topics interactively instead of by dictionary overlap",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = load_config(
            args.config,
            input_override=args.input,
            out_override=args.out,
            seed_override=args.seed,
            lang_override=args.lang,
            interactive=args.interactive,
        )
        if args.stage == "all":
            run_all(config)
        else:
            run_stage(args.stage, config)
    except ConfigError as exc:
        logging.error("config error: %s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        logging.error("data error: %s", exc)
        return EXIT_DATA
    except StageError as exc:
        logging.error("stage failure: %s", exc)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
