"""python -m warpspec: the command-line interface of warpspec.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
