"""``python -m nepsolve``: the command-line interface of :mod:`nepsolve.cli`."""

from .cli import main
__all__ = ["main"]
if __name__ == "__main__":
    raise SystemExit(main())
