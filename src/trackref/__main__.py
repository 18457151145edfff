"""``python -m trackref``: the same command-line tool as ``trackref``."""

from .cli import run

if __name__ == "__main__":
    run()
