"""python -m jacobimax: the jacobimax command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
