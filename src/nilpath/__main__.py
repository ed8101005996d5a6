"""``python -m nilpath``: the same command line as the ``nilpath`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
