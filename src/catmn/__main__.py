"""``python -m catmn``: the same command line as ``python -m catmn.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
