"""`python -m btquot ARGS` runs the `btquot` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
