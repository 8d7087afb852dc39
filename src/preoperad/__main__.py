"""`python -m preoperad ARGS`: the command line, as the `preoperad` script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
