"""Run the command-line interface: ``python3 -m periodlab classify ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
