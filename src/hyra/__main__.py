"""``python -m hyra``: the command-line front end."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module, as tools that load every module do, runs nothing
    sys.exit(main())
