"""``python -m dfclab``: the ``dfclab`` command line (see ``dfclab.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
