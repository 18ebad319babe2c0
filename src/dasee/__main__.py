"""``python -m dasee``: the ``dasee`` command line (see ``dasee.cli``)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
