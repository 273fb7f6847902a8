"""`python -m ncfem`: the command line of ncfem.cli."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
