"""`python -m routenet`: the command-line entry point."""
from .cli import main

raise SystemExit(main())
