"""``python -m patina``: the command line of ``patina.cli``."""

from .cli import main

main()
