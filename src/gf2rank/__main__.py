"""``python -m gf2rank``: the ``gf2rank`` command, also from a checkout that is not installed."""

from .cli import main

main(prog_name="gf2rank")
