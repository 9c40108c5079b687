"""``python -m uncmap``: the ``uncmap`` command without an installed script."""

from .cli import console_main

console_main()
