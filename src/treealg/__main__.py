"""``python -m treealg``: the command-line interface."""
from .cli import main

main()
