"""``python -m dghlab``: the command-line front end."""

from .cli import entrypoint

entrypoint()
