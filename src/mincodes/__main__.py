"""``python -m mincodes``: the command-line interface in :mod:`.cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
