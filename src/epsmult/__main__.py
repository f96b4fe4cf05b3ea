"""``python -m epsmult``: the command line, as the ``epsmult`` script runs it."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
