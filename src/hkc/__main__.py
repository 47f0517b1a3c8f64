"""`python -m hkc`: the same command line as the `hkc` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
